"""Golden CLI output: exit code, stderr and the sha256 of stdout for a fixed argv list.

Every argv runs in-process through ``cli.main``, once plain and once with
``--json``. The hashes pin the output byte for byte, so a change that is
meant to keep behaviour can show that it did. When output is meant to
change, regenerate the hashes and say why in the change's description.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from stcores import cli

_ORIGIN_15 = "(" + ",".join(str(c) for c in range(15)) + ")"
# the first seeded (13,15) start of the walk tests in test_orbits.py: 217 steps
_SEEDED_13 = "(-30,-24,-23,-19,-14,-12,0,11,18,30,36,47,58)"
# the 7-core with s-set [-61,-57,-38,-18,-13,61,147]: 31 descent steps at t = 9
_CORE_7 = ("141,135,129,123,117,111,105,99,93,87,81,75,69,68,64,63,59,58,54,53,49,48,44,43,"
           "39,38,34,33,29,28,24,23,19,18,15,15,14,13,12,12,11,10,9,9,8,7,6,6,5,5,5,4,4,3,3,3,2,2,1,1,1")

# (argv, sha256 of plain stdout, sha256 of --json stdout); each exits 0 with empty stderr.
# The README examples (diagram without --out) come first, then larger cases.
GOLDEN = [
    (['core', '--s', '5', '6,6,2,1'],
     '5a5fc60e1ddfdb7491be4f1c37ab5ea681f8ab684c691c145f6f1f540ab866c6',
     '26c5aa35dcf2efc8341f172ff30ca7e8617455adbc092605da4e7fe904c79a9b'),
    (['qset', '--s', '5', '5,2,2,1'],
     '2af025e682fcbeb278154ea9a40149d41263d6f268004cc66174e78e59a1c02d',
     '9a2745cd03b97a388c781efbe3c439192f96d47216b6380a10cf9a1f562298fc'),
    (['act', 'chi', '--s', '3', '--t', '4', '--word', '0', '(0,1,2)'],
     'fe399481596e0fec992a553e2fb57098962789ba1a3f6ddec675cc8ebfd7aefb',
     '79e00e92ca7d1c6a974d14bd2e10aae1773fbbd95f32a362b68b5fcef8f6faa0'),
    (['kappa', '--s', '3', '--t', '4'],
     '751bc88f91111d0040a8878aa8c63eab5b6091ea729d7a0e011fe5ba730480af',
     'bff2d78fd2a2c8aed7bd0ee439f2bede83bf9ec842d2b89a04872fac50ce6b36'),
    (['count', '--s', '3', '--t', '4'],
     'f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06',
     'e4dc097043566345e2a4426507a541f89181ec3966abd66d48599f90ac51a68c'),
    (['enumerate', '--s', '2', '--t', '3'],
     '3c12fe54d72a8367b32e9790ef28fc275e579a72809e721bdaab61f41fd64c9e',
     'fad6c24b52ddd1bfa7560a3b2e6cd334f7ce92b5d877a368a2418158e6c01f86'),
    (['orbit-min', '--s', '3', '--t', '4', '4,2,1,1'],
     '1c4e612c4340c5170bd0acc80e63b48fa837e30ccff7e4296f4772424de831d5',
     '81c5ee4277e39b0d9d9e4084cbe35e815faf0f83351c2ccf4e8c85a0738c41f6'),
    (['chain', '--s', '3', '--t', '4', '(0,1,2)'],
     '25b152876d7e347576c3e187eb0e8c6def702e6661e1a49d157388cb69c9eae9',
     'a22a487daefe76d06b9994d27689c54f8e47c6151aeabd3876880b41bacc8d76'),
    (['verify', '--suite', 'all', '--seed', '0'],
     'b85d373724ed3abee5b768faea0dfe5571c17a64cd1e4ab9d07e32b430cc35c1',
     'eff360a5e3d310d0528f91e98f6eb45882406ab284bd9ac922502c4eb3c1682f'),
    (['diagram', '--s', '3', '--depth', '5', '--mode', 'cores'],
     'd34dd481d70676adcfb548e2353a3a2d1bb0903057199b73cf457e38541f5dcc',
     'd44d1b21e1f9c0a7ed2f1f22badcc7aa1eac9883798c735ce574432e3e0f8378'),
    (['diagram', '--s', '3', '--t', '4', '--depth', '6', '--mode', 'tcores'],
     '85b74416bb54ae37d9fe023dae184f84891eaa6181358297ee9fbd4e83f239b1',
     'f1aedc51056c5a069da2e51558dedbce8c73f37b06265ce863440a5f56bf0e22'),
    (['kappa', '--s', '40', '--t', '41'],
     'dd081e36a11ac6210a505a99a33ccc95beb9571f5a801a3e55923c0493cd6147',
     '015f59906fcccf1d6c08f24e8a87f6215fd8b2e055bfd1ddacd0d59075fe5bdb'),
    (['enumerate', '--s', '8', '--t', '11'],
     'df208d4c9d796fe383389d6600fa4ef9464a027636530a6f51ff535564374f3e',
     '7703188b111f6fd401f902d6be8b16fb318be3240646565d8aea549918b889ce'),
    (['chain', '--s', '15', '--t', '16', _ORIGIN_15],
     '009dffeb27285620547fe2791b187d8310de367c0c5f856f7c0a13d2992b0df5',
     '8d0eed6a0b648bb8e394a200bf998aa214d7540a83aeef28e5bb80213a96672a'),
    (['chain', '--s', '13', '--t', '15', _SEEDED_13],
     '9ee47aab6c364870fb1ae784e4c298d03671bd73f21a69521cfde0862a19fa6e',
     '596cfae51bb02db7125da27347339164130a051aa25c713f27d805c45620131f'),
    (['diagram', '--s', '3', '--t', '4', '--depth', '12', '--mode', 'tcores'],
     'ea646de5f1288d874507380813bd568b731657e22e22cb7d10ded50d4237f642',
     '95930b152c8f40f6d6d722070ec1835c2cbec05168b41d3d9f794e4adfb46d86'),
    (['orbit-min', '--s', '7', '--t', '9', _CORE_7],
     '56b1daba1e54465b55a2ae4ea385b8861f74cd26748a366277fd8138825c9dc5',
     'd5d82a68108d29b945aadd2e3fd8bcc2fd748b8a2636b0bde2697f80ae9cdc1b'),
    # the tip of (3,4): no steps, and "steps": [] in the envelope
    (['chain', '--s', '3', '--t', '4', '(-3,1,5)'],
     '751bc88f91111d0040a8878aa8c63eab5b6091ea729d7a0e011fe5ba730480af',
     '709d568acb796732844c5934e6d94805d4aa629a91110c3dc3de5dc43fd7cf22'),
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue(), hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize(
    "argv, plain_sha, json_sha", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
)
def test_cli_output_is_byte_identical(argv, plain_sha, json_sha):
    assert _run(argv) == (0, "", plain_sha)
    assert _run(argv + ["--json"]) == (0, "", json_sha)
