import io
import json
import signal
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from stcores import cli


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_core_command(capsys):
    code, out, _ = run_cli(capsys, "core", "--s", "5", "6,6,2,1")
    assert (code, out) == (0, "5,2,2,1\n")
    code, out, _ = run_cli(capsys, "core", "--s", "5", "")
    assert (code, out) == (0, "\n")
    code, out, _ = run_cli(capsys, "core", "--s", "4", "4,2,1,1")
    assert (code, out) == (0, "\n")


def test_qset_command(capsys):
    code, out, _ = run_cli(capsys, "qset", "--s", "5", "5,2,2,1")
    assert (code, out) == (0, "[-4,-2,2,5,9]\n")
    code, out, _ = run_cli(capsys, "qset", "--s", "3", "")
    assert (code, out) == (0, "[0,1,2]\n")
    code, out, _ = run_cli(capsys, "qset", "--s", "3", "3,1,1")
    assert (code, out) == (0, "[-3,1,5]\n")


def test_act_command(capsys):
    code, out, _ = run_cli(capsys, "act", "chi", "--s", "3", "--t", "4", "--word", "0", "(0,1,2)")
    assert (code, out) == (0, "(-4,1,6)\n")
    code, out, _ = run_cli(capsys, "act", "psi", "--s", "3", "--t", "4", "--word", "0", "(0,1,2)")
    assert (code, out) == (0, "(-10,1,12)\n")
    code, out, _ = run_cli(capsys, "act", "psi", "--t", "4", "(0,1,2)")
    assert (code, out) == (0, "(0,1,2)\n")
    code, _, err = run_cli(capsys, "act", "chi", "--s", "4", "--t", "4", "(0,1,2)")
    assert code == 2 and "does not match" in err


def test_scalar_commands(capsys):
    assert run_cli(capsys, "kappa", "--s", "3", "--t", "4")[:2] == (0, "3,1,1\n")
    assert run_cli(capsys, "count", "--s", "3", "--t", "4")[:2] == (0, "5\n")
    assert run_cli(capsys, "enumerate", "--s", "2", "--t", "3")[:2] == (0, "\n1\n")


def test_orbit_min_command(capsys):
    code, out, _ = run_cli(capsys, "orbit-min", "--s", "3", "--t", "4", "4,2,1,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == ""  # the 4-core of (4,2,1,1) is empty
    assert lines[0].startswith("step 1: gen=")
    code, out, _ = run_cli(capsys, "orbit-min", "--s", "3", "--t", "4", "3,1,1")
    assert (code, out) == (0, "3,1,1\n")  # zero steps


def test_chain_command(capsys):
    code, out, _ = run_cli(capsys, "chain", "--s", "3", "--t", "4", "(0,1,2)")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "3,1,1"
    assert all(line.startswith("step ") for line in lines[:-1])
    code, out, _ = run_cli(capsys, "chain", "--s", "3", "--t", "4", "(-3,1,5)")
    assert (code, out) == (0, "3,1,1\n")


def test_json_envelopes(capsys):
    code, out, _ = run_cli(capsys, "core", "--s", "5", "--json", "6,6,2,1")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "input": {"partition": "6,6,2,1"},
        "result": "5,2,2,1",
        "meta": {"s": 5, "t": None},
    }
    code, out, _ = run_cli(capsys, "orbit-min", "--s", "3", "--t", "4", "--json", "4,2,1,1")
    payload = json.loads(out)
    assert payload["result"]["t_core"] == ""
    assert payload["meta"] == {"s": 3, "t": 4}
    for record in payload["result"]["steps"]:
        assert set(record) == {"step", "gen", "sset", "core"}
    code, out, _ = run_cli(capsys, "enumerate", "--s", "3", "--t", "4", "--json")
    assert json.loads(out)["result"] == ["", "1", "1,1", "2", "3,1,1"]


def test_exit_codes(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 1
    code, _, _ = run_cli(capsys, "verify", "--s-max", "1")
    assert code == 1
    code, _, _ = run_cli(capsys, "core", "--s", "5", "6,banana")
    assert code == 2
    code, _, _ = run_cli(capsys, "kappa", "--s", "4", "--t", "6")
    assert code == 2
    code, _, _ = run_cli(capsys, "core", "6,6,2,1")  # missing --s
    assert code == 1
    code, _, _ = run_cli(capsys, "diagram", "--s", "4")
    assert code == 2
    code, _, _ = run_cli(capsys, "diagram", "--s", "3", "--t", "6", "--mode", "tcores")
    assert code == 2
    # parameters outside the contract: one stderr line and nothing on stdout
    for argv, expected in [
        (["orbit-min", "--s", "3", "--t", "-2", "2"], 2),
        (["kappa", "--s", "2", "--t", "-3"], 2),
        (["enumerate", "--s", "2", "--t", "-3"], 2),
        (["count", "--s", "2", "--t", "-3"], 2),
        (["count", "--s", "0", "--t", "1"], 2),
        (["act", "psi", "--t", "0", "(0,1,2)"], 2),
        (["act", "chi", "--t", "6", "(0,1,2)"], 2),
        (["verify", "--trials", "-5"], 1),
        (["verify", "--trials", "0"], 1),
        (["chain", "--s", "4", "--t", "5", "(0,1,2)"], 2),
        (["act", "psi", "--t", "1", "0,1,2"], 2),
        (["act", "psi", "--t", "1", "(0,x,2)"], 2),
        (["diagram", "--s", "3", "--mode", "tcores", "--depth", "2"], 2),
        (["core", "--s", "0", "1"], 2),
        (["qset", "--s", "1", "1"], 2),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (expected, ""), argv
        assert err.startswith("stcores") and len(err.splitlines()) == 1, argv


def test_diagram_without_out_prints_the_svg(capsys):
    from stcores.diagram import RenderSpec, render_svg

    code, out, err = run_cli(capsys, "diagram", "--s", "3", "--depth", "1")
    assert (code, out, err) == (0, render_svg(RenderSpec(s=3, depth=1, mode="cores")), "")


def test_verify_command(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "olsson", "--s-max", "5", "--t-max", "6",
        "--seed", "42", "--trials", "60",
    )
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "vandehey", "--s-max", "6", "--t-max", "7", "--json"
    )
    assert code == 0
    assert all(row["pass"] for row in json.loads(out)["result"])


def test_verify_names_first_chain_failure(capsys, monkeypatch):
    from stcores import orbits
    from stcores.alcoves import rhomboid_points

    real = orbits.containment_chain
    bad = [(3, 4, rhomboid_points(3, 4)[1]), (4, 5, rhomboid_points(4, 5)[2])]

    def broken(p, s, t):
        chain = real(p, s, t)
        if (s, t, p) in bad:  # drop the last step: the walk stops short of kappa
            return orbits.ContainmentChain(chain.points[:-1], chain.cores[:-1], chain.gens[:-1])
        return chain

    monkeypatch.setattr(orbits, "containment_chain", broken)
    code, out, _ = run_cli(capsys, "verify", "--suite", "vandehey")
    assert code != 0
    (row,) = [line for line in out.splitlines() if "vandehey.chains" in line]
    s, t, p = bad[0]
    assert row.startswith("FAIL")
    assert row.endswith(f": 2 failures; first (s, t, point) = ({s}, {t}, {p})")


def test_verify_all_defaults_is_fast_and_green(capsys):
    import time

    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "FAIL" not in out
    assert time.perf_counter() - start < 60.0


def test_verify_is_deterministic_under_seed(capsys):
    args = ("verify", "--suite", "actions", "--seed", "7", "--trials", "40")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second


def test_round_trip_of_output_text(capsys):
    from stcores import abacus, partitions as parts
    from stcores.alcoves import point_from_text

    _, out, _ = run_cli(capsys, "core", "--s", "5", "6,6,2,1")
    assert parts.from_text(out.strip()) == parts.Partition((5, 2, 2, 1))
    _, out, _ = run_cli(capsys, "qset", "--s", "5", "5,2,2,1")
    assert abacus.sset_from_text(out.strip(), 5) == abacus.make_sset(5, [5, -4, 2, -2, 9])
    _, out, _ = run_cli(capsys, "act", "chi", "--t", "4", "--word", "0", "(0,1,2)")
    assert point_from_text(out.strip()).coords == (-4, 1, 6)


_small = st.integers(-3, 9)


@st.composite
def _small_argv(draw):
    command = draw(st.sampled_from(["kappa", "count", "enumerate", "orbit-min", "chain", "act"]))
    s, t = str(draw(_small)), str(draw(_small))
    origin = "(" + ",".join(str(c) for c in range(max(int(s), 2))) + ")"
    if command == "orbit-min":
        return [command, "--s", s, "--t", t, draw(st.sampled_from(["", "2"]))]
    if command == "chain":
        return [command, "--s", s, "--t", t, origin]
    if command == "act":
        action = draw(st.sampled_from(["psi", "chi"]))
        word = " ".join(str(i) for i in draw(st.lists(_small, max_size=3)))
        return [command, action, "--t", t, "--word", word, origin]
    return [command, "--s", s, "--t", t]


def _on_alarm(signum, frame):
    raise TimeoutError("cli.main did not return within the alarm")


@settings(max_examples=80, deadline=None)
@given(_small_argv())
def test_small_and_invalid_parameters_exit_cleanly(argv):
    """Zero, negative and non-coprime (s, t) end in an exit code, never a hang or traceback."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(10)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2, 3), argv


def test_oversize_kappa_is_refused_before_building_it(capsys):
    """Kane's size for (200000, 200001) is about 6.7e19 > 2^62: exit 2 at once."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(10)
    try:
        code, out, err = run_cli(capsys, "kappa", "--s", "200000", "--t", "200001")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (2, "")
    assert err.startswith("stcores:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["kappa", "--s", "30000", "--t", "30001"],  # tip span 9e8, Kane size 3.4e16 < 2^62
        ["kappa", "--s", "100000000", "--t", "1"],  # tip span 1e8, empty core
        ["core", "--s", "1000000000", "1"],  # 1e9 runners
    ],
    ids=" ".join,
)
def test_over_span_inputs_are_refused_up_front(capsys, argv):
    """The abacus span cap refuses these before any runner is laid out."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(10)
    try:
        code, out, err = run_cli(capsys, *argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (2, "")
    assert err.startswith("stcores:") and len(err.splitlines()) == 1


def test_enumerate_is_iterative_and_capped(capsys):
    """(2000, 1) has one core, the empty one, and a scan 1999 runners deep;
    (30, 31) would scan C(60, 29) candidates and is refused up front."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(10)
    try:
        one = run_cli(capsys, "enumerate", "--s", "2000", "--t", "1")
        refused = run_cli(capsys, "enumerate", "--s", "30", "--t", "31")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert one == (0, "\n", "")
    code, out, err = refused
    assert (code, out) == (2, "")
    assert err.startswith("stcores:") and len(err.splitlines()) == 1


def test_act_under_its_cap_applies_every_generator(capsys):
    """499 generators on 500 coordinates is 249,500 moves, under the cap.  Generator 1
    of chi_1 trades the values 0 and 1 between their two coordinates, so an odd
    count of them swaps the first two."""
    n = 500
    code, out, _ = run_cli(capsys, "act", "chi", "--t", "1", "--word", " ".join(["1"] * (n - 1)),
                           "(" + ",".join(map(str, range(n))) + ")")
    assert (code, out) == (0, "(" + ",".join(map(str, (1, 0, *range(2, n)))) + ")\n")


@pytest.mark.parametrize(
    "argv",
    [
        # C(401, 3) = 10,706,800 walls from the origin to the tip, cores of span up to 159,600
        ["chain", "--s", "400", "--t", "401", "(" + ",".join(map(str, range(400))) + ")"],
        # 20,000 generators, each moving 20,000 coordinates: 4e8
        ["act", "chi", "--t", "1", "--word", " ".join(["1"] * 20000), "(" + ",".join(map(str, range(20000))) + ")"],
        # 2.5e9 alcoves
        ["diagram", "--s", "3", "--depth", "100000"],
        # (6, 59) alone: 5 C(65, 6) = 4.1e8 candidate entries and core beads
        ["verify", "--suite", "vandehey", "--t-max", "60"],
        # 4 s^2 (s + 32) steps per random point and level at s = 40: 4.6e5
        ["verify", "--suite", "actions", "--s-max", "40"],
        ["verify", "--suite", "olsson", "--trials", "3000000"],
        # 272 corpus partitions against s up to 3000
        ["verify", "--suite", "core-oracle", "--s-max", "3000"],
    ],
    ids=[
        "chain-400-401",
        "act-chi-20000-generators-on-20000-coordinates",
        "diagram-depth-100000",
        "verify-vandehey-t-max-60",
        "verify-actions-s-max-40",
        "verify-olsson-trials-3000000",
        "verify-core-oracle-s-max-3000",
    ],
)
def test_oversize_walks_and_diagrams_are_refused_up_front(capsys, argv):
    """Walks, words, diagrams and verify runs are refused from closed-form counts, before any step."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(10)
    try:
        code, out, err = run_cli(capsys, *argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (2, "")
    assert err.startswith("stcores:") and "exceeds the cap of 10000000" in err
    assert len(err.splitlines()) == 1
