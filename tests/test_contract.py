"""Values from outside are checked where they enter, whatever the library trusts inside."""

import pytest

from stcores import DomainError
from stcores.abacus import SSet, core_from_s_set, make_sset, q_set, sset_from_text
from stcores.affine_actions import chi_on_sset
from stcores.alcoves import SPoint, origin, point_from_text
from stcores.orbits import containment_chain
from stcores.partitions import Partition, from_text

ORIGIN_SSET_3 = make_sset(3, range(3))

BOUNDARY_CASES = {
    "sset_congruent": lambda: SSet(3, frozenset({-2, 1, 4})),
    "make_sset_wrong_sum": lambda: make_sset(3, (0, 1, 5)),
    "sset_from_text_malformed": lambda: sset_from_text("0,1,2", 3),
    "spoint_wrong_sum": lambda: SPoint((0, 3)),
    "point_from_text_malformed": lambda: point_from_text("(0,x,2)"),
    "partition_increasing": lambda: Partition((1, 2)),
    "from_text_malformed": lambda: from_text("2,x"),
    "q_set_not_a_core": lambda: q_set(Partition((6, 6, 2, 1)), 5),
    "chi_generator_out_of_range": lambda: chi_on_sset(3, 4, ORIGIN_SSET_3),
    "chi_not_coprime": lambda: chi_on_sset(0, 6, ORIGIN_SSET_3),
    "chain_wrong_size": lambda: containment_chain(origin(3), 4, 5),
    "chain_outside_rhomboid": lambda: containment_chain(SPoint((-4, 1, 6)), 3, 4),
    # the 63-bit coordinate bound is part of the s-set contract, not only SPoint's
    "make_sset_beyond_63_bits": lambda: make_sset(2, (2**63, 1 - 2**63)),
    # Kane-style size formula: refused before any part is built
    "core_from_s_set_beyond_63_bits": lambda: core_from_s_set(make_sset(2, (2**32, 1 - 2**32))),
}


@pytest.mark.parametrize("build", BOUNDARY_CASES.values(), ids=BOUNDARY_CASES.keys())
def test_boundary_rejects_invalid_values(build):
    with pytest.raises(DomainError):
        build()
