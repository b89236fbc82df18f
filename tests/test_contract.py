"""Values from outside are checked where they enter, whatever the library trusts inside."""

import re

import pytest

from conftest import sset_from_text
from stcores import DomainError
from stcores.abacus import BetaSet, SSet, core_from_s_set, make_sset, q_set
from stcores.affine_actions import alpha, apply_word, chi_gen, chi_on_sset, psi_gen
from stcores.alcoves import (
    Hyperplane,
    SPoint,
    hyperplane_meets_rhomboid,
    origin,
    point_from_text,
    reflect,
    reflect_hyperplane,
    rhomboid_points,
    side_of,
    simplex_vertices,
    tip,
)
from stcores.orbits import (
    anderson_count,
    containment_chain,
    count_st_cores,
    descend_to_t_core,
    enumerate_st_cores,
    kappa,
    lemma53_check,
    level_orbit_up_to_size,
)
from stcores.diagram import RenderSpec
from stcores.abacus import core, is_s_core
from stcores.partitions import (
    Box,
    Partition,
    RimHook,
    boxes_of_residue,
    brute_core,
    from_text,
    is_s_core_by_hooks,
    partitions_up_to,
    removable_rim_hooks,
    remove_rim_hook,
    toggle_residue,
)

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
    # a span of 2^33 - 1 positions: refused by the span cap before any part is built
    "core_from_s_set_beyond_63_bits": lambda: core_from_s_set(make_sset(2, (2**32, 1 - 2**32))),
    # size 5e15 is under 2^62, but the rebuild would scan 2e8 abacus positions
    "core_from_s_set_beyond_span_cap": lambda: core_from_s_set(make_sset(2, (-10**8, 10**8 + 1))),
    # a user-supplied t or k can push a generator's or a reflection's result past 63 bits
    "psi_gen_beyond_63_bits": lambda: psi_gen(0, 2**62, origin(3)),
    "chi_gen_beyond_63_bits": lambda: chi_gen(1, 2**62 + 1, origin(3)),
    "alpha_beyond_63_bits": lambda: alpha(origin(3), 2**62),
    "reflect_beyond_63_bits": lambda: reflect(origin(3), Hyperplane(1, 3, 2**61)),
    "rhomboid_points_s_below_2": lambda: rhomboid_points(1, 3),
    "simplex_vertices_s_below_2": lambda: simplex_vertices(1, 3),
    "q_set_s_below_2": lambda: q_set(Partition(), 1),
    "reflect_outside_space": lambda: reflect(origin(3), Hyperplane(1, 4, 0)),
    "side_of_hyperplane_outside_space": lambda: side_of(origin(3), Hyperplane(1, 4, 1)),
    "reflect_hyperplane_image_outside_space": lambda: reflect_hyperplane(
        Hyperplane(1, 4, 0), Hyperplane(1, 2, 0), 3
    ),
    "reflect_hyperplane_mirror_outside_space": lambda: reflect_hyperplane(
        Hyperplane(1, 2, 0), Hyperplane(1, 4, 0), 3
    ),
    # s is an exact int like every other s: a float or a bool does not name a space
    "reflect_hyperplane_float_s": lambda: reflect_hyperplane(Hyperplane(1, 2, 0), Hyperplane(1, 3, 0), 3.0),
    "reflect_hyperplane_bool_s": lambda: reflect_hyperplane(Hyperplane(1, 2, 0), Hyperplane(1, 3, 0), True),
    "meets_rhomboid_hyperplane_outside_space": lambda: hyperplane_meets_rhomboid(
        Hyperplane(1, 4, 1), 3, 4
    ),
    # exact ints only: a float or a bool passes the comparisons, then breaks a
    # later step or prints as text that does not read back
    "make_sset_floats": lambda: make_sset(2, [0.0, 1.0]),
    "spoint_floats": lambda: SPoint((0.0, 1.0)),
    "spoint_bool": lambda: SPoint((True, 0)),
    "partition_bools": lambda: Partition((True, True)),
    "partition_float": lambda: Partition((2.0, 1)),
    "count_float_s": lambda: anderson_count(2.0, 3),
    "count_st_cores_bool_t": lambda: count_st_cores(3, True),
    "chain_float_t": lambda: containment_chain(origin(3), 3, 4.0),
    # every integer that enters passes errors.check_int, generator indices included
    "chi_gen_float_generator": lambda: chi_gen(1.0, 4, origin(3)),
    "chi_gen_bool_generator": lambda: chi_gen(True, 4, origin(3)),
    "psi_gen_float_generator": lambda: psi_gen(1.0, 4, origin(3)),
    "psi_gen_bool_generator": lambda: psi_gen(True, 4, origin(3)),
    "chi_on_sset_float_generator": lambda: chi_on_sset(1.0, 4, ORIGIN_SSET_3),
    "chi_on_sset_bool_generator": lambda: chi_on_sset(True, 4, ORIGIN_SSET_3),
    "lemma53_check_float_generator": lambda: lemma53_check(Partition(), 1.0, 3),
    "lemma53_check_bool_generator": lambda: lemma53_check(Partition(), True, 3),
    "apply_word_float_generator": lambda: apply_word((1.0,), "chi", 4, origin(3)),
    "apply_word_bool_generator": lambda: apply_word((True,), "psi", 4, origin(3)),
    # a half-integral k reflects to a non-point
    "hyperplane_float_k": lambda: Hyperplane(1, 2, 0.5),
    "hyperplane_bool_i": lambda: Hyperplane(True, 2, 0),
    "origin_float_s": lambda: origin(2.5),
    "orbit_float_max_size": lambda: level_orbit_up_to_size(3, 4, 10.5),
    "orbit_bool_max_size": lambda: level_orbit_up_to_size(3, 4, True),
    "render_spec_bool_depth": lambda: RenderSpec(s=3, depth=True, mode="cores"),
    "render_spec_float_s": lambda: RenderSpec(s=3.0, depth=2, mode="cores"),
    "toggle_residue_float_k": lambda: toggle_residue(Partition((1,)), 1.0, 3),
    "partitions_up_to_float_n": lambda: partitions_up_to(2.5),
    "beta_set_float_head": lambda: BetaSet((0.5,)),
    "beta_set_bool_head": lambda: BetaSet((True,)),
    # a hook's box equal to (1, 1) but not made of ints fits the partition, then
    # breaks the removal or reads as row 1
    "remove_rim_hook_float_box": lambda: remove_rim_hook(Partition((1,)), RimHook((Box(1.0, 1.0),))),
    "remove_rim_hook_bool_box": lambda: remove_rim_hook(Partition((1,)), RimHook((Box(True, True),))),
    # a box that is not a Box: a list cannot be looked up among the partition's boxes
    "remove_rim_hook_list_box": lambda: remove_rim_hook(Partition((2,)), RimHook(([1, 1],))),
    "remove_rim_hook_list_box_after_a_box": lambda: remove_rim_hook(Partition((2,)), RimHook((Box(1, 2), [1, 1]))),
}


@pytest.mark.parametrize("build", BOUNDARY_CASES.values(), ids=BOUNDARY_CASES.keys())
def test_boundary_rejects_invalid_values(build):
    with pytest.raises(DomainError):
        build()


S_BELOW_1_CASES = {
    # the abacus side, through _hooks_below
    "core": lambda: core(Partition((2, 1)), 0),
    "is_s_core": lambda: is_s_core(Partition((2, 1)), -1),
    # the hook side
    "is_s_core_by_hooks": lambda: is_s_core_by_hooks(Partition((2, 1)), 0),
    "removable_rim_hooks": lambda: removable_rim_hooks(Partition((2, 1)), 0),
    "brute_core": lambda: brute_core(Partition((2, 1)), -3),
    "boxes_of_residue": lambda: boxes_of_residue(Partition((2, 1)), 0, 0, "addable"),
}


@pytest.mark.parametrize("build", S_BELOW_1_CASES.values(), ids=S_BELOW_1_CASES.keys())
def test_s_below_1_is_one_check(build):
    """The abacus and the hook oracles refuse s < 1 with the one errors.check_int message."""
    with pytest.raises(DomainError, match=r"^need s >= 1, got -?\d+$"):
        build()


LEVEL_CASES = {
    "descend_to_t_core": lambda s, t: descend_to_t_core(Partition(), s, t),
    "containment_chain": lambda s, t: containment_chain(origin(3), s, t),
    "anderson_count": anderson_count,
    "count_st_cores": count_st_cores,
    "enumerate_st_cores": enumerate_st_cores,
    "kappa": kappa,
    "tip": tip,
    "level_orbit_up_to_size": lambda s, t: level_orbit_up_to_size(s, t, 10),
    "hyperplane_meets_rhomboid": lambda s, t: hyperplane_meets_rhomboid(Hyperplane(1, 2, 0), s, t),
    "rhomboid_points": rhomboid_points,
    "simplex_vertices": simplex_vertices,
}


@pytest.mark.parametrize("build", LEVEL_CASES.values(), ids=LEVEL_CASES.keys())
@pytest.mark.parametrize(
    "s,t,message",
    [
        (1, 3, "need s >= 2, got 1"),
        (3, 0, "need t >= 1, got 0"),
        (2.0, 3, "s must be an integer, got 2.0"),
        (3, True, "t must be an integer, got True"),
    ],
)
def test_level_is_one_check(build, s, t, message):
    """Every level-t entry refuses s < 2, t < 1 and a non-int s or t with the
    one errors.check_level message, coprime pair or not."""
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        build(s, t)


@pytest.mark.parametrize(
    "build",
    [
        lambda: level_orbit_up_to_size(4, 6, 10, Partition((4,))),
        lambda: descend_to_t_core(Partition((4,)), 4, 6),
    ],
    ids=["level_orbit_up_to_size", "descend_to_t_core"],
)
def test_pair_is_checked_before_the_start_is_read(build):
    """A non-coprime pair is reported as such, before the start (here not
    even a 4-core) is read row by row."""
    with pytest.raises(DomainError, match=r"^\(4, 6\) must be coprime$"):
        build()
