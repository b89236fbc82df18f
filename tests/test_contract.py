"""Values from outside are checked where they enter, whatever the library trusts inside."""

import inspect
import re

import pytest

import stcores
from conftest import sset_from_text, within
from stcores import DomainError, errors
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
    residue_multiset,
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
    # an s-point spans s - 1 positions, and residue_multiset counts the t runners
    # of a t-abacus: both under the span cap, as q_set and core are for s runners
    "origin_beyond_span_cap": lambda: origin(10**7 + 2),
    "residue_multiset_beyond_span_cap": lambda: residue_multiset(ORIGIN_SSET_3, 10**7 + 2),
    # s vertices of s Fractions each: 3163^2 > 10^7
    "simplex_vertices_beyond_scan_cap": lambda: simplex_vertices(3163, 1),
}


@pytest.mark.parametrize("name,build", BOUNDARY_CASES.items(), ids=BOUNDARY_CASES.keys())
def test_boundary_rejects_invalid_values(name, build):
    with within(10, name), pytest.raises(DomainError):
        build()


def test_origin_residues_and_simplex_are_capped_on_both_sides(monkeypatch):
    """origin and residue_multiset lay out at most MAX_SPAN + 1 positions,
    simplex_vertices at most MAX_SCAN Fractions, and refuse one more."""
    monkeypatch.setattr(errors, "MAX_SPAN", 10)
    monkeypatch.setattr(errors, "MAX_SCAN", 100)
    assert origin(11).coords == tuple(range(11))
    assert residue_multiset(ORIGIN_SSET_3, 11) == (1, 1, 1) + (0,) * 8
    assert len(simplex_vertices(10, 1)) == 10
    for build, message in (
        (lambda: origin(12), "abacus span of 11 positions exceeds the cap of 10"),
        (lambda: residue_multiset(ORIGIN_SSET_3, 12), "abacus span of 11 positions exceeds the cap of 10"),
        (lambda: simplex_vertices(11, 1), "simplex vertices of 121 units of work exceeds the cap of 100"),
    ):
        with pytest.raises(DomainError, match=f"^{message}$"):
            build()


# The least valid values of the other arguments of each public entry with an s
# or t parameter, at s = 5, the least s coprime to both values of t swept below.
POINT_5, SSET_5 = origin(5), make_sset(5, range(5))
SWEEP_ARGS = {
    "AlcoveKey": {"floors": ()},
    "OrbitDescentTrace": {"initial_sset": SSET_5, "gens": ()},
    "SSet": {"elements": SSET_5.elements},
    "alpha": {"p": POINT_5},
    "anderson_count": {},
    "apply_word": {"word": (), "action": "chi", "p": POINT_5},
    "boxes_of_residue": {"p": Partition(), "k": 0, "mode": "addable"},
    "chi_gen": {"i": 0, "p": POINT_5},
    "chi_on_core": {"i": 0, "lam": Partition()},
    "chi_on_sset": {"i": 0, "q": SSET_5},
    "containment_chain": {"p": POINT_5},
    "core": {"p": Partition()},
    "count_st_cores": {},
    "descend_to_t_core": {"lam": Partition()},
    "enumerate_st_cores": {},
    "hyperplane_meets_rhomboid": {"h": Hyperplane(1, 2, 0)},
    "in_rhomboid": {"p": POINT_5},
    "is_s_core": {"p": Partition()},
    "is_s_core_by_hooks": {"p": Partition()},
    "kappa": {},
    "lemma53_check": {"lam": Partition(), "i": 0},
    "level_orbit_up_to_size": {"max_size": 0},
    "make_sset": {"elements": range(5)},
    "origin": {},
    "psi_gen": {"i": 0, "p": POINT_5},
    "q_set": {"p": Partition()},
    "reflect_hyperplane": {"h": Hyperplane(1, 2, 0), "r": Hyperplane(1, 2, 0)},
    "removable_rim_hooks": {"p": Partition()},
    "residue_multiset": {"q": SSET_5},
    "same_level_t_orbit": {"lam": Partition(), "mu": Partition()},
    "simplex_vertices": {},
    "tip": {},
    "toggle_residue": {"p": Partition(), "k": 0},
}
# slow on purpose: the oracles the fast code is checked against
SWEEP_ORACLES = {"brute_core", "rhomboid_points"}
SWEPT = [
    (name, param)
    for name in stcores.__all__
    # DomainError takes no s or t, and a subclass of a builtin has no signature to read
    if name not in SWEEP_ORACLES and callable(entry := getattr(stcores, name)) and entry is not DomainError
    for param in ("s", "t")
    if param in inspect.signature(entry).parameters
]


def test_the_sweep_reaches_every_public_s_and_t():
    assert {name for name, _ in SWEPT} == set(SWEEP_ARGS)


@pytest.mark.parametrize("value", [2**70, 10**7 + 2], ids=["2**70", "10**7+2"])
@pytest.mark.parametrize("name,param", SWEPT, ids=[f"{name}-{param}" for name, param in SWEPT])
def test_every_public_s_and_t_is_bounded(name, param, value):
    """An s or t far past every cap, the other at its least valid value, t = 1
    or s = 5: the call returns or raises DomainError, within 5 s."""
    entry = getattr(stcores, name)
    params = inspect.signature(entry).parameters
    levels = {key: v for key, v in {"s": 5, "t": 1, param: value}.items() if key in params}
    with within(5, f"{name}({param}={value})"):
        try:
            entry(**SWEEP_ARGS[name], **levels)
        except DomainError:
            pass


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
