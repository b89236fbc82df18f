import math
import random
from itertools import combinations

import pytest

from conftest import brute_st_cores, st_cores_by_difference_scan
from stcores import DomainError
from stcores.abacus import core, is_s_core, make_sset, q_set
from stcores.affine_actions import chi_on_core
from stcores.alcoves import origin, point_of_sset, rhomboid_points, tip
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
    same_level_t_orbit,
)
from stcores.partitions import Partition, contains, is_s_core_by_hooks, partitions_up_to, size
from stcores.verify import random_s_core


def P(*parts):
    return Partition(parts)


def test_residue_multiset_examples():
    assert residue_multiset(make_sset(3, [0, 1, 2]), 4) == (1, 1, 1, 0)
    assert residue_multiset(make_sset(3, [-4, 1, 6]), 4) == (1, 1, 1, 0)


def test_equal_residue_multisets_imply_equal_t_cores():
    """Exhaustive over pairs of small 3-cores, t = 4."""
    cores = [p for p in partitions_up_to(12) if is_s_core_by_hooks(p, 3)]
    for lam, mu in combinations(cores, 2):
        if residue_multiset(q_set(lam, 3), 4) == residue_multiset(q_set(mu, 3), 4):
            assert core(lam, 4) == core(mu, 4)


def test_descend_examples():
    nu, trace = descend_to_t_core(P(4, 2, 1, 1), 3, 4)
    assert nu == P()
    assert len(trace) > 0

    nu, trace = descend_to_t_core(P(3, 1, 1), 3, 4)
    assert nu == P(3, 1, 1)
    assert len(trace) == 0

    nu, _ = descend_to_t_core(P(6, 4, 2), 3, 4)
    assert nu == core(P(6, 4, 2), 4)

    with pytest.raises(DomainError):
        descend_to_t_core(P(3), 3, 4)  # (3) is not a 3-core
    with pytest.raises(DomainError):
        descend_to_t_core(P(), 3, 6)
    with pytest.raises(DomainError):
        descend_to_t_core(P(), 3, -2)


def test_descent_matches_abacus_and_decreases():
    rng = random.Random(11)
    for _ in range(200):
        s = rng.randint(2, 6)
        t = rng.choice([t for t in range(2, 9) if math.gcd(s, t) == 1])
        lam = random_s_core(rng, s, 150)
        nu, trace = descend_to_t_core(lam, s, t)
        assert nu == core(lam, t)
        seq = trace.sum_sq_sequence()
        assert all(b < a for a, b in zip(seq, seq[1:]))
        final_point = point_of_sset(trace.steps[-1][1] if trace.steps else trace.initial_sset)
        from stcores.alcoves import in_rhomboid

        assert in_rhomboid(final_point, t)
        assert is_s_core(nu, s) and is_s_core(nu, t)


def test_same_level_t_orbit_examples():
    lam = P(4, 2, 1, 1)
    assert same_level_t_orbit(lam, lam, 3, 4)
    assert same_level_t_orbit(P(4, 2, 1, 1), P(), 3, 4)
    assert not same_level_t_orbit(P(3, 1, 1), P(), 3, 4)


def test_orbit_equality_iff_equal_t_cores():
    rng = random.Random(12)
    for _ in range(80):
        s = rng.randint(2, 5)
        t = rng.choice([t for t in range(2, 8) if math.gcd(s, t) == 1])
        lam = random_s_core(rng, s, 60)
        mu = random_s_core(rng, s, 60)
        assert same_level_t_orbit(lam, mu, s, t) == (core(lam, t) == core(mu, t))


def test_kappa_examples():
    assert kappa(3, 4) == P(3, 1, 1)
    assert kappa(2, 3) == P(1)
    for s, t in ((2, 5), (3, 5), (4, 7), (5, 6)):
        assert size(kappa(s, t)) == (s * s - 1) * (t * t - 1) // 24
    assert kappa(4, 3) == kappa(3, 4)


def test_anderson_count_examples():
    assert anderson_count(3, 4) == 5
    assert anderson_count(2, 3) == 2
    assert anderson_count(4, 5) == 14
    with pytest.raises(DomainError):
        anderson_count(4, 6)
    with pytest.raises(DomainError):
        anderson_count(2, -3)


def test_enumerate_examples():
    got = enumerate_st_cores(3, 4)
    assert set(got) == {P(), P(1), P(2), P(1, 1), P(3, 1, 1)}
    assert got == sorted(got, key=lambda p: (size(p), p.parts))
    assert enumerate_st_cores(2, 3) == [P(), P(1)]
    assert count_st_cores(3, 4) == 5


@pytest.mark.parametrize("s,t", [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (5, 6), (4, 7)])
def test_enumerate_against_both_oracles(s, t):
    fast = enumerate_st_cores(s, t)
    assert fast == brute_st_cores(s, t)
    assert fast == st_cores_by_difference_scan(s, t)
    assert len(fast) == anderson_count(s, t)


def test_every_st_core_is_contained_in_kappa_small():
    for s, t in ((2, 3), (3, 4), (4, 5), (5, 7), (3, 8)):
        kap = kappa(s, t)
        assert all(contains(kap, c) for c in enumerate_st_cores(s, t))


def test_containment_chain_examples():
    chain = containment_chain(origin(3), 3, 4)
    assert chain.points[0] == origin(3)
    assert chain.points[-1] == tip(3, 4)
    assert chain.cores[0] == P()
    assert chain.cores[-1] == P(3, 1, 1)
    assert all(contains(b, a) for a, b in zip(chain.cores, chain.cores[1:]))

    assert len(containment_chain(tip(3, 4), 3, 4)) == 0

    for lam in enumerate_st_cores(3, 4):
        chain = containment_chain(point_of_sset(q_set(lam, 3)), 3, 4)
        assert chain.cores[0] == lam
        assert chain.cores[-1] == P(3, 1, 1)
        assert all(contains(b, a) for a, b in zip(chain.cores, chain.cores[1:]))

    with pytest.raises(DomainError):
        containment_chain(point_of_sset(q_set(P(6, 4, 2), 3)), 3, 4)  # outside R^3_4


def test_containment_chain_accepts_folded_input():
    from stcores.alcoves import SPoint

    chain = containment_chain(SPoint((1, 0, 2)), 3, 4)
    assert chain.cores[0] == P()
    assert chain.cores[-1] == P(3, 1, 1)


def test_lemma53_examples():
    for s in (2, 3, 4):
        for i in range(s):
            assert lemma53_check(P(), i, s)
            assert contains(chi_on_core(i, 1, P(), s), P())
    # golden instance: lambda = (1), s = 3, i = 0 has a = -1, b = 3
    assert not lemma53_check(P(1), 0, 3)


def test_lemma53_predicate_implies_containment():
    rng = random.Random(13)
    checked = 0
    while checked < 500:
        s = rng.randint(2, 6)
        lam = random_s_core(rng, s, 80)
        i = rng.randrange(s)
        if lemma53_check(lam, i, s):
            assert contains(chi_on_core(i, 1, lam, s), lam)
            checked += 1


def test_level_orbit_of_origin_small():
    got = level_orbit_up_to_size(3, 4, 12)
    expected = {
        p
        for p in partitions_up_to(12)
        if is_s_core_by_hooks(p, 3) and core(p, 4) == P()
    }
    assert got == expected


def test_chains_sweep_rhomboid():
    for s, t in ((2, 5), (3, 2), (4, 3)):
        kap = kappa(s, t)
        for p in rhomboid_points(s, t):
            chain = containment_chain(p, s, t)
            assert chain.cores[-1] == kap
            assert all(contains(b, a) for a, b in zip(chain.cores, chain.cores[1:]))
