import math
import random
import tracemalloc
from itertools import combinations

import pytest

from conftest import brute_st_cores, st_cores_by_difference_scan
from stcores import DomainError, errors
from stcores.abacus import core, core_from_s_set, is_s_core, make_sset, q_set, size_from_s_set
from stcores.affine_actions import chi_gen, chi_on_core, chi_on_sset
from stcores.alcoves import (
    SPoint,
    fold_to_dominant,
    in_rhomboid,
    origin,
    point_of_sset,
    rhomboid_points,
    separating_hyperplanes,
    side_of,
    sset_of_point,
    tip,
)
from stcores.orbits import (
    _iter_st_core_ssets,
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
from stcores.verify import random_s_core, random_s_point


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


def _improving_gens(q, t):
    """Generators whose chi_t image has a smaller sum of squares than q."""
    sumsq = sum(a * a for a in q.elements)
    return [i for i in range(q.s) if sum(a * a for a in chi_on_sset(i, t, q).elements) < sumsq]


def test_descent_steps_are_the_smallest_improving_chi_t_moves():
    """Each step is chi_t by the smallest generator that lowers the sum of squares,
    and the descent stops where no generator does."""
    rng = random.Random(14)
    checked = 0
    while checked < 300:
        s = rng.randint(2, 7)
        t = rng.choice([t for t in range(1, 10) if math.gcd(s, t) == 1])
        q = make_sset(s, random_s_point(rng, s, rng.randint(1, 12)).coords)
        if size_from_s_set(q) > 2000:
            continue
        checked += 1
        _, trace = descend_to_t_core(core_from_s_set(q), s, t)
        assert trace.initial_sset == q
        previous = q
        for gen, current in trace.steps:
            assert gen == _improving_gens(previous, t)[0]
            assert current == chi_on_sset(gen, t, previous)
            previous = current
        assert _improving_gens(previous, t) == []


def _eager_descent(q, t):
    """Oracle for descend_to_t_core: after every move, rescan the generators
    from 0 and build the s-set.  Returns the steps as (generator, s-set) pairs."""
    s = q.s
    cycle = [{a % s: a for a in q.elements}[k * t % s] for k in range(s)]
    steps = []
    while True:
        for i in range(s):
            a, b = cycle[i - 1], cycle[i]
            if b - a > t:
                cycle[i - 1], cycle[i] = b - t, a + t
                steps.append((i, make_sset(s, cycle)))
                break
        else:
            return tuple(steps)


def test_descent_matches_eager_rescan():
    """Resuming the scan at i-1 (at 0 after a move at 0 or s-1) applies the same
    generator word, with the same s-sets, as rescanning from 0 after each move."""
    rng = random.Random(15)
    for s in range(2, 14):
        moves_at_ends = {0: 0, s - 1: 0}
        for t in range(1, s + 5):
            if math.gcd(s, t) != 1:
                continue
            for _ in range(4):
                q = make_sset(s, random_s_point(rng, s, rng.randint(1, 25)).coords)
                nu, trace = descend_to_t_core(core_from_s_set(q), s, t)
                steps = _eager_descent(q, t)
                assert trace.gens == tuple(i for i, _ in steps), (s, t, q)
                assert trace.steps == steps, (s, t, q)
                assert nu == core_from_s_set(steps[-1][1] if steps else q)
                for i in trace.gens:
                    if i in moves_at_ends:
                        moves_at_ends[i] += 1
        assert all(moves_at_ends.values()), (s, moves_at_ends)


def test_descent_trace_keeps_no_s_sets():
    """An 8.9e9-box 11-core descends at t = 13 in 63,681 steps; the trace holds
    only the generator word, so the descent allocates a few MiB, not one s-set
    per step (about 60 MiB)."""
    s, t = 11, 13
    rng = random.Random("descent-memory")
    q = make_sset(s, random_s_point(rng, s, 20000).coords)
    lam = core_from_s_set(q)
    tracemalloc.start()
    try:
        nu, trace = descend_to_t_core(lam, s, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (size(lam), len(trace)) == (8_904_825_910, 63_681)
    assert peak < 20 * 2**20
    assert nu == core(lam, t)


def test_descent_is_refused_once_its_steps_pass_the_cap(monkeypatch):
    """A step is one unit of work: a descent of n steps runs under a cap of n,
    and under a lower cap it stops at the first step past it."""
    s, t = 7, 9
    lam = core_from_s_set(make_sset(s, random_s_point(random.Random("descent-cap"), s, 200).coords))
    nu, trace = descend_to_t_core(lam, s, t)
    n = len(trace)
    assert n > 100
    monkeypatch.setattr(errors, "MAX_SCAN", n)
    assert descend_to_t_core(lam, s, t) == (nu, trace)
    monkeypatch.setattr(errors, "MAX_SCAN", n // 2)
    with pytest.raises(DomainError, match=f"^descent of {n // 2 + 1} units of work exceeds the cap of {n // 2}$"):
        descend_to_t_core(lam, s, t)


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


def _runner_gap_scan(s, t):
    """Oracle for the rhomboid scan: the runner-gap tree, walked recursively.

    With b_j in residue class -tj mod s, each step b_j = b_{j-1} - t + s*m_j
    takes a multiplier m_j >= 0 with m_1 + ... + m_{s-1} <= t; the fixed
    total then gives b_0, which must land in residue class 0.
    """
    base = (s - 1) * (1 + t) // 2  # b_0 for the all-zero multiplier vector
    found = []

    def scan(j, budget, prefix_sum, sum_of_prefix_sums, b_rel):
        if j == s:
            b0 = base - sum_of_prefix_sums
            if b0 % s == 0:
                found.append(frozenset(b0 + rel for rel in b_rel))
            return
        for m in range(budget + 1):
            p = prefix_sum + m
            b_rel.append(-t * j + s * p)
            scan(j + 1, budget - m, p, sum_of_prefix_sums + p, b_rel)
            b_rel.pop()

    scan(1, t, 0, 0, [0])
    return found


def test_scan_matches_runner_gap_tree():
    for s in range(2, 10):
        for t in range(1, 13):
            if math.gcd(s, t) == 1:
                fast = [frozenset(els) for els in _iter_st_core_ssets(s, t)]
                assert len(set(fast)) == len(fast) == anderson_count(s, t), (s, t)
                assert set(fast) == set(_runner_gap_scan(s, t)), (s, t)


def test_scan_is_refused_beyond_its_cap():
    with pytest.raises(DomainError):
        _iter_st_core_ssets(30, 31)  # C(60, 29) candidates, refused on the call
    # 4,474 candidates pass the scan, but 2,237 cores of span up to 4,473 do not
    assert count_st_cores(2, 4473) == 2237
    with pytest.raises(DomainError):
        enumerate_st_cores(2, 4473)


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
    # generator indices run over 0..s-1, as for chi_on_core
    with pytest.raises(DomainError):
        lemma53_check(P(), 3, 3)
    with pytest.raises(DomainError):
        lemma53_check(P(), -1, 3)


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


def _wall_count_walk(p, s, t):
    """Oracle for containment_chain: the gallery walk on explicit wall lists.

    At each step every level-1 generator image is built, its one wall found
    among the hyperplanes separating it from the current point, and the
    smallest generator whose wall also separates the point from the tip is
    taken; the separating walls to the tip are relisted after every step.
    O(s^2 t) per candidate, so only for small s.  Returns (points, cores, gens).
    """
    q = fold_to_dominant(p)
    assert in_rhomboid(q, t)
    target = tip(s, t)
    points = [q]
    cores = [core_from_s_set(sset_of_point(q))]
    gens = []
    remaining = len(separating_hyperplanes(q, target))
    while q != target:
        for i in range(s):
            candidate = chi_gen(i, 1, q)
            walls = separating_hyperplanes(q, candidate)
            assert len(walls) == 1
            if side_of(q, walls[0]) != side_of(target, walls[0]):
                q = candidate
                break
        else:
            raise AssertionError(f"no generator separates {q} from {target}")
        now_remaining = len(separating_hyperplanes(q, target))
        assert now_remaining == remaining - 1
        remaining = now_remaining
        points.append(q)
        cores.append(core_from_s_set(sset_of_point(q)))
        gens.append(i)
    return tuple(points), tuple(cores), tuple(gens)


def _seeded_rhomboid_point(rng, s, t):
    """A rhomboid point from a random residue order and gaps in [1, t] (t > s)."""
    residues = [0] + rng.sample(range(1, s), s - 1)
    coords = [0]
    for a, b in zip(residues, residues[1:]):
        coords.append(coords[-1] + rng.choice(range((b - a) % s, t + 1, s)))
    first, rem = divmod(s * (s - 1) // 2 - sum(coords), s)
    assert rem == 0
    return SPoint(tuple(first + c for c in coords))


def _assert_matches_oracle(p, s, t):
    chain = containment_chain(p, s, t)
    assert (chain.points, chain.cores, chain.gens) == _wall_count_walk(p, s, t), (s, t, p)
    for k, i in enumerate(chain.gens):
        assert chain.points[k + 1] == chi_gen(i, 1, chain.points[k])
        # Lemma 5.3: the predicate b <= a + 1 holds at each step, and the
        # next core contains the current one
        assert lemma53_check(chain.cores[k], i, s), (s, t, chain.points[k], i)
        assert contains(chain.cores[k + 1], chain.cores[k])
    return chain


def test_chain_matches_wall_count_walk_on_small_rhomboids():
    for s in range(2, 7):
        for t in range(1, 8):
            if math.gcd(s, t) == 1:
                for p in rhomboid_points(s, t):
                    _assert_matches_oracle(p, s, t)


@pytest.mark.parametrize("s,t", [(11, 13), (13, 15)])
def test_chain_matches_wall_count_walk_on_seeded_points(s, t):
    rng = random.Random(f"chain:{s}:{t}")
    gens = set()
    for _ in range(10):
        gens.update(_assert_matches_oracle(_seeded_rhomboid_point(rng, s, t), s, t).gens)
    # moves at 0 and at s-1 are the two that send the resumed scan back to 0
    assert {0, s - 1} <= gens


def test_chain_from_origin_at_20_21():
    s, t = 20, 21
    goal = tip(s, t).coords
    start = origin(s).coords
    walls = sum(
        abs((goal[j] - goal[i]) // s - (start[j] - start[i]) // s)
        for i in range(s)
        for j in range(i + 1, s)
    )
    chain = containment_chain(origin(s), s, t)
    assert len(chain) == walls
    assert chain.cores[-1] == kappa(s, t)
    assert size(chain.cores[-1]) == (s * s - 1) * (t * t - 1) // 24
    assert all(contains(b, a) for a, b in zip(chain.cores, chain.cores[1:]))
    _assert_cores_are_rebuilt_cores(chain)


def _assert_cores_are_rebuilt_cores(chain):
    """Each core grown in place along the walk is the core rebuilt from its point."""
    for k, (p, lam) in enumerate(zip(chain.points, chain.cores)):
        assert lam == core_from_s_set(sset_of_point(p)), (p, k)


@pytest.mark.parametrize("s", range(2, 13))
def test_chain_cores_from_origin_equal_rebuilt_cores(s):
    """A walk from the origin starts at the empty core, so its cores gain new
    rows from the abacus tail as well as boxes on existing rows."""
    chain = containment_chain(origin(s), s, s + 1)
    assert chain.cores[0] == P() and len(chain.cores[-1]) >= 1
    _assert_cores_are_rebuilt_cores(chain)


def test_chain_raises_on_a_shrinking_step(monkeypatch):
    """With the walk aimed at the origin instead of the tip, its steps shrink the
    core, which Lemma 5.3 rules out for a walk to the tip; the walk raises."""
    from stcores import orbits

    monkeypatch.setattr(orbits, "tip", lambda s, t: origin(s))
    with pytest.raises(RuntimeError, match="Lemma 5.3"):
        containment_chain(tip(3, 4), 3, 4)


def test_chain_is_refused_beyond_its_cap():
    """Refused before the walk: 10,660 walls from the origin at (40, 41), with
    cores of span up to 1,599, and 12,497,500 pairs to count at (5000, 1)."""
    with pytest.raises(DomainError, match="gallery walk across 10660 walls"):
        containment_chain(origin(40), 40, 41)
    with pytest.raises(DomainError, match="wall count"):
        containment_chain(origin(5000), 5000, 1)
