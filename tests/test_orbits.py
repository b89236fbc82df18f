import hashlib
import math
import random
import re
from collections import Counter
from itertools import combinations

import pytest

from conftest import brute_st_cores, peak_memory, point_of_sset, st_cores_by_difference_scan, within
from stcores import DomainError, errors, orbits
from stcores.errors import count_bits_below
from stcores.abacus import (
    _partition_from_first_gaps,
    core,
    core_from_s_set,
    is_s_core,
    make_sset,
    q_set,
    size_from_s_set,
)
from stcores.affine_actions import chi_gen, chi_on_core, chi_on_sset
from stcores.alcoves import (
    SPoint,
    fold_to_dominant,
    in_rhomboid,
    origin,
    rhomboid_points,
    separating_hyperplanes,
    side_of,
    sset_of_point,
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
    same_level_t_orbit,
)
from stcores.partitions import Partition, conjugate, contains, is_s_core_by_hooks, partitions_up_to, size
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
    """200 descents from the small cores of random_s_core, most of which take
    no step, then 200 from cores rebuilt from random_s_points, which take
    about 1,600 steps in all."""

    def steps_of_checked_descent(lam, s, t):
        nu, trace = descend_to_t_core(lam, s, t)
        assert nu == core(lam, t)
        seq = trace.sum_sq_sequence()
        assert all(b < a for a, b in zip(seq, seq[1:]))
        final_point = point_of_sset(trace.steps[-1][1] if trace.steps else trace.initial_sset)
        assert in_rhomboid(final_point, t)
        assert is_s_core(nu, s) and is_s_core(nu, t)
        return len(trace)

    rng = random.Random(11)
    for _ in range(200):
        s = rng.randint(2, 6)
        t = rng.choice([t for t in range(2, 9) if math.gcd(s, t) == 1])
        steps_of_checked_descent(random_s_core(rng, s, 150), s, t)
    steps = 0
    for _ in range(200):
        s = rng.randint(2, 6)
        t = rng.choice([t for t in range(2, 9) if math.gcd(s, t) == 1])
        steps += steps_of_checked_descent(core_from_s_set(sset_of_point(random_s_point(rng, s, 6))), s, t)
    assert steps > 1000


def test_descent_never_widens_its_s_set():
    """An improving chi_t move takes a < b with b - a - t a positive multiple
    of s to a + t and b - t, both strictly inside (a, b): each step's s-set
    spans at most the one before it, so no core rebuilt per step (as
    ``orbit-min`` prints them) spans more than the start."""
    rng = random.Random(38)
    for _ in range(400):
        s = rng.randint(2, 15)
        t = rng.choice([t for t in range(1, 2 * s + 2) if math.gcd(s, t) == 1])
        lam = core_from_s_set(sset_of_point(random_s_point(rng, s, 6)))
        _, trace = descend_to_t_core(lam, s, t)
        ssets = [trace.initial_sset] + [q for _, q in trace.iter_steps()]
        spans = [max(q.elements) - min(q.elements) for q in ssets]
        assert all(b <= a for a, b in zip(spans, spans[1:])), (s, t, lam)


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


def _cycle(q, t):
    """The elements of q along the classes 0, t, ..., (s-1)t mod s."""
    by_class = {a % q.s: a for a in q.elements}
    return [by_class[k * t % q.s] for k in range(q.s)]


def _eager_descent(q, t):
    """Oracle for descend_to_t_core: after every move, rescan the generators
    from 0 and build the s-set.  Returns the steps as (generator, s-set) pairs."""
    s = q.s
    cycle = _cycle(q, t)
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


def _cycle_descent(q, t):
    """Reference for descend_to_t_core: the greedy scan on the t-cycle, one
    generator check at a time, resuming at i-1 after a move at 0 < i < s-1
    and at 0 after a move at 0 or s-1.  Returns (t-core, generator word)."""
    s = q.s
    cycle = _cycle(q, t)
    gens = []
    i = 0
    while i < s:
        a, b = cycle[i - 1], cycle[i]
        if b - a > t:
            cycle[i - 1], cycle[i] = b - t, a + t
            gens.append(i)
            i = i - 1 if 0 < i < s - 1 else 0
        else:
            i += 1
    return core_from_s_set(make_sset(s, cycle)), tuple(gens)


def _memory_test_sset():
    """The s-set of the 8.9e9-box 11-core of test_descent_trace_keeps_no_s_sets."""
    return make_sset(11, random_s_point(random.Random("descent-memory"), 11, 20000).coords)


def _seeded_descents(seed):
    """(q, t) for s = 2..15 and every coprime t <= 40: per pair the empty
    core and kappa(s, t), both t-cores already, and three seeded s-cores of
    about n boxes, n log-uniform up to 1e7; then the memory test's core."""
    rng = random.Random(seed)
    for s in range(2, 16):
        for t in range(1, 41):
            if math.gcd(s, t) != 1:
                continue
            yield q_set(P(), s), t
            yield q_set(kappa(s, t), s), t
            for _ in range(3):
                # s - 1 of the k in r + s*k drawn from -d..d, the last one
                # minus their sum: about s^2 d^2 / 3 boxes
                spread = round(math.sqrt(3 * 10 ** rng.uniform(0, 7)) / s)
                yield make_sset(s, random_s_point(rng, s, spread).coords), t
    yield _memory_test_sset(), 13


def test_descent_matches_the_cycle_scan():
    """The sort on c_j = jt - cycle[j] applies the same word, and ends at the
    same t-core, as the scan on the t-cycle, from the empty core and from
    t-cores (no step) up to the 8.9e9-box core."""
    sizes, t_cores = [], 0
    for q, t in _seeded_descents("descent-c-form"):
        lam = core_from_s_set(q)
        nu, trace = descend_to_t_core(lam, q.s, t)
        assert (nu, trace.gens) == _cycle_descent(q, t), (q, t)
        sizes.append(size(lam))
        if is_s_core(lam, t):
            assert trace.gens == ()
            t_cores += 1
    assert len(sizes) >= 1000 and t_cores >= 2 * (len(sizes) - 1) // 5
    assert min(sizes) == 0 and 10**6 < sorted(sizes)[-2] < 3 * 10**7 and sizes[-1] > 8 * 10**9


def _c_form(q, t):
    """c_j = jt - cycle[j], the sequence the descent sorts."""
    return [j * t - a for j, a in enumerate(_cycle(q, t))]


def _inversions(q, t):
    """Inversions of C[j + ks] = c_j + kst with c_j = jt - cycle[j]: pairs
    n < m, n in 0..s-1, with C[n] > C[m]."""
    s = q.s
    c = _c_form(q, t)
    # for each i and j, the k >= [j <= i] with c_j + kst < c_i
    return sum(max(0, -((c[j] - c[i]) // (s * t)) - (j <= i)) for i in range(s) for j in range(s))


def test_descent_length_is_the_inversion_count():
    """Each step removes one inversion of the affine sequence and the end is
    sorted, so the greedy word is reduced and its length has a closed form,
    which the descent counts in O(s log s) before its first step.  Each step
    takes at least t boxes, so the length is at most |lambda|/t."""
    for q, t in _seeded_descents("descent-length"):
        _, trace = descend_to_t_core(core_from_s_set(q), q.s, t)
        assert len(trace) == _inversions(q, t) == orbits._descent_length(_c_form(q, t), q.s * t), (q, t)
        assert size_from_s_set(q) // t >= len(trace), (q, t)


def test_descent_length_is_counted_exactly_at_large_s(monkeypatch):
    """The O(s log s) count against the O(s^2) inversion sum on seeded s-sets
    up to s = 1000, far and near their t-cores, and against the descent
    itself where it is short enough to run.  The cap is raised so that the
    count's lower-bound check refuses none of them."""
    monkeypatch.setattr(errors, "MAX_SCAN", 2**62)
    rng = random.Random("descent-length-large")
    ran = 0
    for s in (16, 31, 64, 101, 256, 499, 1000):
        for t in (1, s - 1, s + 1, 2 * s + 1)[: 4 if s < 256 else 2]:
            for spread in (0, 1, 3, 30, 3000) if s < 499 else (3, 3000):
                q = make_sset(s, random_s_point(rng, s, spread).coords)
                length = _inversions(q, t)
                assert orbits._descent_length(_c_form(q, t), s * t) == length, (s, t, spread)
                assert size_from_s_set(q) // t >= length, (s, t, spread)
                if length <= 20000 and size_from_s_set(q) <= 10**8:
                    _, trace = descend_to_t_core(core_from_s_set(q), s, t)
                    assert len(trace) == length, (s, t, spread)
                    ran += 1
    assert ran >= 40, ran


def test_descent_trace_keeps_no_s_sets():
    """An 8.9e9-box 11-core descends at t = 13 in 63,681 steps; the trace holds
    only the generator word, so the descent allocates a few MiB, not one s-set
    per step (about 60 MiB)."""
    s, t = 11, 13
    lam = core_from_s_set(_memory_test_sset())
    with peak_memory() as peak:
        nu, trace = descend_to_t_core(lam, s, t)
    assert (size(lam), len(trace)) == (8_904_825_910, 63_681)
    assert peak.bytes < 20 * 2**20
    assert nu == core(lam, t)


def _refusal(q, t, cap):
    """The descent's refusal under cap: by the lower bound (the sum over the
    pairs of |c_i // st - c_j // st|, less s(s-1)/2) where that passes the
    cap, and by the exact length otherwise."""
    st = q.s * t
    bound = sum(abs(a // st - b // st) for a, b in combinations(_c_form(q, t), 2)) - q.s * (q.s - 1) // 2
    if bound > cap:
        return f"^descent of at least {bound} units of work exceeds the cap of {cap}$"
    return f"^descent of {_inversions(q, t)} units of work exceeds the cap of {cap}$"


def test_descent_is_refused_once_its_steps_pass_the_cap(monkeypatch):
    """A step is one unit of work: a descent of n steps runs under a cap of n,
    and under a lower cap it is refused before its first step, by its exact
    length, also where the bound |lambda|/t is within a factor 2 of n, unless
    a lower bound on the length already passes the cap.  Under a cap of at
    least |lambda|/t the length is never counted."""
    s, t = 7, 9
    lam = core_from_s_set(make_sset(s, random_s_point(random.Random("descent-cap"), s, 200).coords))
    nu, trace = descend_to_t_core(lam, s, t)
    n = len(trace)
    assert 100 < n < size(lam) // t
    monkeypatch.setattr(errors, "MAX_SCAN", n)
    assert descend_to_t_core(lam, s, t) == (nu, trace)
    monkeypatch.setattr(errors, "MAX_SCAN", size(lam) // t)
    with monkeypatch.context() as m:
        m.setattr(orbits, "_descent_length", lambda c, st: pytest.fail("counted under the cap"))
        assert descend_to_t_core(lam, s, t) == (nu, trace)
    monkeypatch.setattr(orbits, "_sort_descent", lambda c, st: pytest.fail("a step ran"))
    refusals = []
    for cap in (n - 1, n // 2, 0):
        monkeypatch.setattr(errors, "MAX_SCAN", cap)
        refusals.append(_refusal(q_set(lam, s), t, cap))
        with pytest.raises(DomainError, match=refusals[-1]):
            descend_to_t_core(lam, s, t)
    # one step below n the bound stays under the cap, and the exact length is named
    assert ["at least" in text for text in refusals] == [False, True, True]
    # on some seeded descents every step takes exactly t boxes, so the bound
    # |lambda|/t is the length itself and the cap one step below it is refused
    tight = 0
    for q, t in _seeded_descents("descent-cap"):
        n = _inversions(q, t)
        if n and size_from_s_set(q) // t < 2 * n:
            monkeypatch.setattr(errors, "MAX_SCAN", n - 1)
            with pytest.raises(DomainError, match=_refusal(q, t, n - 1)):
                descend_to_t_core(core_from_s_set(q), q.s, t)
            tight += size_from_s_set(q) // t == n
    assert tight >= 10, tight


def test_descent_far_over_the_cap_is_refused_after_one_sort(monkeypatch):
    """Where the spread of c // st less s(s-1)/2, a lower bound on the length,
    passes the cap, the refusal names that bound and the pairs are never
    counted: at s = 100,001 (t = 1, 2) on c drawn over ten multiples of st,
    against the bound summed over the distinct values of c // st, and on the
    seeded descents of s <= 15 under a cap just below the bound."""
    monkeypatch.setattr(orbits, "_rising_pairs", lambda values: pytest.fail("the pairs were counted"))
    rng = random.Random("descent-bound")
    s = 100_001
    for t in (1, 2):
        st = s * t
        c = [rng.randrange(-5 * st, 5 * st) for _ in range(s)]
        quotients = sorted(Counter(x // st for x in c).items())
        bound = sum((v - w) * m * k for (w, k), (v, m) in combinations(quotients, 2)) - s * (s - 1) // 2
        assert bound > errors.MAX_SCAN
        with pytest.raises(DomainError, match=f"^descent of at least {bound} units of work exceeds the cap of {errors.MAX_SCAN}$"):
            orbits._descent_length(c, st)
    refused = 0
    for q, t in _seeded_descents("descent-bound"):
        st = q.s * t
        bound = sum(abs(a // st - b // st) for a, b in combinations(_c_form(q, t), 2)) - q.s * (q.s - 1) // 2
        if bound > 0:
            monkeypatch.setattr(errors, "MAX_SCAN", bound - 1)
            with pytest.raises(DomainError, match=f"^descent of at least {bound} units of work exceeds the cap of {bound - 1}$"):
                descend_to_t_core(core_from_s_set(q), q.s, t)
            refused += 1
    assert refused >= 100, refused


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


def test_anderson_count_is_refused_before_its_binomial_is_built():
    """A count of at most 14,284 bits, which prints in under 4,300 digits, is
    admitted, and one bit more is refused: at s = 2000 the edge is t = 103,769.
    Lower bounds on the count's bits (2^k, then Stirling's formula) decide at
    once, before a binomial of millions of bits is built."""
    assert len(str(anderson_count(7000, 7001))) == 4209
    assert len(str(anderson_count(2000, 20001))) == 2905
    assert anderson_count(2, 10**9 + 1) == 10**9 // 2 + 1
    assert anderson_count(1415, 7072) == math.comb(8487, 1415) // 8487
    # the old bound k(bitlen(n) - bitlen(k) + 3) on C(n, k) refused these from t = 30,769 on
    assert anderson_count(2000, 30769) == math.comb(32769, 2000) // 32769
    assert anderson_count(2000, 103769).bit_length() == 14284
    # t = 1 has one core however large s is, and s has 1,001 bits here
    assert anderson_count(2**1000 + 1, 1) == 1
    with within(1, "anderson_count"):
        for (s, t), text in {
            (2000, 103771): "count of (2000, 103771)-cores of at least 14285 bits exceeds the cap of 14284 bits",
            (7300, 7301): "count of (7300, 7301)-cores of at least 14579 bits exceeds the cap of 14284 bits",
            (3000001, 3000000): "count of (3000001, 3000000)-cores of at least 2999977 bits exceeds the cap of 14284 bits",
        }.items():
            with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
                anderson_count(s, t)


def test_anderson_count_builds_only_binomials_near_the_cap(monkeypatch):
    """The lower bound on log2 of C(n, k)/n is short of it by at most 1/4
    bit, so a count it puts past the cap is refused without its binomial."""
    rng = random.Random("stirling")
    for _ in range(300):
        n = rng.randrange(2, 20000)
        k = rng.randrange(1, n // 2 + 1)
        assert 0 <= math.log2(math.comb(n, k) // n) - count_bits_below(n, k) <= 0.25, (n, k)

    def refused_unbuilt(n, k):
        raise AssertionError(f"built C({n}, {k})")

    monkeypatch.setattr(math, "comb", refused_unbuilt)
    # t = 103,771 to 103,777 are refused on the built count, from 103,779 on unbuilt
    for s, t in ((7300, 7301), (2000, 103779), (3000001, 3000000)):
        with pytest.raises(DomainError, match="exceeds the cap of 14284 bits$"):
            anderson_count(s, t)


def test_enumerate_examples():
    got = enumerate_st_cores(3, 4)
    assert set(got) == {P(), P(1), P(2), P(1, 1), P(3, 1, 1)}
    assert got == sorted(got, key=lambda p: (size(p), p.parts))
    assert enumerate_st_cores(2, 3) == [P(), P(1)]
    assert count_st_cores(3, 4) == 5


@pytest.mark.parametrize("s,t", [
    (2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (5, 6), (4, 7), (7, 4), (3, 8), (2, 9), (5, 7), (6, 7),
])
def test_enumerate_against_both_oracles(s, t):
    """Both orders of a pair, and walks of up to 132 cores.  The partition
    filter lists every partition up to Kane's bound, which passes 35 boxes
    only at (5, 7) and (6, 7), 48 and 70 boxes, too many to list in a test;
    the rhomboid scan checks those two."""
    fast = enumerate_st_cores(s, t)
    if (s * s - 1) * (t * t - 1) // 24 <= 35:
        assert fast == brute_st_cores(s, t)
    assert fast == st_cores_by_difference_scan(s, t)
    assert len(fast) == anderson_count(s, t)


def test_enumeration_listings_are_pinned():
    """Every listing of a coprime pair 2 <= s, t <= 12, in both orders, as
    lines "s t: parts", hashes to one pinned digest: a covers table or a wrap
    that drops, repeats or reorders a core, at any of these pairs, shows here."""
    digest = hashlib.sha256()
    for s in range(2, 13):
        for t in range(2, 13):
            if math.gcd(s, t) == 1:
                for core in enumerate_st_cores(s, t):
                    digest.update(f"{s} {t}: {','.join(map(str, core.parts))}\n".encode())
    assert digest.hexdigest() == "c551e60c7303ec7883b5b4d4662f64f7b451cde0e7c282c21e449dcc20b439b5"


def test_enumeration_is_symmetric_in_s_and_t():
    """The (s,t)- and (t,s)-cores are one set, listed in one (size, parts)
    order, whichever of s and t is larger; the pairs include cores of many
    sizes with many cores each, and (11, 13), past the pinned digest."""
    for s in range(2, 13):
        for t in range(s + 1, 13):
            if math.gcd(s, t) == 1:
                cores = enumerate_st_cores(s, t)
                assert cores == enumerate_st_cores(t, s), (s, t)
                assert [(size(c), c.parts) for c in cores] == sorted((size(c), c.parts) for c in cores), (s, t)
    assert enumerate_st_cores(11, 13) == enumerate_st_cores(13, 11)


def test_enumeration_is_closed_under_conjugation_and_meets_its_counts():
    """At every coprime 2 <= s < t <= 11 the listing is closed under
    conjugation (read by the slow partitions.conjugate, independent of the
    walk), holds C(s//2 + t//2, s//2) self-conjugate cores (Ford-Mai-Sze
    2009), and sums to count*(s+t+1)(s-1)(t-1)/24 boxes (the
    Armstrong-Hanusa-Jones mean, proved by Johnson 2018)."""
    for s in range(2, 12):
        for t in range(s + 1, 12):
            if math.gcd(s, t) == 1:
                cores = enumerate_st_cores(s, t)
                flipped = [conjugate(c) for c in cores]
                assert set(flipped) == set(cores), (s, t)
                self_conjugate = sum(f == c for f, c in zip(flipped, cores))
                assert self_conjugate == math.comb(s // 2 + t // 2, s // 2), (s, t)
                assert 24 * sum(map(size, cores)) == len(cores) * (s + t + 1) * (s - 1) * (t - 1), (s, t)


@pytest.mark.parametrize("s,t", [(11, 13), (13, 11), (2, 4471)])
def test_wide_mask_enumerations_meet_their_closed_forms(s, t):
    """Pairs past the pinned digest, whose walks run on masks of 120 and
    4,470 bits: Anderson's count, the Armstrong-Hanusa-Jones total size, and
    Kane's size (s^2-1)(t^2-1)/24 for the last core, the largest."""
    cores = enumerate_st_cores(s, t)
    n = len(cores)
    assert n == anderson_count(s, t)
    assert 24 * sum(map(size, cores)) == n * (s + t + 1) * (s - 1) * (t - 1)
    assert 24 * size(cores[-1]) == (s * s - 1) * (t * t - 1)


def test_enumerated_cores_are_plain_partitions():
    """Each core is wrapped without its check, but is a Partition like any
    other: the one field, equality and hash."""
    assert Partition.__slots__ == Partition._fields == ("parts",)
    for s, t in ((4, 9), (7, 5)):
        for core in enumerate_st_cores(s, t):
            assert type(core) is Partition and not hasattr(core, "__dict__")
            assert core == Partition(core.parts)
            assert hash(core) == hash(Partition(core.parts))


def test_enumeration_near_its_cap_is_fast_and_small():
    """(2, 4471) has 2,236 cores of up to 2,235 rows, summing 2.5 million
    parts, and sizes up to Kane's 2,498,730: the buckets are keyed by the sizes
    that occur, not laid out for every size up to the bound."""
    with within(10, "enumerate_st_cores(2, 4471)"), peak_memory() as peak:
        cores = enumerate_st_cores(2, 4471)
    assert len(cores) == anderson_count(2, 4471) == 2236
    assert size(cores[-1]) == (2**2 - 1) * (4471**2 - 1) // 24
    assert peak.bytes < 40 * 2**20


def _runner_gap_scan(s, t):
    """The s-sets of the (s,t)-cores by the runner-gap tree, walked
    recursively: the gap walk's witness, independent of the library.

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


def test_count_by_runner_multipliers_equals_anderson_and_the_runner_gap_scan():
    """The count over runner multipliers against Anderson's closed form, with
    t = 1 and s > t among the pairs, and against the runner-gap tree, whose
    s-sets are distinct; then at pairs whose C(s+t-1, s-1) multisets no scan
    could list."""
    for s in range(2, 41):
        for t in range(1, 41):
            if math.gcd(s, t) == 1:
                assert count_st_cores(s, t) == anderson_count(s, t), (s, t)
    for s in range(2, 10):
        for t in range(1, 13):
            if math.gcd(s, t) == 1:
                scanned = _runner_gap_scan(s, t)
                assert count_st_cores(s, t) == len(set(scanned)) == len(scanned), (s, t)
    for s, t in ((11, 13), (12, 13), (30, 31), (100, 101)):
        assert count_st_cores(s, t) == anderson_count(s, t), (s, t)


def test_scan_is_refused_beyond_its_cap():
    """The count adds s residue counts per value of {0..t} and multiset size
    1..s-1: (t+1)(s-1)s units.  It runs in the cheaper of the two orders, so
    its price is symmetric in s and t, and it is refused on the call, before
    any list is built."""
    assert count_st_cores(2, 4473) == count_st_cores(4473, 2) == 2237
    assert count_st_cores(215, 216) == anderson_count(215, 216)
    for (s, t), text in {
        (216, 217): f"core count of {218 * 215 * 216} units of work exceeds the cap of 10000000",
        (217, 216): f"core count of {218 * 215 * 216} units of work exceeds the cap of 10000000",
        (4, 6): "(4, 6) must be coprime",
        (1, 3): "need s >= 2, got 1",
        (3, 0): "need t >= 1, got 0",
    }.items():
        with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
            count_st_cores(s, t)
    # priced on its output, 2,237 cores of at most 2,236 rows, the enumeration admits them
    assert len(enumerate_st_cores(2, 4473)) == anderson_count(2, 4473) == 2237


def test_enumeration_refuses_what_the_scan_refuses_with_the_same_text():
    cases = {
        (4, 6): "(4, 6) must be coprime",
        (1, 3): "need s >= 2, got 1",
        (3, 0): "need t >= 1, got 0",
        (2, 10**7 + 1): "abacus span of 10000001 positions exceeds the cap of 10000000",
    }
    for (s, t), text in cases.items():
        for call in (enumerate_st_cores, kappa):
            with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
                call(s, t)
    # the enumeration's work is one unit per core plus one per row, at most one row per gap
    for (s, t), work in {
        (30, 31): math.comb(61, 30) // 61 * (29 * 30 // 2 + 1),
        (12, 13): math.comb(25, 12) // 25 * (11 * 12 // 2 + 1),
    }.items():
        with pytest.raises(DomainError, match=f"^enumeration of {work} units of work exceeds the cap of 10000000$"):
            enumerate_st_cores(s, t)
    # and it admits, in either order of the pair, what its price allows
    for s, t in ((11, 13), (2, 4473), (100, 3), (3, 100)):
        assert len(enumerate_st_cores(s, t)) == anderson_count(s, t), (s, t)
    assert enumerate_st_cores(2000, 1) == [P()]


def test_gap_walk_equals_rhomboid_scan():
    """The walk over the gap poset against the runner-gap scan of the
    rhomboid, core by core; its largest core is the tip's core, built from
    the tip's s-set."""
    for s in range(2, 10):
        for t in range(1, 13):
            if math.gcd(s, t) == 1:
                scanned = (_partition_from_first_gaps(els, s) for els in _runner_gap_scan(s, t))
                walked = enumerate_st_cores(s, t)
                assert walked == sorted(scanned, key=lambda p: (size(p), p.parts)), (s, t)
                assert walked[-1] == kappa(s, t), (s, t)


def _semigroup_gaps(s, t):
    """The positive integers not of the form as + bt with a, b >= 0."""
    return set(range(1, s * t)) - {a * s + b * t for a in range(t) for b in range(s)}


def _first_column_hooks(parts):
    n = len(parts)
    return {part + n - i for i, part in enumerate(parts, start=1)}


@pytest.mark.parametrize(
    "s,t",
    [(2, 3), (3, 4), (5, 7), (7, 12), (9, 10), (13, 21), (31, 50), (40, 41), (64, 95), (101, 102), (200, 201)],
)
def test_kappa_first_column_hooks_are_the_gaps_of_the_semigroup(s, t):
    """The first-column hook lengths of kappa(s, t) are the gaps of <s,t>
    (Anderson 2002)."""
    gaps = _semigroup_gaps(s, t)
    parts = kappa(s, t).parts
    assert _first_column_hooks(parts) == gaps
    assert len(parts) == len(gaps) == (s - 1) * (t - 1) // 2


def test_scanned_cores_have_hook_sets_that_are_order_ideals_of_the_gaps():
    """Every core of the runner-gap scan has first-column hooks that are gaps of
    <s,t>, closed under h -> h-s and h -> h-t while positive, and no two
    share them (Anderson 2002): the scan and the gap walk meet only at the
    partitions."""
    for s in range(2, 10):
        for t in range(1, 13):
            if math.gcd(s, t) != 1:
                continue
            gaps = _semigroup_gaps(s, t)
            ideals = set()
            for elements in _runner_gap_scan(s, t):
                hooks = _first_column_hooks(_partition_from_first_gaps(elements, s).parts)
                assert hooks <= gaps, (s, t, elements)
                assert all(h - d in hooks for h in hooks for d in (s, t) if h > d), (s, t, elements)
                ideals.add(frozenset(hooks))
            assert len(ideals) == anderson_count(s, t), (s, t)


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


def test_level_orbit_is_closed_from_the_minimiser_whatever_the_start():
    """A start above the size bound is not itself a member; from any member of
    the orbit of the empty core the closure is the one from the empty core."""
    assert level_orbit_up_to_size(3, 4, 0, start=P(3, 3, 2, 2, 1, 1)) == {P()}
    assert level_orbit_up_to_size(3, 4, 2, start=P(2, 1, 1)) == {P()}
    members = level_orbit_up_to_size(3, 4, 30)
    assert len(members) == 13
    for bound in range(31):
        expected = level_orbit_up_to_size(3, 4, bound)
        for lam in members:
            assert level_orbit_up_to_size(3, 4, bound, start=lam) == expected, (lam, bound)
    # a bound below the minimiser's size leaves nothing
    assert level_orbit_up_to_size(3, 4, -1) == set()


def test_orbit_closure_is_refused_once_its_visits_pass_the_cap(monkeypatch):
    """Each member is visited once, at s images of s entries: a closure of n
    members runs under a cap of n s^2, and under one unit less it stops at
    its last visit."""
    s, t, bound = 4, 5, 60
    orbit = level_orbit_up_to_size(s, t, bound)
    work = len(orbit) * s * s
    assert len(orbit) > 20
    monkeypatch.setattr(errors, "MAX_SCAN", work)
    assert level_orbit_up_to_size(s, t, bound) == orbit
    monkeypatch.setattr(errors, "MAX_SCAN", work - 1)
    with pytest.raises(DomainError, match=f"^orbit closure of {work} units of work exceeds the cap of {work - 1}$"):
        level_orbit_up_to_size(s, t, bound)


def test_large_orbit_closure_is_refused_in_bounded_time():
    with within(10, "level_orbit_up_to_size(12, 5, 400)"), pytest.raises(DomainError, match="^orbit closure of"):
        level_orbit_up_to_size(12, 5, 400)


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


def test_chain_is_a_chi_1_word():
    """Replaying the gallery walk's generators as a chi_1 descent word from
    its first point's s-set passes through the s-set of each later point."""
    rng = random.Random("chain word")
    starts = [(p, s, t) for s in range(2, 7) for t in range(1, 8) if math.gcd(s, t) == 1
              for p in rhomboid_points(s, t)]
    for s, t in ((7, 9), (8, 11), (9, 10), (10, 13), (11, 12)):
        starts += [(_seeded_rhomboid_point(rng, s, t), s, t) for _ in range(5)]
    for p, s, t in starts:
        chain = containment_chain(p, s, t)
        replay = orbits.OrbitDescentTrace(sset_of_point(chain.points[0]), 1, chain.gens).iter_steps()
        assert [q for _, q in replay] == [sset_of_point(q) for q in chain.points[1:]], (p, t)


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


def test_chain_cores_equal_rebuilt_cores_at_every_step():
    """On seeded rhomboid points at every pair of the benchmark's gallery
    workload, and on every rhomboid point of three pairs with t < s, each
    core grown along the walk is the core rebuilt from its point.  The steps
    include ones that move several beads and ones whose top tail bead
    becomes a new last row."""
    several = new_row = 0
    for s, t in [(7, 8), (7, 9), (9, 10), (9, 11), (11, 12), (11, 13), (13, 14), (13, 15), (5, 3), (7, 2), (7, 4)]:
        if t < s:
            starts = rhomboid_points(s, t)
        else:
            rng = random.Random(f"rebuilt:{s}:{t}")
            starts = [_seeded_rhomboid_point(rng, s, t) for _ in range(6)]
        for p in starts:
            chain = containment_chain(p, s, t)
            _assert_cores_are_rebuilt_cores(chain)
            for old, new in zip(chain.cores, chain.cores[1:]):
                # each moved bead adds one box to its row, or a new row of length 1
                grown = len(new) - len(old) + sum(a != b for a, b in zip(old.parts, new.parts))
                several += grown >= 2
                new_row += len(new) > len(old)
    assert several and new_row, (several, new_row)


def test_chain_raises_on_a_shrinking_step(monkeypatch):
    """With the walk aimed at the origin instead of the tip, its steps shrink the
    core, which Lemma 5.3 rules out for a walk to the tip; the walk raises."""
    monkeypatch.setattr(orbits, "tip", lambda s, t: origin(s))
    with pytest.raises(RuntimeError, match="Lemma 5.3"):
        containment_chain(tip(3, 4), 3, 4)


@pytest.mark.parametrize("aim, message", [
    ((-9, -8, 20), r"^gallery walk ended at \(0,1,2\), not at the tip \(-9,-8,20\)$"),
    ((-9, 4, 8), r"^gallery walk ended at \(-12,1,14\), not at the tip \(-9,4,8\)$"),
], ids=["stuck", "off-tip"])
def test_chain_raises_when_aimed_away_from_the_tip(aim, message, monkeypatch):
    """Aimed at a point that is not the tip, the walk from the origin ends
    elsewhere: where it started, with no generator to take, or after some
    steps.  The sort always ends, so each raises at the end of the walk,
    naming the point the walk stands at."""
    monkeypatch.setattr(orbits, "tip", lambda s, t: SPoint(aim))
    with pytest.raises(RuntimeError, match=message):
        containment_chain(origin(3), 3, 4)


def test_chain_is_refused_beyond_its_cap():
    """Refused before the walk: 10,660 walls from the origin at (40, 41), with
    cores of span up to 1,599; at (524289, 2) the wall count itself, priced
    at s bitlen(s) = 20 * 524,289 units; and at (201, 40001) the count's
    lower bound, read after its one sort, 269,316,600 of the origin's
    269,331,650 walls."""
    with pytest.raises(DomainError, match="gallery walk across 10660 walls"):
        containment_chain(origin(40), 40, 41)
    with pytest.raises(DomainError, match=f"^wall count of 10485780 units of work exceeds the cap of {errors.MAX_SCAN}$"):
        containment_chain(origin(524289), 524289, 2)
    with pytest.raises(DomainError,
                       match=f"^gallery walk of at least 269316600 units of work exceeds the cap of {errors.MAX_SCAN}$"):
        containment_chain(origin(201), 201, 40001)


@pytest.mark.parametrize("s, t, p", [(5000, 1, origin(5000)), (5001, 2, tip(5001, 2))], ids=["origin", "tip"])
def test_chain_of_no_walls_is_walked_at_large_s(s, t, p):
    """A walk with no step is admitted however large s is: from the origin at
    t = 1, where W0 = 0 and nothing is counted, and from the tip at t = 2,
    where W0 passes the cap and the count, in O(s log s), finds no wall."""
    chain = containment_chain(p, s, t)
    assert len(chain) == 0
    assert chain.points == (tip(s, t),)
    assert chain.cores[-1] == kappa(s, t)


def _pairwise_walls(p, s, t):
    """The walls between a dominant point and the tip, pair by pair: the
    sum over a < b of |floor(t(b - a)/s) - floor((p_b - p_a)/s)|."""
    goal, coords = tip(s, t).coords, p.coords
    return sum(abs((goal[b] - goal[a]) // s - (coords[b] - coords[a]) // s) for a, b in combinations(range(s), 2))


def _origin_walls(s, t):
    """W0 = sum over d = 1..s-1 of (s - d) floor(td/s)."""
    return sum((s - d) * (t * d // s) for d in range(1, s))


def test_chain_length_is_the_pairwise_wall_count():
    """The walk's word is the sort of the class-ordered vector, one wall per
    step: its length is the pairwise wall count, on seeded rhomboid points
    at s = 7..30, and never more than the origin's count W0."""
    for s in range(7, 31):
        for t in (s + 1, s + 2):
            if math.gcd(s, t) == 1:
                rng = random.Random(f"walls:{s}:{t}")
                for _ in range(3):
                    p = fold_to_dominant(_seeded_rhomboid_point(rng, s, t))
                    walls = _pairwise_walls(p, s, t)
                    assert len(containment_chain(p, s, t)) == walls <= _origin_walls(s, t), (s, t, p)


def test_chain_refusal_names_the_exact_wall_count(monkeypatch):
    """Under a cap one unit below walls * (s + (s-1)t) the walk is refused,
    naming its pairwise wall count, and at that cap it is walked: on the
    seeded points of the test above that have a wall, each of which the
    origin's price W0 * (s + (s-1)t) sends to the count."""
    refused = 0
    for s in range(7, 31):
        for t in (s + 1, s + 2):
            if math.gcd(s, t) == 1:
                rng = random.Random(f"walls:{s}:{t}")
                for _ in range(3):
                    p = fold_to_dominant(_seeded_rhomboid_point(rng, s, t))
                    walls = _pairwise_walls(p, s, t)
                    if walls:
                        work = walls * (s + (s - 1) * t)
                        monkeypatch.setattr(errors, "MAX_SCAN", work - 1)
                        with pytest.raises(DomainError, match=f"^gallery walk across {walls} walls of {work} units"):
                            containment_chain(p, s, t)
                        monkeypatch.setattr(errors, "MAX_SCAN", work)
                        assert len(containment_chain(p, s, t)) == walls, (s, t, p)
                        refused += 1
    assert refused >= 60, refused


def test_chain_from_origin_crosses_the_origins_walls():
    """From the origin every pair a < b sits one apart per step, so the walk
    crosses W0 walls, at every coprime pair with s <= 30 and t < 40."""
    for s in range(2, 31):
        for t in range(1, 40):
            if math.gcd(s, t) == 1:
                assert len(containment_chain(origin(s), s, t)) == _origin_walls(s, t), (s, t)


def test_chain_counts_walls_exactly_beyond_the_origins_price():
    """At (40, 41) the origin's 10,660 walls pass the cap, so the walls are
    counted pair by pair: a seeded point near the tip is walked, and its cores
    are the cores of its points, while the origin is refused."""
    s, t = 40, 41
    assert _origin_walls(s, t) == 10660
    assert _origin_walls(s, t) * (s + (s - 1) * t) > errors.MAX_SCAN
    rng = random.Random("near-tip:40:41")
    m = rng.randrange(1, s)
    # the tip with its gap at m narrowed from t to t - s = 1, shifted back to sum s(s-1)/2:
    # only the m(s - m) pairs across the gap move their floor, by one each
    p = SPoint(tuple(x + s - m - s * (j >= m) for j, x in enumerate(tip(s, t).coords)))
    assert in_rhomboid(p, t)
    chain = containment_chain(p, s, t)
    assert len(chain) == _pairwise_walls(p, s, t) == m * (s - m)
    assert chain.points[-1] == tip(s, t)
    _assert_cores_are_rebuilt_cores(chain)
    with pytest.raises(DomainError, match="^gallery walk across 10660 walls"):
        containment_chain(origin(s), s, t)
