import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from stcores import DomainError
from stcores.abacus import (
    BetaSet,
    _packed_first_gaps,
    beta_set,
    core,
    core_from_s_set,
    is_s_core,
    make_sset,
    partition_from_beta_set,
    q_set,
    size_from_s_set,
    sset_from_text,
    sset_to_text,
)
from stcores.partitions import (
    Partition,
    brute_core,
    is_s_core_by_hooks,
    partitions_up_to,
    size,
)

partition_parts = st.lists(st.integers(1, 9), max_size=8).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True)))
)


def P(*parts):
    return Partition(parts)


def test_beta_set_examples():
    assert beta_set(P(6, 6, 2, 1)).heads == (5, 4, -1, -3)
    assert beta_set(P()).heads == ()
    assert beta_set(P(5, 2, 2, 1)).heads == (4, 0, -1, -3)


def test_partition_from_beta_set_examples():
    assert partition_from_beta_set(BetaSet((5, 4, -1, -3))) == P(6, 6, 2, 1)
    assert partition_from_beta_set(BetaSet(())) == P()
    with pytest.raises(DomainError):
        BetaSet((2, -1, -2, -5))  # fourth head collides with the tail
    with pytest.raises(DomainError):
        BetaSet((2, 2))


@given(partition_parts)
def test_beta_round_trip(p):
    assert partition_from_beta_set(beta_set(p)) == p


def test_core_examples():
    assert core(P(6, 6, 2, 1), 5) == P(5, 2, 2, 1)
    assert core(P(4, 2, 1, 1), 4) == P()
    assert core(P(3, 1, 1), 4) == P(3, 1, 1)


def test_is_s_core_examples():
    assert is_s_core(P(5, 2, 2, 1), 5)
    assert not is_s_core(P(6, 6, 2, 1), 5)
    assert is_s_core(P(), 7)


def test_q_set_examples():
    assert q_set(P(5, 2, 2, 1), 5).sorted_elements() == (-4, -2, 2, 5, 9)
    for s in (2, 3, 5):
        assert q_set(P(), s).sorted_elements() == tuple(range(s))
    assert q_set(P(3, 1, 1), 3).sorted_elements() == (-3, 1, 5)
    with pytest.raises(DomainError):
        q_set(P(6, 6, 2, 1), 5)  # not a 5-core
    with pytest.raises(DomainError):
        q_set(P(), 1)


def test_core_from_s_set_examples():
    assert core_from_s_set(make_sset(5, [5, -4, 2, -2, 9])) == P(5, 2, 2, 1)
    assert core_from_s_set(make_sset(4, range(4))) == P()
    assert core_from_s_set(make_sset(3, [-3, 1, 5])) == P(3, 1, 1)


def test_sset_validation_and_text():
    with pytest.raises(DomainError):
        make_sset(3, [0, 3, 0])  # congruent elements
    with pytest.raises(DomainError):
        make_sset(3, [0, 1, 5])  # wrong sum
    q = make_sset(5, [5, -4, 2, -2, 9])
    assert sset_to_text(q) == "[-4,-2,2,5,9]"
    assert sset_from_text("[-4,-2,2,5,9]", 5) == q
    with pytest.raises(DomainError):
        sset_from_text("-4,-2", 2)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6, 7])
def test_core_agrees_with_brute_small(s):
    for p in partitions_up_to(11):
        assert core(p, s) == brute_core(p, s)
        assert is_s_core(p, s) == is_s_core_by_hooks(p, s)
        assert (core(p, s) == p) == is_s_core(p, s)


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_all_small_ssets_round_trip(s):
    """q_set after core_from_s_set is the identity, over every s-set with
    elements in [-12, 12]."""
    residue_classes = [[x for x in range(-12, 13) if x % s == r] for r in range(s)]
    target = s * (s - 1) // 2
    count = 0
    for choice in product(*residue_classes):
        if sum(choice) != target:
            continue
        q = make_sset(s, choice)
        lam = core_from_s_set(q)
        assert q_set(lam, s) == q
        assert size_from_s_set(q) == size(lam)
        count += 1
    assert count > 10  # the scan is not vacuous


def _position_scan_core(gaps, s):
    """Oracle for the core builder: test every abacus position between the
    lowest and the highest first gap, from the top down, for a bead."""
    by_residue = {g % s: g for g in gaps}
    floor = min(gaps)
    beads = [x for x in range(max(gaps) - 1, floor - 1, -1) if x < by_residue[x % s]]
    assert floor + len(beads) == 0
    return Partition(tuple(b + i for i, b in enumerate(beads, start=1)))


def _seeded_ssets():
    """s-sets r + s*c_r (sum of c_r = 0) for s = 2..13, from 0 to about 10^6 boxes."""
    rng = random.Random("builder")
    for s in range(2, 14):
        for k in (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512):
            c = [rng.randint(-k, k) for _ in range(s - 1)]
            c.append(-sum(c))
            q = make_sset(s, [r + s * c_r for r, c_r in enumerate(c)])
            if size_from_s_set(q) <= 2 * 10**6:
                yield q


def test_builder_matches_position_scan():
    sizes = []
    for q in _seeded_ssets():
        s = q.s
        lam = core_from_s_set(q)
        assert lam == _position_scan_core(q.elements, s), q
        sizes.append(size(lam))
        # lam is an s-core but in general not an (s+1)-core
        assert core(lam, s + 1) == _position_scan_core(_packed_first_gaps(lam, s + 1), s + 1)
    assert min(sizes) == 0 and max(sizes) > 10**6


@given(partition_parts, st.integers(2, 6))
def test_q_set_round_trip_on_cores(p, s):
    lam = core(p, s)
    assert core_from_s_set(q_set(lam, s)) == lam
