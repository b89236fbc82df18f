import operator
import random
import sys
import threading
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, strategies as st

from stcores import DomainError, abacus
from conftest import sset_from_text
from stcores.errors import MAX_SIZE
from stcores.abacus import (
    _PROGRESSION_ROWS,
    BetaSet,
    _packed_first_gaps,
    _runner_bytes,
    beta_set,
    core,
    core_from_s_set,
    is_s_core,
    make_sset,
    partition_from_beta_set,
    q_set,
    size_from_s_set,
    sset_to_text,
)
from stcores.partitions import (
    Partition,
    brute_core,
    conjugate,
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


def test_beta_sets_are_valid_beta_sets():
    """beta_set builds its value unchecked; every one of a partition of at
    most 12 boxes passes the check and rebuilds equal."""
    for p in partitions_up_to(12):
        b = beta_set(p)
        assert BetaSet(b.heads) == b


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
    """s-sets r + s*c_r (sum of c_r = 0) for s = 2..13 and a few larger s on
    both sides of the byte-count bound s <= 29 of _packed_first_gaps, from 0
    to about 10^6 boxes."""
    rng = random.Random("builder")
    for s in (*range(2, 14), 20, 24, 25, 29, 30, 40, 64, 65, 100):
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
        assert q_set(lam, s) == q
        sizes.append(size(lam))
        # lam is an s-core but in general not an (s+1)-core
        assert core(lam, s + 1) == _position_scan_core(_packed_first_gaps(lam, s + 1), s + 1)
    assert min(sizes) == 0 and max(sizes) > 10**6
    # both builders at their rule: the beads are sorted below c s^2 rows and
    # laid out as row progressions from c s^2 up
    rng = random.Random("builder-rule")
    for s in (2, 3, 5, 7, 11, 13, 29, 30, 64):
        for n in (_PROGRESSION_ROWS * s * s + d for d in (-1, 0, 1)):
            q, lam = _core_with_rows(n, s, rng)
            assert len(lam.parts) == n
            assert lam == _position_scan_core(q.elements, s), (s, n)


def _ssets_at_the_rule():
    """Seeded s-sets whose cores lie on both sides of the builder's rule of
    c s^2 rows, for s = 2..13, 29, 30 and 64: of c s^2 / 2 to 2 c s^2 rows,
    and spread as the random runner multipliers of _seeded_ssets."""
    rng = random.Random("conjugate")
    for s in (*range(2, 14), 29, 30, 64):
        rule = _PROGRESSION_ROWS * s * s
        for n in (rule // 2, rule - 1, rule, 2 * rule):
            yield _core_with_rows(n, s, rng)[0]
        for k in (s, 2 * s, 4 * s):
            c = [rng.randint(-k, k) for _ in range(s - 1)]
            c.append(-sum(c))
            yield make_sset(s, [r + s * c_r for r, c_r in enumerate(c)])


def test_conjugate_core_is_the_core_of_the_reflected_s_set():
    """Reflecting the abacus, x -> -1 - x, swaps beads and gaps and turns
    rows into columns: the core of {s - 1 - a : a in q} is the conjugate of
    the core of q.  The conjugate is read by counting the parts, not by the
    builder, so this holds whichever path builds either core."""
    sides = Counter()
    for q in _ssets_at_the_rule():
        s = q.s
        lam = core_from_s_set(q)
        mirror = core_from_s_set(make_sset(s, [s - 1 - a for a in q.elements]))
        assert mirror == conjugate(lam), q
        for p in (lam, mirror):
            sides[len(p.parts) >= _PROGRESSION_ROWS * s * s] += 1
    assert sides[True] > 20 and sides[False] > 20


def _progression_cores():
    """Seeded s-cores that the builder lays out as row progressions: of
    c s^2 to 20 c s^2 rows, for s = 2, 3, 7, 13 and 29, and the seeded s-sets
    above the rule."""
    rng = random.Random("part-values")
    for s in (2, 3, 7, 13, 29):
        for n in (_PROGRESSION_ROWS * s * s, 4 * _PROGRESSION_ROWS * s * s, 20 * _PROGRESSION_ROWS * s * s):
            yield _core_with_rows(n, s, rng)[0]
    for q in _seeded_ssets():
        if -min(q.elements) >= _PROGRESSION_ROWS * q.s * q.s:
            yield q


def test_part_values_cap_on_both_sides(monkeypatch):
    """With the cap moved to each core's first row L, so that L is cap - 1,
    cap and cap + 1, the progressions slice their parts from the shared list
    (L < cap) or from a range (L >= cap), and the core is the same; the list
    never grows past the cap, and holds i at index i."""
    sides = Counter()
    for q in _progression_cores():
        s = q.s
        expected = _position_scan_core(q.elements, s)
        top = expected.parts[0]
        for cap in (top + 1, top, top - 1):
            monkeypatch.setattr(abacus, "_PART_CAP", cap)
            monkeypatch.setattr(abacus, "_part_values", [0])
            lam = core_from_s_set(q)
            assert lam == expected, (q, cap)
            values = abacus._part_values
            assert len(values) == (cap if top < cap else 1), (q, cap)
            sides[top < cap] += 1
        assert values == list(range(len(values)))
    assert sides[True] > 20 and sides[False] > 40


def test_equal_parts_are_one_object_across_cores():
    """Cores built apart from first gaps, by core_from_s_set and by core,
    hold one object for each equal part below the cap."""
    rng = random.Random("shared-parts")
    n = 20 * _PROGRESSION_ROWS * 49
    q, lam = _core_with_rows(n, 7, rng)
    # a 7-hook added along the first row is removed again by core, which packs
    # the runner counts and rebuilds lam from the packed first gaps
    hooked = core(Partition((lam.parts[0] + 7,) + lam.parts[1:]), 7)
    assert hooked == lam and all(map(operator.is_, hooked.parts, lam.parts))
    other = _core_with_rows(n, 7, rng)[1]
    first = {part: part for part in lam.parts}
    common = [part for part in other.parts if part in first and part > 256]  # ints to 256 are cached
    assert len(common) > 100 and all(part is first[part] for part in common)
    assert max(lam.parts[0], other.parts[0]) < abacus._PART_CAP


def test_part_values_grow_safely_under_threads(monkeypatch):
    """Four threads, more than the cores of a small box, build the same
    7-cores in order of their first rows, from an empty list, each core by all
    four at once, so that each growth races the other threads' reads and
    growths of the same span: every core equals the position scan, and the
    list published last holds i at index i."""
    rng = random.Random("threads")
    cases = []
    for n in range(_PROGRESSION_ROWS * 49, 40 * _PROGRESSION_ROWS * 49, 3 * 49):
        q, _ = _core_with_rows(n, 7, rng)
        cases.append((q, _position_scan_core(q.elements, 7)))
    cases.sort(key=lambda case: case[1].parts[0])
    interval = sys.getswitchinterval()
    errors = []

    def build(order):
        try:
            for q, expected in order:
                together.wait()
                if core_from_s_set(q) != expected:
                    errors.append(q)
        except Exception as exc:
            errors.append(exc)

    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for _ in range(10):
            monkeypatch.setattr(abacus, "_part_values", [0])
            together = threading.Barrier(4, timeout=60)
            threads = [threading.Thread(target=build, args=(cases,)) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            values = abacus._part_values
            assert len(values) > 1000 and values == list(range(len(values)))
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[:3]


def test_part_names_grow_safely_under_threads(monkeypatch):
    """The text twin of test_part_values_grow_safely_under_threads: four
    threads write the same 7-cores by ``_core_text``, in order of their
    first rows, from one name, each core by all four at once: every text is
    the oracle's join, and the list published last holds str(i) at index i."""
    rng = random.Random("name-threads")
    cases = []
    for n in range(_PROGRESSION_ROWS * 49, 40 * _PROGRESSION_ROWS * 49, 3 * 49):
        q, _ = _core_with_rows(n, 7, rng)
        expected = _position_scan_core(q.elements, 7)
        cases.append((q, ",".join(map(str, expected.parts)), expected.parts[0]))
    cases.sort(key=lambda case: case[2])
    interval = sys.getswitchinterval()
    errors = []

    def write(order):
        try:
            for q, expected, _ in order:
                together.wait()
                if abacus._core_text(q.elements, 7) != expected:
                    errors.append(q)
        except Exception as exc:
            errors.append(exc)

    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for _ in range(10):
            monkeypatch.setattr(abacus, "_part_names", ["0"])
            together = threading.Barrier(4, timeout=60)
            threads = [threading.Thread(target=write, args=(cases,)) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            names = abacus._part_names
            assert len(names) > 1000 and names == list(map(str, range(len(names))))
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[:3]


def _runner_bytes_by_rows(parts, s):
    """Oracle for _runner_bytes: the runner of each bead lambda_i - i, one row at a time."""
    return bytes((part - i) % s for i, part in enumerate(parts, start=1))


def _runner_counts_by_rows(parts, s):
    """Oracle for the bead count of each runner, one bead lambda_i - i at a time."""
    counts = Counter((part - i) % s for i, part in enumerate(parts, start=1))
    return [counts[r] for r in range(s)]


def _first_gaps_by_rows(p, s):
    """Oracle for _packed_first_gaps: stack each runner's beads on the
    runner's highest tail bead."""
    gaps = []
    for r, count in enumerate(_runner_counts_by_rows(p.parts, s)):
        x = -(len(p.parts) + 1)
        while x % s != r:
            x -= 1
        gaps.append(x + s * (count + 1))
    return gaps


def _is_core_by_rows(p, s):
    """Oracle for is_s_core: every head h has a bead at h - s, a head or the tail."""
    heads = set(beta_set(p).heads)
    return all(h - s in heads or h - s < -len(p.parts) for h in heads)


def _core_with_rows(n, s, rng):
    """A seeded s-core of exactly n rows, s >= 2: the one whose s-set has
    least element -n (its rebuild lays out -n beads above that floor)."""
    low = -n
    c = [-((r - low - 1) // s) for r in range(s)]  # the least c_r with r + s*c_r > low
    c[low % s] = (low - low % s) // s  # the one element at low
    others = [r for r in range(s) if r != low % s]
    for _ in range(-sum(c)):  # every c_r <= 0 so far; raise random runners to sum 0
        c[rng.choice(others)] += 1
    q = make_sset(s, [r + s * c_r for r, c_r in enumerate(c)])
    assert min(q.elements) == low
    return q, core_from_s_set(q)


@pytest.mark.parametrize("s", [1, 2, 3, 7, 13, 24, 25, 29, 30, 63, 64, 65, 128, 129, 300])
def test_runner_counts_are_exact_across_the_path_bound(s):
    """_packed_first_gaps, is_s_core and q_set against the per-row oracles,
    at 255, 256 and 257 rows (the byte passes start at 256 rows and s <= 29)
    and 5000 rows, on non-cores with parts up to 10^15 and on s-cores.  The
    byte passes are also compared directly wherever they are exact (s <= 29),
    so a miscount on either path fails."""
    rng = random.Random(f"paths-{s}")
    for n in (255, 256, 257, 5000):
        top = min(10**15, MAX_SIZE // n)
        cases = [Partition(tuple(sorted((rng.randint(1, top) for _ in range(n)), reverse=True)))]
        if s >= 2:
            q, lam = _core_with_rows(n, s, rng)
            assert len(lam.parts) == n
            cases.append(lam)
        for p in cases:
            gaps = _first_gaps_by_rows(p, s)
            assert _packed_first_gaps(p, s) == gaps, (n, s)
            if s <= 29:
                assert _runner_bytes(p.parts, s) == _runner_bytes_by_rows(p.parts, s), (n, s)
            is_core = _is_core_by_rows(p, s)
            assert is_s_core(p, s) == is_core, (n, s)
            if s >= 2 and is_core:
                assert q_set(p, s).elements == frozenset(gaps)
            elif s >= 2:
                with pytest.raises(DomainError, match="-core$"):
                    q_set(p, s)
        assert not _is_core_by_rows(cases[0], s)  # the random partitions are not cores
        if s >= 2:
            assert q_set(lam, s) == q


@pytest.mark.parametrize("s", [1, 2, 7, 13, 24, 29, 30])
def test_runner_counts_are_exact_at_every_plane_width(s):
    """Largest parts just below and just above each 2^(8k), so that the byte
    passes read every count of planes from 1 to 8, with every byte of a
    plane up to 255.  They are compared with the per-row runner bytes directly
    wherever they are exact (s <= 29, where 9(s - 1) < 256), and
    _packed_first_gaps on both sides of its switch to the loop above that
    bound, on partitions whose first row sets the width."""
    rng = random.Random(f"planes-{s}")
    for k in range(1, 9):
        for top in (2 ** (8 * k) - 1, 2 ** (8 * k)):
            if top >= 2**64:  # beyond the 8-byte packing; no partition has such a row
                continue
            width = (top.bit_length() + 7) // 8
            for n in (256, 1000):
                # a quarter of the rows at the top, where every plane's bytes are largest
                parts = [top] * (n // 4) + [rng.randint(1, top) for _ in range(n - n // 4)]
                parts = tuple(sorted(parts, reverse=True))
                if s <= 29:
                    assert _runner_bytes(parts, s) == _runner_bytes_by_rows(parts, s), (s, width, n)
                if top <= MAX_SIZE // 2:
                    rest = sorted((rng.randint(1, min(top, MAX_SIZE // (2 * n))) for _ in range(n - 1)), reverse=True)
                    p = Partition((top, *rest))
                    assert _packed_first_gaps(p, s) == _first_gaps_by_rows(p, s), (s, width, n)
            assert width == k + (top == 2 ** (8 * k))


def test_byte_sums_would_carry_beyond_the_bound():
    """At s = 31 a first row whose eight planes each read 30 mod s, with the
    shift -1 mod s = 30, sums to 270 and carries into the next row's byte:
    the byte passes misread it, and _packed_first_gaps, which takes the
    loop above s = 29, does not."""
    s = 31
    part = sum((30 * pow(256, -k, s) % s) << (8 * k) for k in range(8))
    p = Partition((part,) + (1,) * 299)
    assert _runner_bytes(p.parts, s) != _runner_bytes_by_rows(p.parts, s)
    assert _packed_first_gaps(p, s) == _first_gaps_by_rows(p, s)


@given(partition_parts, st.integers(2, 6))
def test_q_set_round_trip_on_cores(p, s):
    lam = core(p, s)
    assert core_from_s_set(q_set(lam, s)) == lam


def _one_bead_on_the_runner_of_minus_n(n, s, k, rng):
    """A non-core of n rows whose runners are all full from the tail up to
    their top bead, except the runner of -n, which holds one bead, at
    -n + k*s: position -n is never a bead, so that bead can slide down."""
    low = -n % s
    counts = [0] * s
    others = [r for r in range(s) if r != low]
    for _ in range(n - 1):
        counts[rng.choice(others)] += 1
    beads = [(r + n) % s - n + s * j for r in others for j in range(counts[r])] + [-n + k * s]
    beads.sort(reverse=True)  # n distinct beads, all at least 1 - n
    return Partition(tuple(b + i for i, b in enumerate(beads, start=1)))


def _adversarial_non_cores(lam, s, rng):
    """Near misses of the s-core lam, each still of len(lam.parts) rows: one
    rim hook of length s added at the top, the bottom row one box shorter or
    longer, and a lone bead on the runner of -n."""
    parts = lam.parts
    n = len(parts)
    yield Partition((parts[0] + s,) + parts[1:])
    if parts[-1] > 1:
        yield Partition(parts[:-1] + (parts[-1] - 1,))
    if n == 1 or parts[-1] < parts[-2]:
        yield Partition(parts[:-1] + (parts[-1] + 1,))
    for k in (1, 2, n // s + 1):
        yield _one_bead_on_the_runner_of_minus_n(n, s, k, rng)


@pytest.mark.parametrize("s", range(2, 32))
def test_top_bead_read_matches_the_per_row_oracles(s):
    """q_set, is_s_core and the refusal text against the per-row oracles at
    255, 256 and 257 rows, on both sides of the byte path's bounds (256 rows,
    s <= 29): on a seeded s-core, on a random partition, and on the near
    misses of the core that a wrong count implied by the top beads would
    let through."""
    rng = random.Random(f"top-beads-{s}")
    for n in (255, 256, 257):
        q, lam = _core_with_rows(n, s, rng)
        assert is_s_core(lam, s) and q_set(lam, s) == q
        assert q.elements == frozenset(_first_gaps_by_rows(lam, s))
        random_rows = Partition(tuple(sorted((rng.randint(1, 10**6) for _ in range(n)), reverse=True)))
        near_misses = list(_adversarial_non_cores(lam, s, rng))
        for p in [random_rows] + near_misses:
            assert len(p.parts) == n
            is_core = _is_core_by_rows(p, s)
            assert is_s_core(p, s) == is_core, (n, s, p.parts[:3], p.parts[-3:])
            if is_core:
                assert q_set(p, s).elements == frozenset(_first_gaps_by_rows(p, s))
            else:
                with pytest.raises(DomainError) as refusal:
                    q_set(p, s)
                assert str(refusal.value) == f"{p} is not a {s}-core"
        # the hook on top, the runner of -n and the random rows are never cores
        assert not any(_is_core_by_rows(p, s) for p in [random_rows, near_misses[0], *near_misses[-3:]])


def test_q_set_and_is_s_core_never_sum_the_parts(monkeypatch):
    """Neither read adds up the parts to check the size: with a sum that
    refuses the parts, both still answer, on the loop and on the byte path,
    for cores and for refusals."""
    import builtins

    from stcores import abacus

    rng = random.Random("no-sum")
    seen = set()

    def sum_but_not_the_parts(values, *start):
        assert not any(values is p.parts for p in seen), "summed the parts"
        return builtins.sum(values, *start)

    monkeypatch.setattr(abacus, "sum", sum_but_not_the_parts, raising=False)
    for n, s in ((100, 7), (300, 7), (300, 31)):
        _, lam = _core_with_rows(n, s, rng)
        non_core = Partition((lam.parts[0] + s,) + lam.parts[1:])
        seen.update((lam, non_core))
        assert is_s_core(lam, s) and not is_s_core(non_core, s)
        assert q_set(lam, s).elements == frozenset(_first_gaps_by_rows(lam, s))
        with pytest.raises(DomainError, match=r"-core$"):
            q_set(non_core, s)
    with pytest.raises(AssertionError, match="summed the parts"):
        sum_but_not_the_parts(lam.parts)  # the guard does refuse them


@pytest.mark.parametrize("s", range(1, 15))
def test_core_and_is_s_core_return_at_once_when_no_hook_reaches_s(s, monkeypatch):
    """When lambda_1 + l(lambda) - 1 < s no hook has length s: core returns p
    itself and is_s_core True without reading a runner.  Both agree with the
    hook oracles on every partition of at most 12 boxes."""
    from stcores import abacus

    short = []
    for p in partitions_up_to(12):
        assert core(p, s) == brute_core(p, s), (p, s)
        assert is_s_core(p, s) == is_s_core_by_hooks(p, s), (p, s)
        if not p.parts or p.parts[0] + len(p.parts) - 1 < s:
            short.append(p)
    monkeypatch.setattr(abacus, "_packed_first_gaps", lambda p, s: pytest.fail("counted the runners"))
    monkeypatch.setattr(abacus, "_top_bead_gaps", lambda p, s: pytest.fail("read the runners"))
    for p in short:
        assert core(p, s) is p and is_s_core(p, s)
    assert short and (s < 13) == (len(short) < len(list(partitions_up_to(12))))


def test_entry_checks_keep_their_order():
    """s is checked as an integer, then for the span of its s first gaps, and
    only then is the partition read, also where no hook reaches s."""
    non_core, small = P(6, 6, 2, 1), P(1)
    span = r"^abacus span of 10000001 positions exceeds the cap of 10000000$"
    for f in (core, is_s_core, q_set):
        for p in (non_core, small):
            with pytest.raises(DomainError, match=r"^s must be an integer, got 2\.0$"):
                f(p, 2.0)
            with pytest.raises(DomainError, match=span):
                f(p, 10**7 + 2)
    with pytest.raises(DomainError, match=r"^need s >= 2, got 1$"):
        q_set(non_core, 1)
    with pytest.raises(DomainError, match=r"^6,6,2,1 is not a 5-core$"):
        q_set(non_core, 5)
