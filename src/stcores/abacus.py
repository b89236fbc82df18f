"""Beta-numbers, the s-runner abacus, fast cores, and the Q(lambda) bijection.

Conventions, pinned by the worked golden value Q((5,2,2,1)) = {5,-4,2,-2,9}:
runner j carries the integers congruent to j mod s, positions increase DOWN
each runner, and the "highest unoccupied position" is therefore the minimal
integer on the runner that carries no bead.

A partition's bead set is {lambda_i - i : i = 1..n} together with the
regular tail -(n+1), -(n+2), ...  Core extraction repacks each runner by
bead counting instead of simulating single slides; the two agree because
sliding preserves per-runner bead counts above any fixed floor.

Every core is rebuilt from its first gaps, one per runner, by
``_partition_from_first_gaps``.  Below 4 s^2 rows it sorts the beads;
from there up it writes the rows of each band between two consecutive
gaps as interleaved arithmetic progressions, which cost 11-55 % as much
per row from 20 s^2 rows up.  The choice depends on the row count n and s
alone.  The progressions slice their parts out of ``_part_values``, one
process-wide list of the int objects 0..L, grown on demand to at most 2^16
entries: an equal part of every core they build is one object, and a row
costs a pointer in place of a pointer and a new int.

``q_set`` and ``is_s_core`` read an s-core by the top bead of each runner
(``_top_bead_gaps``); ``core`` counts the beads on each runner, because the
core of a non-core is packed from the counts.  Both ``core`` and
``is_s_core`` return at once when no hook reaches s.  From 256 rows up and
for s <= 29 the rows are read in C-level passes over byte planes, one runner
byte per row (``_runner_bytes``): a runner's top row is one ``find`` on
those bytes and its count one ``bytes.count``.  On fewer rows a plain loop
over the rows is cheaper, and on larger s the byte sums could carry, so the
loop is used there instead; the choice depends on n and s alone.
"""

from __future__ import annotations

import sys
from functools import cache
from operator import add, sub

from .errors import DomainError, _Value, _set, _trusted, check_int, check_s_set, check_span
from .partitions import Partition


class BetaSet(_Value):
    """Canonical finite encoding of the beta-number sequence.

    ``heads`` lists lambda_i - i for the n positive parts; the implicit tail
    is -(n+1), -(n+2), ...  Canonical means no zero part is encoded, i.e.
    the last head is at least 1 - n.
    """

    __slots__ = ("heads",)

    def __init__(self, heads: tuple[int, ...] = ()) -> None:
        _set(self, "heads", heads)
        self.__post_init__()

    def __post_init__(self) -> None:
        n = len(self.heads)
        if not {int}.issuperset(map(type, self.heads)):
            check_int(next(a for a in self.heads if type(a) is not int), "beta heads")
        if any(a <= b for a, b in zip(self.heads, self.heads[1:])):
            raise DomainError(f"beta heads must be strictly decreasing: {self.heads}")
        if n and self.heads[-1] < 1 - n:
            raise DomainError("beta heads run into the regular tail")


class SSet(_Value):
    """s integers, pairwise incongruent mod s, summing to s(s-1)/2."""

    __slots__ = ("s", "elements")

    def __init__(self, s: int, elements: frozenset[int]) -> None:
        _set(self, "s", s)
        _set(self, "elements", elements)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_s_set(self.s, self.elements)

    def sorted_elements(self) -> tuple[int, ...]:
        return tuple(sorted(self.elements))

    def __str__(self) -> str:
        return sset_to_text(self)


def make_sset(s: int, elements) -> SSet:
    return SSet(s, frozenset(elements))


def sset_to_text(q: SSet) -> str:
    return "[" + ",".join(str(a) for a in q.sorted_elements()) + "]"


def beta_set(p: Partition) -> BetaSet:
    """heads = (lambda_i - i) over the positive parts."""
    # weakly decreasing parts give strictly falling heads, and a last part >= 1
    # keeps the last head, lambda_n - n, above the tail -(n+1), -(n+2), ...
    return _trusted(BetaSet, heads=tuple(part - i for i, part in enumerate(p.parts, start=1)))


def partition_from_beta_set(b: BetaSet) -> Partition:
    """Inverse of beta_set: lambda_i = beta_i + i."""
    return Partition(tuple(head + i for i, head in enumerate(b.heads, start=1)))


def _packed_first_gaps(p: Partition, s: int) -> list[int]:
    """First gap per runner after packing all beads upwards, for a checked s.

    On runner r every position below base_r = (r + n) mod s - n, its lowest
    position >= -n, holds a tail bead, and packing stacks its row beads from
    base_r up: the first gap is base_r + s * (row beads on the runner).  Only
    ``core`` needs the counts.  From 256 rows up, and for s <= 29, s
    ``bytes.count`` calls on the runner bytes count them: per row, 5 ns to
    pack, 1.5 ns per byte plane and 0.5-3 ns per count, after a few
    microseconds of set-up; the loop: 40-55 ns.
    """
    parts = p.parts
    n = len(parts)
    if n >= 256 and s <= 29:
        counts = list(map(_runner_bytes(parts, s).count, range(s)))
    else:
        counts = [0] * s
        for i, part in enumerate(parts, start=1):
            counts[(part - i) % s] += 1
    return [(r + n) % s - n + s * count for r, count in enumerate(counts)]


def _top_bead_gaps(p: Partition, s: int) -> tuple[list[int], bool]:
    """(first gaps, is an s-core), by the top bead of each runner, for a checked s.

    The n row beads lie at or above 1 - n, so on runner r between base_r =
    (r + n) mod s - n, its lowest position >= -n, and its top bead b.  Take
    b + s, or base_r on a runner with no row bead: it bounds the packed first
    gap from above, with equality iff the runner is full.  The packed gaps
    sum to s(s - 1)/2 (charge 0), so p is an s-core iff these do, and then
    they are Q(lambda).  A runner's top bead is on its first row: one
    ``find`` (a memchr) on the runner bytes from 256 rows up and for s <= 29,
    otherwise a scan up from the last row.
    """
    parts = p.parts
    n = len(parts)
    gaps = [(r + n) % s - n for r in range(s)]
    if n >= 256 and s <= 29:
        for r, i in enumerate(map(_runner_bytes(parts, s).find, range(s))):
            if i >= 0:
                gaps[r] = parts[i] - i - 1 + s
    else:
        for b in map(sub, reversed(parts), range(n - s, -s, -1)):  # lambda_i - i + s, i = n..1
            gaps[b % s] = b
    return gaps, sum(gaps) == s * (s - 1) // 2


@cache
def _plane_table(s: int, k: int) -> bytes:
    """b -> b * 256^k mod s: byte k of an integer, read mod s."""
    m = pow(256, k, s)
    return bytes(b * m % s for b in range(256))


def _runner_bytes(parts, s: int) -> bytes:
    """Byte i - 1 is the runner of the bead lambda_i - i, for n >= 1
    non-increasing parts below 2^64.

    The parts are packed once as native 8-byte integers; plane k, byte k of
    every part, is read mod s through ``_plane_table``, for each of the
    ceil(bitlen(parts[0]) / 8) planes a part can fill.  The planes and the
    periodic bytes -i mod s are added as big ints, one byte per row: with w
    planes each byte sum is at most (w + 1)(s - 1), so for 1 <= s <= 29,
    where 9(s - 1) < 256, no byte carries into the next.  One ``translate``
    folds each sum mod s.
    """
    import array  # a C extension that takes 0.16 ms to load, so start-up does not import it

    n = len(parts)
    packed = array.array("Q", parts)
    if sys.byteorder == "big":
        packed.byteswap()  # so that byte k of row i is byte 8i + k
    raw = packed.tobytes()
    sums = int.from_bytes((bytes(range(s - 1, -1, -1)) * (n // s + 1))[:n], "little")
    for k in range((parts[0].bit_length() + 7) // 8):
        sums += int.from_bytes(raw[k::8].translate(_plane_table(s, k)), "little")
    return sums.to_bytes(n, "little").translate(_plane_table(s, 0))


# The int objects 0..L, _part_values[i] == i: the row progressions slice their
# parts out of this one list, so an equal part of every core they build is one
# object.  It grows on demand to at most _PART_CAP entries, about 2.6 MB.
_PART_CAP = 1 << 16
_part_values = [0]


def _values_through(top: int):
    """A sequence with values[i] == i for 0 <= i <= top: the shared list,
    grown if need be, or a ``range`` once top reaches the cap."""
    global _part_values
    values = _part_values
    if top < len(values):
        return values
    if top >= _PART_CAP:
        return range(top + 1)
    # the longer list is built aside and published in one assignment, so a
    # reader on another thread holds one whole list, never a half-grown one
    values = values[:]
    values += range(len(values), top + 1)
    _part_values = values
    return values


# A core of at least this many rows per s^2 is laid out as row progressions.
# Against the sorted beads they cost 1.03-1.07x at 3 s^2 rows for s = 2, 3, 5,
# where a call's fixed cost still weighs, and at 4 s^2 rows 0.93-1.02x for
# s = 2, 3 and 0.52-0.90x for s = 5..64 (Python 3.11.7 on a 2-CPU x86 box).
_PROGRESSION_ROWS = 4


def _partition_from_first_gaps(gaps, s: int) -> Partition:
    """Rebuild the partition whose packed abacus has the given first gaps (any
    collection of s, one per class); it has n = -min(gaps) rows.

    Below 4 s^2 rows the beads are listed runner by runner, sorted and offset
    by their row index: 70-220 ns per row at 3-4 s^2 rows for s = 2..64, the
    more the smaller s, and 80 bytes per row at peak.  From 4 s^2 rows up
    they are laid out as row progressions.  Let G_0 > ... > G_(s-1) = -n be
    the gaps in order.  In the band G_k <= x < G_(k-1) only the k runners of
    G_0 .. G_(k-1) hold beads, one in every s positions each, so the band's
    rows interleave as k progressions in which the row steps by k and the
    part by k - s.  Each is one strided slice of ``values`` assigned into the
    rows, or one item for a progression of one row: no bead list, no sort,
    no addition and no new int per row.  ``values[i] == i``: it is the shared
    ``_part_values`` while the first row, the largest part, is below
    ``_PART_CAP`` = 2^16, and a ``range`` from there up.  On the list a row
    costs a pointer in the row list and one in the parts tuple, 16 bytes at
    peak; on the range a new int besides, 48 bytes.  That is O(s^2)
    Python-level steps per core, which the rule bounds by O(n), and C-level
    work per row: 39-156 ns per row at 4 s^2 rows and 19-36 ns at 20 s^2 rows
    for s = 2..64, and 11-20 ns at 10^5 rows for s = 3..64 (41 ns at s = 2,
    whose 10^5-row core reaches the cap), on a box where the sorted beads
    take 90-124 ns per row at 10^5 rows.
    """
    floor = min(gaps)
    n = -floor
    if n < _PROGRESSION_ROWS * s * s:
        beads = []
        for g in gaps:
            beads += range(g - s, floor - 1, -s)
        if len(beads) != n:
            raise RuntimeError("first-gap data does not describe a charge-0 abacus")
        beads.sort(reverse=True)
        # the distinct beads above floor = -n give weakly decreasing parts
        # b_i + i >= 1; callers bound the span, hence the size
        return _trusted(Partition, parts=tuple(map(add, beads, range(1, n + 1))))
    top = sorted(gaps, reverse=True)
    values = _values_through(top[0] - s + 1)  # the first row's part, the largest
    rows = [0] * n
    start = 0  # the first row of the band
    for k in range(1, s):
        h = top[k - 1] - 1  # the band's top position
        span = h - top[k]
        step = k - s
        row = start
        # the band's top bead on each of its k runners lies d = (h - g) mod s
        # below h, and its rows begin in the order of d
        for d in sorted([(h - g) % s for g in top[:k]]):
            if d > span:
                break
            m = (span - d) // s + 1  # the runner's beads in the band
            part = h - d + row + 1
            if m == 1:
                rows[row] = values[part]
            else:
                # the last part is at least 1, so the slice stops at a
                # non-negative index
                rows[row:row + k * m:k] = values[part:part + (m - 1) * step - 1:step]
            start += m
            row += 1
    if start != n:  # more beads than rows fail in the assignments above
        raise RuntimeError("first-gap data does not describe a charge-0 abacus")
    return _trusted(Partition, parts=tuple(rows))


def _hooks_below(p: Partition, s: int) -> bool:
    """Check s, then whether the longest hook of p, lambda_1 + l(lambda) - 1,
    is shorter than s, so that p is its own s-core."""
    check_int(s, "s", 1)
    check_span(s - 1)  # s first gaps in distinct classes span at least s - 1
    parts = p.parts
    return not parts or parts[0] + len(parts) <= s


def core(p: Partition, s: int) -> Partition:
    """The s-core, by per-runner bead repacking."""
    return p if _hooks_below(p, s) else _partition_from_first_gaps(_packed_first_gaps(p, s), s)


def is_s_core(p: Partition, s: int) -> bool:
    """Whether p is an s-core, read from the top bead of each runner."""
    return _hooks_below(p, s) or _top_bead_gaps(p, s)[1]


def q_set(p: Partition, s: int) -> SSet:
    """Q(lambda): the highest unoccupied position on each runner of an s-core."""
    check_int(s, "s", 2)
    check_span(s - 1)
    gaps, is_core = _top_bead_gaps(p, s)
    if not is_core:
        raise DomainError(f"{p} is not a {s}-core")
    # one gap per runner, summing to s(s - 1)/2: an s-set
    return _trusted(SSet, s=s, elements=frozenset(gaps))


def core_from_s_set(q: SSet) -> Partition:
    """The unique s-core lambda with q_set(lambda, s) = q."""
    check_span(max(q.elements) - min(q.elements))
    return _partition_from_first_gaps(q.elements, q.s)


def size_from_s_set(q: SSet) -> int:
    """|lambda| for the s-core with Q(lambda) = q, without building it.

    Writing each element as r + s*c_r, the size works out to (sum of squares
    of the elements minus sum of squares of {0..s-1}) / 2s."""
    s = q.s
    num = sum(a * a for a in q.elements) - (s - 1) * s * (2 * s - 1) // 6
    if num % (2 * s):
        raise RuntimeError("inconsistent s-set size computation")
    return num // (2 * s)
