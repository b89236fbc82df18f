"""Beta-numbers, the s-runner abacus, fast cores, and the Q(lambda) bijection.

Conventions, pinned by the worked golden value Q((5,2,2,1)) = {5,-4,2,-2,9}:
runner j carries the integers congruent to j mod s, positions increase DOWN
each runner, and the "highest unoccupied position" is therefore the minimal
integer on the runner that carries no bead.

A partition's bead set is {lambda_i - i : i = 1..n} together with the
regular tail -(n+1), -(n+2), ...  Core extraction repacks each runner by
bead counting instead of simulating single slides; the two agree because
sliding preserves per-runner bead counts above any fixed floor.

``q_set``, ``core`` and ``is_s_core`` all read every row once, to count the
beads on each runner.  From 512 rows up and for s <= 24 the count is a few
C-level passes over one byte per row: lambda_i mod s, plus -i mod s added
in one big-int addition (each byte sum is at most 2s - 2 < 256, so none
carries), folded mod s by ``translate`` and counted by s ``bytes.count``
calls.  On smaller inputs, or larger s, a plain loop over the rows is
cheaper and is used instead; the choice depends on n and s alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add, mod

from .errors import DomainError, _read_ints, _trusted, check_int, check_s_set, check_span
from .partitions import Partition


@dataclass(frozen=True)
class BetaSet:
    """Canonical finite encoding of the beta-number sequence.

    ``heads`` lists lambda_i - i for the n positive parts; the implicit tail
    is -(n+1), -(n+2), ...  Canonical means no zero part is encoded, i.e.
    the last head is at least 1 - n.
    """

    heads: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.heads)
        if not {int}.issuperset(map(type, self.heads)):
            check_int(next(a for a in self.heads if type(a) is not int), "beta heads")
        if any(a <= b for a, b in zip(self.heads, self.heads[1:])):
            raise DomainError(f"beta heads must be strictly decreasing: {self.heads}")
        if n and self.heads[-1] < 1 - n:
            raise DomainError("beta heads run into the regular tail")


@dataclass(frozen=True)
class SSet:
    """s integers, pairwise incongruent mod s, summing to s(s-1)/2."""

    s: int
    elements: frozenset[int]

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


def sset_from_text(text: str, s: int) -> SSet:
    return make_sset(s, _read_ints(text, "s-set text", "[]"))


def beta_set(p: Partition) -> BetaSet:
    """heads = (lambda_i - i) over the positive parts."""
    return BetaSet(tuple(part - i for i, part in enumerate(p.parts, start=1)))


def partition_from_beta_set(b: BetaSet) -> Partition:
    """Inverse of beta_set: lambda_i = beta_i + i."""
    return Partition(tuple(head + i for i, head in enumerate(b.heads, start=1)))


def _packed_first_gaps(p: Partition, s: int) -> list[int]:
    """First gap per runner after packing all beads upwards.

    On runner r the packed beads occupy every position below some boundary;
    the boundary is recovered from the bead count: (top tail position on the
    runner) + s * (heads on the runner + 1).

    Row i puts its bead lambda_i - i on runner (lambda_i mod s + (-i mod s))
    mod s.  From 512 rows up, and for s <= 24, the runners are counted in
    C-level byte passes instead of one Python step per row: byte i - 1 holds
    lambda_i mod s, one big-int addition adds the periodic bytes -i mod s
    (each byte sum is at most 2s - 2 < 256, so no byte carries into the
    next), one ``translate`` folds every byte mod s, and s ``bytes.count``
    calls read off the runners.  The passes cost a few microseconds to set
    up and then about s/2 ns per row for the counts, so the loop stays where
    it is cheaper: below 512 rows, where the set-up is not repaid, and above
    s = 24, where the counts cost as much as the passes save.
    """
    check_int(s, "s", 1)
    check_span(s - 1)  # s first gaps in distinct classes span at least s - 1
    parts = p.parts
    n = len(parts)
    if n >= 512 and s <= 24:
        counts = _runner_counts_by_bytes(parts, s)
    else:
        counts = [0] * s
        for i, part in enumerate(parts, start=1):
            counts[(part - i) % s] += 1
    top = -(n + 1)
    return [top - ((top - r) % s) + s * (counts[r] + 1) for r in range(s)]


def _runner_counts_by_bytes(parts, s: int) -> list[int]:
    """The number of beads lambda_i - i on each runner, by the byte passes of
    ``_packed_first_gaps``; exact for 1 <= s <= 128, where 2s - 2 < 256."""
    n = len(parts)
    shifts = (bytes(range(s - 1, -1, -1)) * (n // s + 1))[:n]
    sums = int.from_bytes(bytes(map(mod, parts, repeat(s))), "little") + int.from_bytes(shifts, "little")
    runners = sums.to_bytes(n, "little").translate((bytes(range(s)) * (256 // s + 1))[:256])
    return list(map(runners.count, range(s)))


def _partition_from_first_gaps(gaps, s: int) -> Partition:
    """Rebuild the partition whose packed abacus has the given first gaps (any
    collection of s, one per class), collecting its beads runner by runner."""
    floor = min(gaps)
    beads = []
    for g in gaps:
        beads += range(g - s, floor - 1, -s)
    if floor + len(beads) != 0:
        raise RuntimeError("first-gap data does not describe a charge-0 abacus")
    beads.sort(reverse=True)
    # the distinct beads above floor = -len(beads) give weakly decreasing
    # parts b_i + i >= 1; callers bound the span, hence the size
    return _trusted(Partition, parts=tuple(map(add, beads, range(1, len(beads) + 1))))


def core(p: Partition, s: int) -> Partition:
    """The s-core, by per-runner bead repacking."""
    return _partition_from_first_gaps(_packed_first_gaps(p, s), s)


def is_s_core(p: Partition, s: int) -> bool:
    """Abacus size identity: repacking gives the s-core, so p is one iff nothing shrank."""
    return _core_size(s, _packed_first_gaps(p, s)) == sum(p.parts)


def q_set(p: Partition, s: int) -> SSet:
    """Q(lambda): the highest unoccupied position on each runner of an s-core."""
    check_int(s, "s", 2)
    elements = frozenset(_packed_first_gaps(p, s))
    if _core_size(s, elements) != sum(p.parts):
        raise DomainError(f"{p} is not a {s}-core")
    # the packed first gaps of an s-core: one per runner, and charge 0 fixes the sum
    return _trusted(SSet, s=s, elements=elements)


def core_from_s_set(q: SSet) -> Partition:
    """The unique s-core lambda with q_set(lambda, s) = q."""
    check_span(max(q.elements) - min(q.elements))
    return _partition_from_first_gaps(q.elements, q.s)


def size_from_s_set(q: SSet) -> int:
    """|lambda| for the s-core with Q(lambda) = q, without building it."""
    return _core_size(q.s, q.elements)


def _core_size(s: int, elements) -> int:
    """Writing each element as r + s*c_r, the size of the s-core works out to
    (sum of squares of the elements minus sum of squares of {0..s-1}) / 2s."""
    num = sum(a * a for a in elements) - (s - 1) * s * (2 * s - 1) // 6
    if num % (2 * s):
        raise RuntimeError("inconsistent s-set size computation")
    return num // (2 * s)
