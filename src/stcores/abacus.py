"""Beta-numbers, the s-runner abacus, fast cores, and the Q(lambda) bijection.

Conventions, pinned by the worked golden value Q((5,2,2,1)) = {5,-4,2,-2,9}:
runner j carries the integers congruent to j mod s, positions increase DOWN
each runner, and the "highest unoccupied position" is therefore the minimal
integer on the runner that carries no bead.

A partition's bead set is {lambda_i - i : i = 1..n} together with the
regular tail -(n+1), -(n+2), ...  Core extraction repacks each runner by
bead counting instead of simulating single slides; the two agree because
sliding preserves per-runner bead counts above any fixed floor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, check_s_set
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
        if any(a <= b for a, b in zip(self.heads, self.heads[1:])):
            raise DomainError(f"beta heads must be strictly decreasing: {self.heads}")
        if n and self.heads[-1] < 1 - n:
            raise DomainError("beta heads run into the regular tail")

    @property
    def n(self) -> int:
        return len(self.heads)


@dataclass(frozen=True)
class SSet:
    """s integers, pairwise incongruent mod s, summing to s(s-1)/2."""

    s: int
    elements: frozenset[int]

    def __post_init__(self) -> None:
        check_s_set(self.s, self.elements)

    def sorted_elements(self) -> tuple[int, ...]:
        return tuple(sorted(self.elements))

    def by_residue(self) -> dict[int, int]:
        return {a % self.s: a for a in self.elements}

    def __str__(self) -> str:
        return sset_to_text(self)


def make_sset(s: int, elements) -> SSet:
    return SSet(s, frozenset(elements))


def sset_to_text(q: SSet) -> str:
    return "[" + ",".join(str(a) for a in q.sorted_elements()) + "]"


def sset_from_text(text: str, s: int) -> SSet:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise DomainError(f"malformed s-set text: {text!r}")
    try:
        elements = [int(tok) for tok in text[1:-1].split(",")] if text[1:-1] else []
    except ValueError as exc:
        raise DomainError(f"malformed s-set text: {text!r}") from exc
    return make_sset(s, elements)


def beta_set(p: Partition) -> BetaSet:
    """heads = (lambda_i - i) over the positive parts."""
    return BetaSet(tuple(part - i for i, part in enumerate(p.parts, start=1)))


def partition_from_beta_set(b: BetaSet) -> Partition:
    """Inverse of beta_set: lambda_i = beta_i + i."""
    return Partition(tuple(head + i for i, head in enumerate(b.heads, start=1)))


def _packed_first_gaps(p: Partition, s: int) -> dict[int, int]:
    """First gap per runner after packing all beads upwards.

    On runner r the packed beads occupy every position below some boundary;
    the boundary is recovered from the bead count: (top tail position on the
    runner) + s * (heads on the runner + 1).
    """
    heads = [part - i for i, part in enumerate(p.parts, start=1)]
    n = len(heads)
    counts = [0] * s
    for b in heads:
        counts[b % s] += 1
    top = -(n + 1)
    gaps = {}
    for r in range(s):
        tail_top = top - ((top - r) % s)
        gaps[r] = tail_top + s * (counts[r] + 1)
    return gaps


def _partition_from_first_gaps(gaps: dict[int, int], s: int) -> Partition:
    """Rebuild the partition whose packed abacus has the given first gaps."""
    floor = min(gaps.values())
    beads = [x for x in range(floor, max(gaps.values())) if x < gaps[x % s]]
    if floor + len(beads) != 0:
        raise RuntimeError("first-gap data does not describe a charge-0 abacus")
    beads.sort(reverse=True)
    parts = []
    for i, b in enumerate(beads, start=1):
        part = b + i
        if part:
            parts.append(part)
    return Partition(tuple(parts))


def core(p: Partition, s: int) -> Partition:
    """The s-core, by per-runner bead repacking."""
    if s < 1:
        raise DomainError("s must be a positive integer")
    return _partition_from_first_gaps(_packed_first_gaps(p, s), s)


def is_s_core(p: Partition, s: int) -> bool:
    """Abacus criterion: every bead has a bead immediately above it."""
    if s < 1:
        raise DomainError("s must be a positive integer")
    heads = [part - i for i, part in enumerate(p.parts, start=1)]
    head_set = set(heads)
    tail_top = -(len(heads) + 1)
    return all(b - s in head_set or b - s <= tail_top for b in heads)


def q_set(p: Partition, s: int) -> SSet:
    """Q(lambda): the highest unoccupied position on each runner of an s-core."""
    if s < 2:
        raise DomainError("q_set needs s >= 2")
    if not is_s_core(p, s):
        raise DomainError(f"{p} is not a {s}-core")
    return make_sset(s, _packed_first_gaps(p, s).values())


def core_from_s_set(q: SSet) -> Partition:
    """The unique s-core lambda with q_set(lambda, s) = q."""
    return _partition_from_first_gaps(q.by_residue(), q.s)


def size_from_s_set(q: SSet) -> int:
    """|lambda| for the s-core with Q(lambda) = q, without building it.

    Writing each element as r + s*c_r, the size works out to
    (sum of squares of Q minus sum of squares of {0..s-1}) / 2s.
    """
    s = q.s
    num = sum(a * a for a in q.elements) - sum(r * r for r in range(s))
    if num % (2 * s):
        raise RuntimeError("inconsistent s-set size computation")
    return num // (2 * s)
