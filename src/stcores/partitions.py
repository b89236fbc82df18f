"""Partitions, Young diagrams, rim hooks and the brute-force core oracle.

A partition is stored as its weakly decreasing tuple of positive parts; the
empty tuple is the empty partition.  Boxes are 1-based (row, col) pairs with
row growing downwards (English notation).

The rim-hook machinery here is deliberately literal: hooks are found by
sliding a window along the rim path and testing the removal, and
``brute_core`` removes the first hook over and over.  It is the oracle that
the fast abacus implementation is checked against, so it must not share any
machinery with it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterator
from functools import total_ordering
from itertools import chain, repeat
from operator import le

from .errors import MAX_SIZE, DomainError, _Value, _read_ints, _set, _write_ints, check_int

Box = namedtuple("Box", "row col")


@total_ordering
class Partition(_Value):
    """A partition as a weakly decreasing tuple of positive integers,
    ordered as its tuple of parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()) -> None:
        _set(self, "parts", parts)
        self.__post_init__()

    def __post_init__(self) -> None:
        total = 0
        prev = None
        for part in self.parts:
            if type(part) is not int or part < 1:  # a bool or a float would not print back
                raise DomainError(f"parts must be positive integers, got {part!r}")
            if prev is not None and part > prev:
                raise DomainError(f"parts must be weakly decreasing: {self.parts}")
            prev = part
            total += part
        if total > MAX_SIZE:
            raise DomainError("partition size exceeds the 63-bit guard")

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return to_text(self)

    def __lt__(self, other):
        return self.parts < other.parts if other.__class__ is self.__class__ else NotImplemented


def from_text(text: str) -> Partition:
    """Parse the canonical comma-separated form; empty string is ()."""
    return Partition(tuple(_read_ints(text, "partition text")))


def to_text(p: Partition) -> str:
    """The canonical comma-separated form, by one C-level % format."""
    return _write_ints(p.parts)


class _PartNames(dict):
    """part -> str(part), filled on first use; it holds the distinct parts seen."""

    def __missing__(self, part: int) -> str:
        name = self[part] = str(part)
        return name


def to_text_memo() -> Callable[[Partition], str]:
    """A ``to_text`` for the many partitions of one printout.

    The cores of one printout share most of their part values (a descent
    trace of 600,000 rows has a few thousand), so each distinct part is
    converted once, into a dict that only ever holds the parts printed, and
    each row is one C-level join of memo lookups.  It stays beside
    ``to_text``'s format for the printouts of many given partitions,
    ``enumerate`` and ``chain``, because there a row's lookup and share of
    the join cost less than the format's parse of "%d" and its digits: on
    the 16,796 cores of (10, 11), 53-57 against 81-89 ns per row, and on the
    386 cores of the gallery walk from the origin of (13, 15), 43 against
    59-63 ns (Python 3.11.7, 2-CPU x86 box).
    """
    name, join = _PartNames().__getitem__, ",".join

    def text(p: Partition) -> str:
        return join(map(name, p.parts))

    return text


def size(p: Partition) -> int:
    return sum(p.parts)


def contains(outer: Partition, inner: Partition) -> bool:
    """Young-diagram containment: every row of inner fits inside outer."""
    return len(inner.parts) <= len(outer.parts) and all(map(le, inner.parts, outer.parts))


def conjugate(p: Partition) -> Partition:
    """The transpose, in one pass up from the last row: where row i's part
    passes the columns listed so far, each new column is i boxes tall."""
    parts = p.parts
    columns = []
    for i in range(len(parts), 0, -1):
        grown = parts[i - 1] - len(columns)
        if grown > 0:
            columns += repeat(i, grown)
    return Partition(tuple(columns))


def boxes(p: Partition) -> Iterator[Box]:
    for i, part in enumerate(p.parts, start=1):
        for j in range(1, part + 1):
            yield Box(i, j)


def hook_lengths(p: Partition) -> dict[Box, int]:
    """Hook length (arm + leg + 1) of every box."""
    conj = conjugate(p).parts
    return {
        Box(i, j): (part - j) + (conj[j - 1] - i) + 1
        for i, part in enumerate(p.parts, start=1)
        for j in range(1, part + 1)
    }


def is_s_core_by_hooks(p: Partition, s: int) -> bool:
    """True iff no hook length is divisible by s."""
    check_int(s, "s", 1)
    return all(h % s != 0 for h in hook_lengths(p).values())


def rim(p: Partition) -> set[Box]:
    """Boxes (i,j) of the diagram with (i+1,j+1) outside it."""
    out: set[Box] = set()
    for i, (part, lo) in enumerate(zip(p.parts, p.parts[1:] + (0,)), start=1):
        out.update(Box(i, j) for j in range(max(1, lo), part + 1))
    return out


def rim_path(p: Partition) -> list[Box]:
    """The rim ordered from (1, first part) down-left to (rows, 1).

    Consecutive boxes share an edge and the antidiagonal j - i drops by one
    per step, so connected rim portions are exactly windows of this path.
    """
    if not p.parts:
        return []
    path = [Box(1, p.parts[0])]
    rows = len(p.parts)
    while path[-1] != Box(rows, 1):
        i, j = path[-1]
        if i < rows and p.parts[i] >= j:
            path.append(Box(i + 1, j))
        else:
            path.append(Box(i, j - 1))
    return path


class RimHook(_Value):
    """A removable rim hook: consecutive rim boxes whose removal is valid.

    Instances produced by ``removable_rim_hooks`` are pre-validated;
    ``remove_rim_hook`` re-validates against the partition it is applied to.
    """

    __slots__ = ("boxes",)

    def __init__(self, boxes: tuple[Box, ...]) -> None:
        _set(self, "boxes", boxes)

    def __len__(self) -> int:
        return len(self.boxes)


def _removal_result(p: Partition, hook_boxes: tuple[Box, ...]) -> Partition | None:
    """The partition left after removing the boxes, or None if not a valid removal."""
    by_row: dict[int, list[int]] = {}
    for i, j in hook_boxes:
        by_row.setdefault(i, []).append(j)
    rows = sorted(by_row)
    if rows != list(range(rows[0], rows[-1] + 1)):
        return None
    new_parts = list(p.parts)
    for i in rows:
        cols = sorted(by_row[i])
        # removal must strip a suffix of the row
        if cols != list(range(cols[0], cols[-1] + 1)) or cols[-1] != p.parts[i - 1]:
            return None
        new_parts[i - 1] = cols[0] - 1
    while new_parts and new_parts[-1] == 0:
        new_parts.pop()
    if any(new_parts[k] > new_parts[k - 1] for k in range(1, len(new_parts))):
        return None
    if any(part == 0 for part in new_parts):
        return None
    return Partition(tuple(new_parts))


def removable_rim_hooks(p: Partition, s: int) -> list[RimHook]:
    """All rim s-hooks, ordered by their start box (top-right end first)."""
    check_int(s, "s", 1)
    path = rim_path(p)
    hooks = []
    for start in range(len(path) - s + 1):
        window = tuple(path[start : start + s])
        if _removal_result(p, window) is not None:
            hooks.append(RimHook(window))
    return hooks


def remove_rim_hook(p: Partition, h: RimHook) -> Partition:
    """Remove a rim hook, validating it against p."""
    bad = next((b for b in h.boxes if type(b) is not Box), None)
    if bad is not None:  # a list would end the fit check below in a TypeError
        raise DomainError(f"hook boxes must be Box values, got {bad!r}")
    box_set = set(boxes(p))
    if not h.boxes or any(b not in box_set for b in h.boxes):
        raise DomainError("hook does not fit the partition")
    # Box(1.0, 1.0) and Box(True, True) fit as box (1, 1) does
    if not {int}.issuperset(map(type, chain.from_iterable(h.boxes))):
        check_int(next(c for c in chain.from_iterable(h.boxes) if type(c) is not int), "hook box coordinate")
    for a, b in zip(h.boxes, h.boxes[1:]):
        if (b.row - a.row, b.col - a.col) not in ((1, 0), (0, -1)):
            raise DomainError("hook boxes are not consecutive along the rim")
    result = _removal_result(p, h.boxes)
    if result is None:
        raise DomainError("removing the hook does not leave a Young diagram")
    return result


def brute_core(p: Partition, s: int) -> Partition:
    """The s-core by greedy repeated rim-hook removal (oracle implementation).

    Always removes the first hook in ``removable_rim_hooks`` order; the core
    is independent of the choice, so any fixed order is correct and this one
    makes the oracle deterministic.  ``removable_rim_hooks`` checks s.
    """
    while True:
        hooks = removable_rim_hooks(p, s)
        if not hooks:
            return p
        p = remove_rim_hook(p, hooks[0])


def addable_boxes(p: Partition) -> list[Box]:
    """Boxes that can be added leaving a Young diagram."""
    padded = p.parts + (0,)
    return [Box(1, padded[0] + 1)] + [
        Box(i, part + 1) for i, (above, part) in enumerate(zip(padded, padded[1:]), start=2) if above > part
    ]


def removable_boxes(p: Partition) -> list[Box]:
    """Boxes that can be removed leaving a Young diagram (rim 1-hooks)."""
    return [
        Box(i, part)
        for i, (part, below) in enumerate(zip(p.parts, p.parts[1:] + (0,)), start=1)
        if below < part
    ]


def boxes_of_residue(p: Partition, k: int, s: int, mode: str) -> set[Box]:
    """Addable or removable boxes whose residue (col - row) mod s equals k."""
    check_int(s, "s", 1)
    check_int(k, "residue", 0, s - 1)
    if mode == "addable":
        candidates = addable_boxes(p)
    elif mode == "removable":
        candidates = removable_boxes(p)
    else:
        raise DomainError(f"mode must be 'addable' or 'removable', got {mode!r}")
    return {b for b in candidates if (b.col - b.row) % s == k}


def toggle_residue(p: Partition, k: int, s: int) -> Partition:
    """Add all addable boxes of residue k, else remove all removable ones.

    Defined on s-cores only; an s-core never has addable and removable boxes
    of the same residue, so the two branches cannot clash.
    """
    if not is_s_core_by_hooks(p, s):
        raise DomainError("toggle_residue requires an s-core")
    to_add = boxes_of_residue(p, k, s, "addable")
    if to_add:
        new_parts = list(p.parts)
        for i, j in sorted(to_add):
            if i == len(new_parts) + 1:
                new_parts.append(j)
            else:
                new_parts[i - 1] = j
        return Partition(tuple(new_parts))
    new_parts = list(p.parts)
    for i, j in boxes_of_residue(p, k, s, "removable"):
        new_parts[i - 1] = j - 1
    while new_parts and new_parts[-1] == 0:
        new_parts.pop()
    return Partition(tuple(new_parts))


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, largest-part-first recursion; n is checked on the
    call, and the partitions are made as they are read."""
    check_int(n, "n", 0)

    def gen(remaining: int, cap: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    return (Partition(parts) for parts in gen(n, n if n else 1, ()))


def partitions_up_to(n: int) -> Iterator[Partition]:
    """All partitions of size 0..n, as partitions_of makes them."""
    check_int(n, "n", 0)
    return (p for m in range(n + 1) for p in partitions_of(m))
