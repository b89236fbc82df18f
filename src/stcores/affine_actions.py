"""Two level-t actions of the affine symmetric group on s-points.

psi_t sends the generators to reflections in the walls of the fundamental
alcove (with the affine wall pushed out to level t); chi_t moves t between
the two coordinates in prescribed residue classes.  chi_t descends to s-sets
and hence to s-cores; psi_t does not.

Words are plain tuples of generator indices and are applied left to right;
there is no reduced-word machinery here.
"""

from __future__ import annotations

from .abacus import SSet, core_from_s_set, q_set
from .alcoves import SPoint, _moved_point
from .errors import DomainError, _read_ints, _trusted, check_coords, check_int, check_pair, check_scan
from .partitions import Partition

Word = tuple[int, ...]


def _psi_move(i: int, t: int, coords: tuple[int, ...], s: int) -> tuple[int, ...]:
    """psi_gen's move on an s-point's coordinates, unchecked; for i = 0, c[i - 1] is the last."""
    c = list(coords)
    c[i - 1], c[i] = (c[i], c[i - 1]) if i else (c[0] + s * t, c[-1] - s * t)
    return tuple(c)


def psi_gen(i: int, t: int, p: SPoint) -> SPoint:
    """Generator i of psi_t, the reflection in the i-th wall of the fundamental alcove: H_{i,i+1}^0
    swaps p_i and p_{i+1} (i >= 1), and H_{1,s}^t sends p_1, p_s to p_s - st, p_1 + st (i = 0)."""
    check_int(i, "generator index", 0, p.s - 1)
    check_int(t, "t", 1)
    return _moved_point(_psi_move(i, t, p.coords, p.s))


def _chi_move(i: int, t: int, coords: tuple[int, ...], s: int) -> tuple[int, ...]:
    """chi_gen's move on an s-point's coordinates, unchecked."""
    c, classes = list(coords), [x % s for x in coords]
    c[classes.index((i - 1) * t % s)] += t
    c[classes.index(i * t % s)] -= t
    return tuple(c)


def chi_gen(i: int, t: int, p: SPoint) -> SPoint:
    """Generator of the second level-t action: add t to the coordinate
    congruent to (i-1)t mod s and subtract t from the one congruent to it."""
    check_int(i, "generator index", 0, p.s - 1)
    check_pair(p.s, t)
    return _moved_point(_chi_move(i, t, p.coords, p.s))


def chi_on_sset(i: int, t: int, q: SSet) -> SSet:
    """chi_t transported through forgetting coordinate order."""
    s = q.s
    check_int(i, "generator index", 0, s - 1)
    check_pair(s, t)
    moved = _chi_move(i, t, tuple(q.elements), s)
    check_coords(moved)  # a user-supplied t can push the moved pair past the bound
    return _trusted(SSet, s=s, elements=frozenset(moved))  # chi_t keeps the classes distinct and the sum


def chi_on_core(i: int, t: int, lam: Partition, s: int) -> Partition:
    """chi_t as an action on s-cores, via Q(lambda)."""
    return core_from_s_set(chi_on_sset(i, t, q_set(lam, s)))


def apply_word(word: Word, action: str, t: int, p: SPoint) -> SPoint:
    """Apply a word of generators left to right under psi or chi, priced at s per generator as
    a conservative bound; t is checked once, and each letter and its image at that letter."""
    s = p.s
    if action == "psi":
        check_int(t, "t", 1)
        move = _psi_move
    elif action == "chi":
        check_pair(s, t)
        move = _chi_move
    else:
        raise DomainError(f"action must be 'psi' or 'chi', got {action!r}")
    check_scan(len(word) * s, f"word of {len(word)} generators")
    coords = p.coords
    for i in word:
        check_int(i, "generator index", 0, s - 1)
        coords = move(i, t, coords, s)
        check_coords(coords)
    return _trusted(SPoint, coords=coords)  # each move keeps the classes distinct and the sum


def parse_word(text: str) -> Word:
    """Space-separated generator indices, e.g. '0 2 1 0'."""
    return tuple(_read_ints(text, "word", sep=None))


def alpha(p: SPoint, t: int) -> SPoint:
    """The affine map rotating the dilated simplex: (p_s - (s-1)t, p_1 + t, ...)."""
    check_int(t, "t", 1)
    s = p.s
    return _moved_point((p.coords[-1] - (s - 1) * t,) + tuple(c + t for c in p.coords[:-1]))
