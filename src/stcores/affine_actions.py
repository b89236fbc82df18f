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
from .alcoves import SPoint
from .errors import MAX_COORD, DomainError, _trusted, check_level, check_pair
from .partitions import Partition

Word = tuple[int, ...]


def _check_generator(i: int, s: int) -> None:
    if not 0 <= i < s:
        raise DomainError(f"generator index {i} out of range for s={s}")


def psi_gen(i: int, t: int, p: SPoint) -> SPoint:
    """Generator of the level-t reflection action.

    For 1 <= i < s the i-th and (i+1)-th coordinates swap; the 0 generator
    maps (p_1,...,p_s) to (p_s - st, p_2, ..., p_{s-1}, p_1 + st).
    """
    s = p.s
    _check_generator(i, s)
    check_level(t)
    coords = list(p.coords)
    if i == 0:
        coords[0], coords[-1] = coords[-1] - s * t, coords[0] + s * t
    else:
        coords[i - 1], coords[i] = coords[i], coords[i - 1]
    return SPoint(tuple(coords))


def _chi_residues(i: int, t: int, s: int) -> tuple[int, int]:
    check_pair(s, t)
    return ((i - 1) * t) % s, (i * t) % s


def chi_gen(i: int, t: int, p: SPoint) -> SPoint:
    """Generator of the second level-t action: add t to the coordinate
    congruent to (i-1)t mod s and subtract t from the one congruent to it."""
    s = p.s
    _check_generator(i, s)
    r_up, r_down = _chi_residues(i, t, s)
    coords = list(p.coords)
    for idx, c in enumerate(coords):
        if c % s == r_up:
            coords[idx] = c + t
        elif c % s == r_down:
            coords[idx] = c - t
    return SPoint(tuple(coords))


def chi_on_sset(i: int, t: int, q: SSet) -> SSet:
    """chi_t transported through forgetting coordinate order."""
    s = q.s
    _check_generator(i, s)
    r_up, r_down = _chi_residues(i, t, s)
    by_res = q.by_residue()
    a, b = by_res[r_up], by_res[r_down]
    if a + t > MAX_COORD or b - t < -MAX_COORD:
        # a user-supplied t can push the moved pair past the bound, and only it
        raise DomainError("coordinate overflow beyond the 63-bit guard")
    # chi_t: a + t and b - t trade residue classes (b = a + t mod s) and keep the sum
    return _trusted(SSet, s=s, elements=(q.elements - {a, b}) | {a + t, b - t})


def chi_on_core(i: int, t: int, lam: Partition, s: int) -> Partition:
    """chi_t as an action on s-cores, via Q(lambda)."""
    return core_from_s_set(chi_on_sset(i, t, q_set(lam, s)))


def apply_word(word: Word, action: str, t: int, p: SPoint) -> SPoint:
    """Apply a word of generators left to right under psi or chi."""
    if action == "psi":
        check_level(t)
        gen = psi_gen
    elif action == "chi":
        check_pair(p.s, t)
        gen = chi_gen
    else:
        raise DomainError(f"action must be 'psi' or 'chi', got {action!r}")
    for i in word:
        p = gen(i, t, p)
    return p


def parse_word(text: str) -> Word:
    """Space-separated generator indices, e.g. '0 2 1 0'."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise DomainError(f"malformed word: {text!r}") from exc


def alpha(p: SPoint, t: int) -> SPoint:
    """The affine map rotating the dilated simplex: (p_s - (s-1)t, p_1 + t, ...)."""
    check_level(t)
    s = p.s
    coords = (p.coords[-1] - (s - 1) * t,) + tuple(c + t for c in p.coords[:-1])
    return SPoint(coords)
