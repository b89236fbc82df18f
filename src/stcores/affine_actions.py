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
from .alcoves import Hyperplane, SPoint, _moved_point, reflect
from .errors import DomainError, _read_ints, _trusted, check_coords, check_int, check_pair, check_scan
from .partitions import Partition

Word = tuple[int, ...]


def psi_gen(i: int, t: int, p: SPoint) -> SPoint:
    """Generator of the level-t reflection action: the reflection in the i-th wall of
    the fundamental alcove.  For 1 <= i < s that is H_{i,i+1}^0, which swaps the i-th
    and (i+1)-th coordinates; for i = 0 it is the affine wall pushed out to level t,
    H_{1,s}^t, which maps (p_1,...,p_s) to (p_s - st, p_2, ..., p_{s-1}, p_1 + st)."""
    check_int(i, "generator index", 0, p.s - 1)
    check_int(t, "t", 1)
    return reflect(p, Hyperplane(i, i + 1, 0) if i else Hyperplane(1, p.s, t))


def _t_cycle(elements, s: int, t: int) -> list[int]:
    """An s-set listed along the classes 0, t, ..., (s-1)t mod s, for gcd(s, t) = 1:
    generator i of chi_t moves t from entry i-1 to entry i, and index -1 wraps."""
    by_res = {a % s: a for a in elements}
    return [by_res[k * t % s] for k in range(s)]


def chi_gen(i: int, t: int, p: SPoint) -> SPoint:
    """Generator of the second level-t action: add t to the coordinate
    congruent to (i-1)t mod s and subtract t from the one congruent to it."""
    s = p.s
    check_int(i, "generator index", 0, s - 1)
    check_pair(s, t)
    r_up, r_down = (i - 1) * t % s, i * t % s
    coords = list(p.coords)
    for idx, c in enumerate(coords):
        if c % s == r_up:
            coords[idx] = c + t
        elif c % s == r_down:
            coords[idx] = c - t
    return _moved_point(coords)


def chi_on_sset(i: int, t: int, q: SSet) -> SSet:
    """chi_t transported through forgetting coordinate order."""
    s = q.s
    check_int(i, "generator index", 0, s - 1)
    check_pair(s, t)
    cycle = _t_cycle(q.elements, s, t)
    a, b = cycle[i - 1], cycle[i]
    check_coords((a + t, b - t))  # a user-supplied t can push the moved pair past the bound
    # chi_t: a + t and b - t trade residue classes (b = a + t mod s) and keep the sum
    return _trusted(SSet, s=s, elements=(q.elements - {a, b}) | {a + t, b - t})


def chi_on_core(i: int, t: int, lam: Partition, s: int) -> Partition:
    """chi_t as an action on s-cores, via Q(lambda)."""
    return core_from_s_set(chi_on_sset(i, t, q_set(lam, s)))


def apply_word(word: Word, action: str, t: int, p: SPoint) -> SPoint:
    """Apply a word of generators left to right under psi or chi; each
    generator moves or looks at every one of the s coordinates."""
    if action == "psi":
        check_int(t, "t", 1)
        gen = psi_gen
    elif action == "chi":
        check_pair(p.s, t)
        gen = chi_gen
    else:
        raise DomainError(f"action must be 'psi' or 'chi', got {action!r}")
    check_scan(len(word) * p.s, f"word of {len(word)} generators")
    for i in word:
        p = gen(i, t, p)
    return p


def parse_word(text: str) -> Word:
    """Space-separated generator indices, e.g. '0 2 1 0'."""
    return tuple(_read_ints(text, "word", sep=None))


def alpha(p: SPoint, t: int) -> SPoint:
    """The affine map rotating the dilated simplex: (p_s - (s-1)t, p_1 + t, ...)."""
    check_int(t, "t", 1)
    s = p.s
    return _moved_point((p.coords[-1] - (s - 1) * t,) + tuple(c + t for c in p.coords[:-1]))
