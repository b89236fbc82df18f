"""The space P^s: s-points, hyperplanes, reflections, alcoves and the rhomboid.

Everything is exact integer (or Fraction) arithmetic: side and crossing
decisions feed the gallery walk, where a single rounding error would derail
the construction.  Alcoves are never materialised as regions; the unique
s-point inside an alcove (equivalently its floor-vector key) is its identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .abacus import SSet, make_sset
from .errors import DomainError, check_level, check_pair, check_s_set

MAX_COORD = 2**62


@dataclass(frozen=True)
class SPoint:
    """Integer point of P^s with pairwise incongruent coordinates."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(abs(c) > MAX_COORD for c in self.coords):
            raise DomainError("coordinate overflow beyond the 63-bit guard")
        check_s_set(len(self.coords), self.coords)

    @property
    def s(self) -> int:
        return len(self.coords)

    def __str__(self) -> str:
        return point_to_text(self)


@dataclass(frozen=True)
class Hyperplane:
    """H_ij^k = {p : p_j - p_i = k s}, with 1 <= i < j."""

    i: int
    j: int
    k: int

    def __post_init__(self) -> None:
        if not 1 <= self.i < self.j:
            raise DomainError(f"need 1 <= i < j, got ({self.i}, {self.j})")


@dataclass(frozen=True)
class AlcoveKey:
    """floor((p_j - p_i)/s) per pair i < j, pairs in lexicographic order."""

    s: int
    floors: tuple[int, ...]


def point_to_text(p: SPoint) -> str:
    return "(" + ",".join(str(c) for c in p.coords) + ")"


def point_from_text(text: str) -> SPoint:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise DomainError(f"malformed point text: {text!r}")
    try:
        coords = tuple(int(tok) for tok in text[1:-1].split(","))
    except ValueError as exc:
        raise DomainError(f"malformed point text: {text!r}") from exc
    return SPoint(coords)


def origin(s: int) -> SPoint:
    """(0, 1, ..., s-1)."""
    return SPoint(tuple(range(s)))


def _check_indices(p: SPoint, h: Hyperplane) -> None:
    if h.j > p.s:
        raise DomainError(f"hyperplane {h} does not live in P^{p.s}")


def reflect(p: SPoint, h: Hyperplane) -> SPoint:
    """Orthogonal reflection: p - (p_j - p_i - ks)(e_j - e_i)."""
    _check_indices(p, h)
    delta = p.coords[h.j - 1] - p.coords[h.i - 1] - h.k * p.s
    coords = list(p.coords)
    coords[h.i - 1] += delta
    coords[h.j - 1] -= delta
    return SPoint(tuple(coords))


def side_of(p: SPoint, h: Hyperplane) -> int:
    """+1 or -1; never 0 because no s-point lies on a hyperplane."""
    _check_indices(p, h)
    value = p.coords[h.j - 1] - p.coords[h.i - 1] - h.k * p.s
    if value == 0:
        raise RuntimeError(f"s-point {p} lies on {h}")
    return 1 if value > 0 else -1


def reflect_hyperplane(h: Hyperplane, r: Hyperplane, s: int) -> Hyperplane:
    """Image of h under reflection in r, computed on the defining equation.

    Reflection r_{ij}^k permutes coordinates i, j and shifts them by -ks/+ks,
    so substituting into p_b - p_a = ns and renormalising to a < b gives the
    image hyperplane directly.  The partial case table one can write down for
    this map is used as a test oracle, not as the implementation.
    """
    if r.j > s or h.j > s:
        raise DomainError("hyperplane indices exceed s")

    def image_index(a: int) -> int:
        if a == r.i:
            return r.j
        if a == r.j:
            return r.i
        return a

    def shift(a: int) -> int:
        if a == r.i:
            return -r.k
        if a == r.j:
            return r.k
        return 0

    a, b = image_index(h.i), image_index(h.j)
    k = h.k - shift(h.j) + shift(h.i)
    if a < b:
        return Hyperplane(a, b, k)
    return Hyperplane(b, a, -k)


def separating_hyperplanes(p: SPoint, q: SPoint) -> list[Hyperplane]:
    """All hyperplanes with p and q strictly on opposite sides."""
    if p.s != q.s:
        raise DomainError("points live in different spaces")
    s = p.s
    out = []
    for i, j in combinations(range(1, s + 1), 2):
        a = p.coords[j - 1] - p.coords[i - 1]
        b = q.coords[j - 1] - q.coords[i - 1]
        lo, hi = min(a, b), max(a, b)
        # strict ks in (lo, hi); endpoints are never multiples of s anyway
        out.extend(Hyperplane(i, j, k) for k in range(lo // s + 1, (hi - 1) // s + 1))
    return out


def alcove_key(p: SPoint) -> AlcoveKey:
    s = p.s
    return AlcoveKey(
        s,
        tuple(
            (p.coords[j - 1] - p.coords[i - 1]) // s
            for i, j in combinations(range(1, s + 1), 2)
        ),
    )


def is_dominant(p: SPoint) -> bool:
    return all(a <= b for a, b in zip(p.coords, p.coords[1:]))


def fold_to_dominant(p: SPoint) -> SPoint:
    """Sort coordinates ascending: the dominant representative of p's s-set."""
    return SPoint(tuple(sorted(p.coords)))


def sset_of_point(p: SPoint) -> SSet:
    return make_sset(p.s, p.coords)


def point_of_sset(q: SSet) -> SPoint:
    return SPoint(q.sorted_elements())


def in_rhomboid(p: SPoint, t: int) -> bool:
    """Membership in R^s_t: consecutive gaps all within [1, t]."""
    check_level(t)
    if not is_dominant(p):
        raise DomainError("in_rhomboid expects a dominant point; fold first")
    return all(1 <= b - a <= t for a, b in zip(p.coords, p.coords[1:]))


def tip(s: int, t: int) -> SPoint:
    """The vertex of R^s_t opposite the origin: gaps all equal to t."""
    check_pair(s, t)
    coords = []
    for i in range(1, s + 1):
        num = s - 1 + t * (2 * i - 1 - s)
        if num % 2:
            raise RuntimeError("tip coordinates must be integers")
        coords.append(num // 2)
    return SPoint(tuple(coords))


def simplex_vertices(s: int, t: int) -> list[tuple[Fraction, ...]]:
    """Vertices of the dilated fundamental simplex bounding the level-t walls.

    Half-integral when s is even, hence exact Fractions rather than SPoints.
    """
    if s < 2 or t < 1:
        raise DomainError("need s >= 2 and t >= 1")
    base = Fraction(s - 1, 2)
    return [
        tuple(base + (i - s) * t if j <= i else base + i * t for j in range(1, s + 1))
        for i in range(s)
    ]


def rhomboid_points(s: int, t: int) -> list[SPoint]:
    """All s-points in R^s_t, by scanning the t^(s-1) gap vectors.

    Gap vectors whose anchor coordinate is non-integral or whose coordinates
    collide mod s do not correspond to s-points and are skipped.
    """
    if s < 2 or t < 1:
        raise DomainError("need s >= 2 and t >= 1")
    total = s * (s - 1) // 2
    points = []
    for gaps in product(range(1, t + 1), repeat=s - 1):
        cum = 0
        cum_sum = 0
        for g in gaps:
            cum += g
            cum_sum += cum
        first, rem = divmod(total - cum_sum, s)
        if rem:
            continue
        coords = [first]
        for g in gaps:
            coords.append(coords[-1] + g)
        if len({c % s for c in coords}) != s:
            continue
        points.append(SPoint(tuple(coords)))
    return points


def hyperplane_meets_rhomboid(h: Hyperplane, s: int, t: int) -> bool:
    """Whether H_ij^k meets R^s_t: (j-i)/s < k < (j-i)t/s, strictly.

    Coprimality keeps both bounds non-integral, so strictness is safe.
    """
    check_pair(s, t)
    if h.j > s:
        raise DomainError("hyperplane indices exceed s")
    d = h.j - h.i
    return d < h.k * s and h.k * s < d * t
