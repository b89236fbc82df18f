"""The space P^s: s-points, hyperplanes, reflections, alcoves and the rhomboid.

Everything is exact integer (or Fraction) arithmetic: side and crossing
decisions feed the gallery walk, where a single rounding error would derail
the construction.  Alcoves are never materialised as regions; the unique
s-point inside an alcove (equivalently its floor-vector key) is its identity.
"""

from __future__ import annotations

from itertools import combinations, product

from .abacus import SSet
from . import errors
from .errors import DomainError, _Value, _read_ints, _set, _trusted, check_coords, check_int, check_level, check_pair
from .errors import check_s_set, check_scan, check_span


class SPoint(_Value):
    """Integer point of P^s whose coordinates form an s-set."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]) -> None:
        _set(self, "coords", coords)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_s_set(len(self.coords), self.coords)

    @property
    def s(self) -> int:
        return len(self.coords)

    def __str__(self) -> str:
        return point_to_text(self)


class Hyperplane(_Value):
    """H_ij^k = {p : p_j - p_i = k s}, with 1 <= i < j."""

    __slots__ = ("i", "j", "k")

    def __init__(self, i: int, j: int, k: int) -> None:
        _set(self, "i", i)
        _set(self, "j", j)
        _set(self, "k", k)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_int(self.i, "i", 1)
        check_int(self.j, "j", self.i + 1)
        check_int(self.k, "k")


class AlcoveKey(_Value):
    """floor((p_j - p_i)/s) per pair i < j, pairs in lexicographic order."""

    __slots__ = ("s", "floors")

    def __init__(self, s: int, floors: tuple[int, ...]) -> None:
        _set(self, "s", s)
        _set(self, "floors", floors)


def point_to_text(p: SPoint) -> str:
    return "(" + ",".join(str(c) for c in p.coords) + ")"


def point_from_text(text: str) -> SPoint:
    return SPoint(tuple(_read_ints(text, "point text", "()")))


def origin(s: int) -> SPoint:
    """(0, 1, ..., s-1)."""
    check_int(s, "s", 2)
    check_span(s - 1)  # the s coordinates span s - 1 positions
    # one element per class, summing to s(s-1)/2, far inside the bound
    return _trusted(SPoint, coords=tuple(range(s)))


def _check_in_space(h: Hyperplane, s: int) -> None:
    if h.j > s:
        raise DomainError(f"hyperplane {h} does not live in P^{s}")


def _moved_point(coords) -> SPoint:
    """The s-point at coords, moved off a checked one by a reflection, a chi_t generator
    or alpha: each keeps the classes distinct and the sum, so only the bound is checked."""
    check_coords(coords)
    return _trusted(SPoint, coords=tuple(coords))


def reflect(p: SPoint, h: Hyperplane) -> SPoint:
    """Orthogonal reflection: p - (p_j - p_i - ks)(e_j - e_i)."""
    _check_in_space(h, p.s)
    delta = p.coords[h.j - 1] - p.coords[h.i - 1] - h.k * p.s
    coords = list(p.coords)
    coords[h.i - 1] += delta
    coords[h.j - 1] -= delta
    return _moved_point(coords)


def side_of(p: SPoint, h: Hyperplane) -> int:
    """+1 or -1; never 0 because no s-point lies on a hyperplane."""
    _check_in_space(h, p.s)
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
    check_int(s, "s", 2)
    _check_in_space(h, s)
    _check_in_space(r, s)
    # index -> (its image, the shift its coordinate takes); other indices stay put
    image = {r.i: (r.j, -r.k), r.j: (r.i, r.k)}
    a, shift_a = image.get(h.i, (h.i, 0))
    b, shift_b = image.get(h.j, (h.j, 0))
    k = h.k - shift_b + shift_a
    # the reflection maps indices one-to-one, so a != b, and the result is
    # renormalised so that i < j
    i, j, k = (a, b, k) if a < b else (b, a, -k)
    return _trusted(Hyperplane, i=i, j=j, k=k)


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
        # strict ks in (lo, hi); endpoints are never multiples of s anyway;
        # combinations gives 1 <= i < j and range an int k, so each is a hyperplane
        out.extend(_trusted(Hyperplane, i=i, j=j, k=k) for k in range(lo // s + 1, (hi - 1) // s + 1))
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
    # a permutation of the coordinates of a checked point
    return _trusted(SPoint, coords=tuple(sorted(p.coords)))


def sset_of_point(p: SPoint) -> SSet:
    # the coordinates of a checked point: SPoint and SSet share one contract
    return _trusted(SSet, s=p.s, elements=frozenset(p.coords))


def in_rhomboid(p: SPoint, t: int) -> bool:
    """Membership in R^s_t: consecutive gaps all within [1, t]."""
    check_int(t, "t", 1)
    if not is_dominant(p):
        raise DomainError("in_rhomboid expects a dominant point; fold first")
    return all(1 <= b - a <= t for a, b in zip(p.coords, p.coords[1:]))


def _check_rhomboid(s: int, t: int) -> None:
    """The pair of R^s_t and its span (s-1)t, which bounds the tip and the
    s-set of every (s,t)-core; capping the span also keeps min(s, t), hence
    Anderson's count of the (s,t)-cores, within that count's own cap."""
    check_pair(s, t)
    check_span((s - 1) * t)


def tip(s: int, t: int) -> SPoint:
    """The vertex of R^s_t opposite the origin: gaps all equal to t."""
    _check_rhomboid(s, t)
    first = -(s - 1) * (t - 1) // 2  # (s-1)(t-1) is even for a coprime pair
    # a step coprime to s meets every class once, and the s terms sum to s(s-1)/2
    return _trusted(SPoint, coords=tuple(range(first, first + s * t, t)))


def simplex_vertices(s: int, t: int) -> list[tuple[Fraction, ...]]:
    """Vertices of the dilated fundamental simplex bounding the level-t walls.

    Half-integral when s is even, hence exact Fractions rather than SPoints.
    """
    from fractions import Fraction  # imported here, its only use, to keep it off start-up

    check_level(s, t)
    check_scan(s * s, "simplex vertices")  # s vertices of s Fractions each
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
    check_level(s, t)
    # s-1 entries per gap vector; for t >= 2 the count passes the cap once s
    # exceeds the cap's bit length, which is decided before any power is built
    scan = f"rhomboid scan of {t}^{s - 1} gap vectors"
    cap = errors.MAX_SCAN  # read per call, so a test can lower it
    if t > 1 and s > cap.bit_length():
        raise DomainError(f"{scan} exceeds the cap of {cap}")
    check_scan((s - 1) * t ** (s - 1), scan)
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
    _check_in_space(h, s)
    d = h.j - h.i
    return d < h.k * s and h.k * s < d * t
