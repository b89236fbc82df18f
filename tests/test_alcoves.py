import math
import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import within
from stcores import DomainError, errors
from stcores.abacus import core_from_s_set, is_s_core
from stcores.affine_actions import alpha
from stcores.alcoves import (
    Hyperplane,
    SPoint,
    alcove_key,
    fold_to_dominant,
    hyperplane_meets_rhomboid,
    in_rhomboid,
    origin,
    point_from_text,
    point_to_text,
    reflect,
    reflect_hyperplane,
    rhomboid_points,
    separating_hyperplanes,
    side_of,
    simplex_vertices,
    sset_of_point,
    tip,
)
from stcores.verify import random_s_point


def test_spoint_validation():
    with pytest.raises(DomainError):
        SPoint((0, 3))  # congruent coordinates
    with pytest.raises(DomainError):
        SPoint((0, 2))  # wrong sum
    with pytest.raises(DomainError):
        SPoint((5,))
    with pytest.raises(DomainError):
        SPoint((2**63, 1 - 2**63))  # coordinate overflow guard
    assert point_from_text("(-4,-2,2,5,9)").coords == (-4, -2, 2, 5, 9)
    assert point_to_text(SPoint((0, 1, 2))) == "(0,1,2)"


def test_origin_examples():
    assert origin(3).coords == (0, 1, 2)
    assert origin(2).coords == (0, 1)
    assert origin(5).coords == tuple(sorted(sset_of_point(origin(5)).elements))


def test_reflect_examples():
    assert reflect(origin(3), Hyperplane(1, 2, 0)).coords == (1, 0, 2)
    assert reflect(origin(3), Hyperplane(1, 3, 1)).coords == (-1, 1, 3)
    rng = random.Random(1)
    for _ in range(100):
        p = random_s_point(rng, rng.randint(2, 5))
        h = Hyperplane(1, p.s, rng.randint(-3, 3))
        assert reflect(reflect(p, h), h) == p


def test_side_of_examples():
    assert side_of(origin(3), Hyperplane(1, 3, 0)) == 1
    assert side_of(origin(3), Hyperplane(1, 3, 1)) == -1
    h = Hyperplane(1, 3, 1)
    assert side_of(origin(3), h) != side_of(tip(3, 4), h)


def test_reflect_hyperplane_against_case_table():
    # the three index patterns with a known closed form
    for n in range(-3, 4):
        assert reflect_hyperplane(Hyperplane(3, 4, n), Hyperplane(1, 2, 0), 4) == Hyperplane(3, 4, n)
        for k in range(-3, 4):
            assert reflect_hyperplane(Hyperplane(1, 2, n), Hyperplane(1, 2, k), 4) == Hyperplane(
                1, 2, 2 * k - n
            )
            got = reflect_hyperplane(Hyperplane(1, 3, n), Hyperplane(1, 2, k), 4)
            assert got == Hyperplane(2, 3, n - k)


def test_reflect_hyperplane_consistent_with_point_sides():
    """Reflection carries the two sides of h onto the two sides of its image.

    The side labels themselves may swap (renormalising the image to i < j can
    negate the defining functional), so the invariant is separation, not the
    literal sign.
    """
    rng = random.Random(5)
    for _ in range(300):
        s = rng.randint(2, 5)
        p, q = random_s_point(rng, s), random_s_point(rng, s)

        def random_plane():
            i = rng.randint(1, s - 1)
            j = rng.randint(i + 1, s)
            return Hyperplane(i, j, rng.randint(-3, 3))

        h, r = random_plane(), random_plane()
        image = reflect_hyperplane(h, r, s)
        same_before = side_of(p, h) == side_of(q, h)
        same_after = side_of(reflect(p, r), image) == side_of(reflect(q, r), image)
        assert same_before == same_after


def test_separating_hyperplanes_examples():
    p = origin(3)
    assert separating_hyperplanes(p, p) == []
    assert separating_hyperplanes(p, SPoint((-1, 1, 3))) == [Hyperplane(1, 3, 1)]
    rng = random.Random(2)
    for _ in range(100):
        q = random_s_point(rng, 4)
        r = random_s_point(rng, 4)
        seps = set(separating_hyperplanes(q, r))
        assert all(side_of(q, h) != side_of(r, h) for h in seps)
        # spot-check completeness over a window of candidate walls
        for i, j in ((1, 2), (1, 3), (2, 4)):
            for k in range(-6, 7):
                h = Hyperplane(i, j, k)
                if side_of(q, h) != side_of(r, h):
                    assert h in seps
    with pytest.raises(DomainError, match="points live in different spaces"):
        separating_hyperplanes(origin(3), origin(4))


def _rebuilt(h: Hyperplane) -> Hyperplane:
    """h through its checked constructor, which refuses i < 1, j <= i or a non-int."""
    return Hyperplane(h.i, h.j, h.k)


def test_separating_hyperplanes_are_valid_hyperplanes():
    """The walls are built unchecked; each passes the check and rebuilds equal."""
    rng = random.Random(34)
    for s in range(2, 9):
        for _ in range(20):
            p, q = random_s_point(rng, s), random_s_point(rng, s)
            for h in separating_hyperplanes(p, q):
                assert _rebuilt(h) == h


def test_reflected_hyperplanes_are_valid_hyperplanes():
    """Every image of a hyperplane of P^s, s <= 6 and |k| <= 2, is built
    unchecked; each passes the check and rebuilds equal."""
    for s in range(2, 7):
        planes = [Hyperplane(i, j, k) for i in range(1, s + 1) for j in range(i + 1, s + 1) for k in range(-2, 3)]
        for h in planes:
            for r in planes:
                image = reflect_hyperplane(h, r, s)
                assert _rebuilt(image) == image and image.j <= s


def test_alcove_key_examples():
    assert alcove_key(origin(3)).floors == (0, 0, 0)
    assert alcove_key(SPoint((-1, 1, 3))).floors == (0, 1, 0)  # pairs (1,2),(1,3),(2,3)


@pytest.mark.parametrize("s", [2, 3])
def test_alcove_key_separates_points(s):
    """Distinct s-points in a coordinate box never share a key."""
    residue_classes = [[x for x in range(-10, 11) if x % s == r] for r in range(s)]
    target = s * (s - 1) // 2
    seen = {}
    for choice in product(*residue_classes):
        if sum(choice) != target:
            continue
        for perm in set(__import__("itertools").permutations(choice)):
            p = SPoint(perm)
            key = alcove_key(p)
            assert seen.setdefault(key, p) == p
    assert len(seen) >= 20


def test_fold_to_dominant_examples():
    assert fold_to_dominant(SPoint((1, 0, 2))) == origin(3)
    assert fold_to_dominant(SPoint((5, -4, 2, -2, 9))).coords == (-4, -2, 2, 5, 9)
    p = SPoint((-4, -2, 2, 5, 9))
    assert fold_to_dominant(p) == p
    q = SPoint((9, 5, 2, -2, -4))
    assert fold_to_dominant(fold_to_dominant(q)) == fold_to_dominant(q)
    assert sset_of_point(fold_to_dominant(q)) == sset_of_point(p)


def test_in_rhomboid_examples():
    for s, t in ((2, 3), (3, 4), (5, 2)):
        assert in_rhomboid(origin(s), t)
    assert in_rhomboid(tip(3, 4), 4)
    assert in_rhomboid(SPoint((-4, -2, 2, 5, 9)), 4)
    assert not in_rhomboid(SPoint((-4, -2, 2, 5, 9)), 3)
    with pytest.raises(DomainError):
        in_rhomboid(SPoint((1, 0, 2)), 4)


def test_tip_examples():
    assert tip(3, 4).coords == (-3, 1, 5)
    assert tip(2, 3).coords == (-1, 2)
    for s, t in ((2, 5), (3, 7), (4, 9), (5, 6)):
        assert sum(tip(s, t).coords) == s * (s - 1) // 2
    with pytest.raises(DomainError):
        tip(4, 6)
    with pytest.raises(DomainError):
        tip(2, -3)


def test_tip_core_is_both_cores():
    for s, t in ((2, 3), (3, 4), (4, 5), (5, 7), (3, 8)):
        lam = core_from_s_set(sset_of_point(tip(s, t)))
        assert is_s_core(lam, s) and is_s_core(lam, t)
        assert in_rhomboid(tip(s, t), t)


def test_simplex_vertices_examples():
    vs = simplex_vertices(3, 4)
    assert vs[0] == (Fraction(1), Fraction(1), Fraction(1))
    assert vs[1] == (Fraction(-7), Fraction(5), Fraction(5))


@pytest.mark.parametrize("s,t", [(2, 3), (3, 4), (4, 3), (5, 2), (6, 5)])
def test_alpha_permutes_simplex_vertices_cyclically(s, t):
    vs = simplex_vertices(s, t)
    for i, v in enumerate(vs):
        rotated = (v[-1] - (s - 1) * t,) + tuple(c + t for c in v[:-1])
        assert rotated == vs[(i + 1) % s]
    # and alpha realises the same map on integer points
    p = origin(s)
    q = p
    for _ in range(s):
        q = alpha(q, t)
    assert q == p


def test_hyperplane_meets_rhomboid_examples():
    assert hyperplane_meets_rhomboid(Hyperplane(1, 3, 1), 3, 4)
    assert not hyperplane_meets_rhomboid(Hyperplane(1, 2, 2), 3, 4)
    with pytest.raises(DomainError):
        hyperplane_meets_rhomboid(Hyperplane(1, 2, 1), 4, 6)


def test_meeting_hyperplanes_separate_origin_from_tip():
    """Exhaustive over the finitely many meeting walls, coprime s,t <= 8."""
    for s in range(2, 9):
        for t in range(1, 9):
            if math.gcd(s, t) != 1:
                continue
            o, v = origin(s), tip(s, t)
            for i in range(1, s):
                for j in range(i + 1, s + 1):
                    for k in range(-2, (j - i) * t // s + 2):
                        h = Hyperplane(i, j, k)
                        if hyperplane_meets_rhomboid(h, s, t):
                            assert side_of(o, h) != side_of(v, h)
                        # and every separating wall of the segment does meet
                        if side_of(o, h) != side_of(v, h):
                            assert hyperplane_meets_rhomboid(h, s, t)


def test_rhomboid_points_small():
    pts = rhomboid_points(3, 4)
    assert origin(3) in pts
    assert tip(3, 4) in pts
    assert SPoint((-4, -2, 2, 5, 9)) in rhomboid_points(5, 4)
    assert all(in_rhomboid(p, 4) for p in pts)
    assert len(set(pts)) == len(pts)


def test_rhomboid_scan_is_refused_beyond_its_cap():
    """(s-1)t^(s-1) gap-vector entries over 10^7 are refused before the scan;
    for large s the refusal needs no power of t."""
    with within(10, "rhomboid_points"):
        for s, t in ((12, 13), (9, 7), (10**9, 2), (10**9, 1)):
            with pytest.raises(DomainError, match="exceeds the cap of 10000000"):
                rhomboid_points(s, t)
        assert len(rhomboid_points(6, 7)) == 326  # 84,035 entries: admitted


def test_rhomboid_scan_reads_the_cap_per_call(monkeypatch):
    """The large-s refusal names the cap as it is at the call, like the rest."""
    monkeypatch.setattr(errors, "MAX_SCAN", 1000)
    for s, t in ((11, 2), (30, 2)):
        with pytest.raises(DomainError, match="cap of 1000$"):
            rhomboid_points(s, t)
