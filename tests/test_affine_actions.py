import math
import random
import re

import pytest

from stcores import DomainError
from stcores.abacus import core, make_sset, q_set
from stcores.affine_actions import (
    _chi_move,
    _psi_move,
    alpha,
    apply_word,
    chi_gen,
    chi_on_core,
    chi_on_sset,
    parse_word,
    psi_gen,
)
from stcores.alcoves import Hyperplane, alcove_key, origin, reflect, separating_hyperplanes, sset_of_point
from stcores.partitions import Partition, is_s_core_by_hooks, partitions_up_to, toggle_residue
from stcores.verify import random_s_core, random_s_point


def P(*parts):
    return Partition(parts)


def test_psi_gen_examples():
    assert psi_gen(0, 4, origin(3)).coords == (-10, 1, 12)
    for t in (1, 2, 5):
        assert psi_gen(1, t, origin(3)).coords == (1, 0, 2)
    rng = random.Random(0)
    for _ in range(50):
        p = random_s_point(rng, rng.randint(2, 6))
        i, t = rng.randrange(p.s), rng.randint(1, 5)
        assert psi_gen(i, t, psi_gen(i, t, p)) == p


def test_chi_gen_examples():
    assert chi_gen(0, 4, origin(3)).coords == (-4, 1, 6)
    assert chi_gen(2, 1, origin(3)).coords == (0, 2, 1)
    rng = random.Random(1)
    for _ in range(50):
        s = rng.randint(2, 6)
        t = rng.choice([t for t in (1, 2, 3, 4, 5, 7) if math.gcd(s, t) == 1])
        p = random_s_point(rng, s)
        i = rng.randrange(s)
        assert chi_gen(i, t, chi_gen(i, t, p)) == p
    with pytest.raises(DomainError):
        chi_gen(0, 6, origin(3))


def test_chi_on_sset_and_core_examples():
    assert chi_on_core(0, 1, P(), 3) == P(1)
    assert chi_on_sset(2, 1, make_sset(3, [0, 1, 2])) == make_sset(3, [0, 1, 2])
    rng = random.Random(2)
    for _ in range(60):
        lam = random_s_core(rng, 3, 60)
        i = rng.randrange(3)
        assert core(chi_on_core(i, 4, lam, 3), 4) == core(lam, 4)
    with pytest.raises(DomainError):
        chi_on_core(0, 4, P(2, 1), 3)  # not a 3-core


def test_apply_word_examples():
    p = origin(3)
    assert apply_word((), "psi", 4, p) == p
    for action in ("psi", "chi"):
        for i in range(3):
            assert apply_word((i, i), action, 4, p) == p
    with pytest.raises(DomainError):
        apply_word((0,), "rho", 4, p)
    assert parse_word("0 2 1 0") == (0, 2, 1, 0)
    assert parse_word("") == ()
    with pytest.raises(DomainError):
        parse_word("0 x")


def _move_cases(seed):
    """(s, t, point) for s = 2..12 and every t <= 3s coprime to s, two seeded points each."""
    rng = random.Random(seed)
    for s in range(2, 13):
        for t in range(1, 3 * s + 1):
            if math.gcd(s, t) == 1:
                for _ in range(2):
                    yield s, t, random_s_point(rng, s, spread=3 * s)


def _chi_by_class_scan(i, t, coords, s):
    """chi_t's generator i as its definition reads: scan the coordinates, add t to
    the one congruent to (i-1)t mod s and subtract t from the one congruent to it."""
    out = []
    for c in coords:
        if c % s == (i - 1) * t % s:
            c += t
        elif c % s == i * t % s:
            c -= t
        out.append(c)
    return tuple(out)


def test_psi_move_is_the_reflection_in_the_wall():
    for s, t, p in _move_cases(10):
        for i in range(s):
            wall = Hyperplane(i, i + 1, 0) if i else Hyperplane(1, s, t)
            assert _psi_move(i, t, p.coords, s) == reflect(p, wall).coords, (s, t, i, p)


def test_chi_move_is_the_class_scan():
    for s, t, p in _move_cases(11):
        for i in range(s):
            assert _chi_move(i, t, p.coords, s) == _chi_by_class_scan(i, t, p.coords, s), (s, t, i, p)


@pytest.mark.parametrize("action, gen", [("psi", psi_gen), ("chi", chi_gen)])
def test_apply_word_is_a_left_fold_of_the_generators(action, gen):
    rng = random.Random(12)
    for s, t, p in _move_cases(13):
        word = tuple(rng.randrange(s) for _ in range(rng.randint(0, 200)))
        expected = p
        for i in word:
            expected = gen(i, t, expected)
        assert apply_word(word, action, t, p) == expected, (s, t, word, p)


@pytest.mark.parametrize(
    "word, action, t, text",
    [
        # a bad last letter, at a small t and at one whose images near the guard
        ((0, 1, 2, 3), "psi", 4, "need generator index <= 2, got 3"),
        ((0, 1, 2, 3), "psi", 2**60, "need generator index <= 2, got 3"),
        ((0, 1, 2, 1, 3), "chi", 4, "need generator index <= 2, got 3"),
        ((0, 1.0), "chi", 4, "generator index must be an integer, got 1.0"),
        # the letter whose image passes the guard is refused, not any before it
        ((0, 1, 2, 0), "psi", 2**60, "coordinate overflow beyond the 63-bit guard"),
        ((0, 1, 2, 0), "chi", 2**60, "coordinate overflow beyond the 63-bit guard"),
        ((0, 1, 2, 0, 5), "psi", 2**60, "coordinate overflow beyond the 63-bit guard"),
        ((0, 1, 2, 5, 0), "psi", 2**60, "need generator index <= 2, got 5"),
    ],
)
def test_apply_word_refuses_as_the_generators_do(word, action, t, text):
    with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
        apply_word(word, action, t, origin(3))


def test_braid_relation_instances():
    rng = random.Random(3)
    for action in ("psi", "chi"):
        for _ in range(80):
            s = rng.randint(3, 6)
            t = rng.choice([t for t in (1, 2, 3, 4, 5, 7) if math.gcd(s, t) == 1])
            p = random_s_point(rng, s)
            j = rng.randrange(s)
            i = (j + 1) % s
            if (j + 1) % s == (j - 1) % s:
                continue
            assert apply_word((i, j, i), action, t, p) == apply_word((j, i, j), action, t, p)


def test_commuting_relation_instances():
    rng = random.Random(4)
    for action in ("psi", "chi"):
        for _ in range(80):
            s = rng.randint(4, 6)
            t = rng.choice([t for t in (1, 3, 5, 7) if math.gcd(s, t) == 1])
            p = random_s_point(rng, s)
            i = rng.randrange(s)
            far = [j for j in range(s) if (i - j) % s not in (0, 1, s - 1)]
            j = rng.choice(far)
            assert apply_word((i, j), action, t, p) == apply_word((j, i), action, t, p)


def test_actions_commute_on_alcoves():
    rng = random.Random(5)
    for _ in range(200):
        s = rng.randint(2, 6)
        t = rng.choice([t for t in (1, 2, 3, 4, 5, 7) if math.gcd(s, t) == 1])
        p = random_s_point(rng, s)
        a, b = rng.randrange(s), rng.randrange(s)
        left = alcove_key(psi_gen(a, t, chi_gen(b, t, p)))
        right = alcove_key(chi_gen(b, t, psi_gen(a, t, p)))
        assert left == right


def test_level1_agreement_on_fundamental_alcove():
    for s in range(2, 7):
        for i in range(s):
            assert alcove_key(psi_gen(i, 1, origin(s))) == alcove_key(chi_gen(i, 1, origin(s)))


def test_chi1_images_are_adjacent():
    rng = random.Random(6)
    for _ in range(200):
        s = rng.randint(2, 6)
        p = random_s_point(rng, s)
        i = rng.randrange(s)
        assert len(separating_hyperplanes(p, chi_gen(i, 1, p))) == 1


@pytest.mark.parametrize("s", [3, 4, 5])
def test_chi1_on_cores_is_residue_toggle(s):
    """Generator i of the level-1 action adds/removes the residue-i boxes."""
    for lam in partitions_up_to(16):
        if not is_s_core_by_hooks(lam, s):
            continue
        for i in range(s):
            assert chi_on_core(i, 1, lam, s) == toggle_residue(lam, i, s)


def test_alpha_examples():
    p = origin(3)
    p1 = alpha(p, 4)
    p2 = alpha(p1, 4)
    p3 = alpha(p2, 4)
    assert p1.coords == (-6, 4, 5)
    assert p2.coords == (-3, -2, 8)
    assert p3 == p


def test_alpha_preserves_t_cores():
    rng = random.Random(7)
    from stcores.abacus import core_from_s_set

    for _ in range(100):
        s = rng.randint(2, 5)
        t = rng.choice([t for t in (2, 3, 4, 5, 7) if math.gcd(s, t) == 1])
        p = random_s_point(rng, s)
        lam = core_from_s_set(sset_of_point(p))
        mu = core_from_s_set(sset_of_point(alpha(p, t)))
        assert core(lam, t) == core(mu, t)


def test_psi_orbit_mates_share_t_cores():
    rng = random.Random(8)
    from stcores.abacus import core_from_s_set

    for _ in range(150):
        s = rng.randint(2, 6)
        t = rng.choice([t for t in (2, 3, 4, 5, 7) if math.gcd(s, t) == 1])
        p = random_s_point(rng, s)
        word = tuple(rng.randrange(s) for _ in range(rng.randint(1, 6)))
        q = apply_word(word, "psi", t, p)
        lam = core_from_s_set(sset_of_point(p))
        mu = core_from_s_set(sset_of_point(q))
        assert core(lam, t) == core(mu, t)


def test_chi_preserves_residue_multisets_by_construction():
    rng = random.Random(9)
    from stcores.orbits import residue_multiset

    for _ in range(100):
        s = rng.randint(2, 6)
        t = rng.choice([t for t in (2, 3, 4, 5, 7) if math.gcd(s, t) == 1])
        lam = random_s_core(rng, s, 80)
        q = q_set(lam, s)
        i = rng.randrange(s)
        assert residue_multiset(chi_on_sset(i, t, q), t) == residue_multiset(q, t)


def _random_s_core_by_chi_on_sset(rng, s, max_size):
    """The walk random_s_core takes, through the checked chi_on_sset: chi_1
    generators from the s-set of the empty partition, retried if too big."""
    from stcores.abacus import core_from_s_set, size_from_s_set

    while True:
        q = q_set(Partition(), s)
        for _ in range(rng.randrange(41)):
            q = chi_on_sset(rng.randrange(s), 1, q)
        if size_from_s_set(q) <= max_size:
            return core_from_s_set(q)


@pytest.mark.parametrize("max_size", [60, 200])
def test_random_s_core_draws_the_chi_on_sset_walk(max_size):
    """verify's inputs and the corpus of the tests that draw from it stay as they were."""
    for seed in range(100):
        for s in range(2, 10):
            fast, slow = random.Random(seed), random.Random(seed)
            assert random_s_core(fast, s, max_size) == _random_s_core_by_chi_on_sset(slow, s, max_size)
            assert fast.random() == slow.random(), (seed, s)  # the same draws were taken
