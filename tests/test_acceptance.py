"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import random
import time
from contextlib import contextmanager
from functools import lru_cache

from conftest import brute_st_cores, within
from stcores import cli
from stcores.abacus import core, core_from_s_set, is_s_core, make_sset, q_set
from stcores.affine_actions import chi_gen, chi_on_core, psi_gen
from stcores.alcoves import (
    alcove_key,
    origin,
    rhomboid_points,
    separating_hyperplanes,
)
from stcores.diagram import RenderSpec, alcove_labels
from stcores.orbits import (
    anderson_count,
    containment_chain,
    count_st_cores,
    descend_to_t_core,
    enumerate_st_cores,
    kappa,
    level_orbit_up_to_size,
)
from stcores.partitions import (
    Partition,
    brute_core,
    contains,
    from_text,
    is_s_core_by_hooks,
    partitions_up_to,
    removable_rim_hooks,
    size,
    toggle_residue,
)
from stcores.verify import _relation_failures, random_s_core, random_s_point


@contextmanager
def criterion(number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({time.perf_counter() - start:.2f}s)")


@lru_cache(maxsize=1)
def olsson_corpus() -> list[tuple[int, int, Partition]]:
    """10,000 random (s, t, s-core) triples, s in 2..7, coprime t in 2..8."""
    rng = random.Random(20260810)
    pairs = [(s, t) for s in range(2, 8) for t in range(2, 9) if math.gcd(s, t) == 1]
    out = []
    for _ in range(10_000):
        s, t = rng.choice(pairs)
        out.append((s, t, random_s_core(rng, s, 200)))
    return out


def test_criterion_01_golden_examples():
    with criterion(1, "golden-examples"):
        best = min(
            _timed_golden() for _ in range(5)
        )
        assert best < 1e-3, f"golden trio took {best * 1e3:.3f} ms"


def _timed_golden() -> float:
    start = time.perf_counter()
    assert core(Partition((6, 6, 2, 1)), 5) == Partition((5, 2, 2, 1))
    q = q_set(Partition((5, 2, 2, 1)), 5)
    assert q.elements == frozenset({5, -4, 2, -2, 9})
    assert q.sorted_elements() == (-4, -2, 2, 5, 9)
    return time.perf_counter() - start


def test_criterion_02_kane_size():
    with criterion(2, "kane-size"), within(1, "kane-size"):
        for s in range(2, 12):
            for t in range(s + 1, 13):
                if math.gcd(s, t) != 1:
                    continue
                assert size(kappa(s, t)) == (s * s - 1) * (t * t - 1) // 24, (s, t)


def test_criterion_03_anderson_count():
    with criterion(3, "anderson-count"), within(30, "anderson-count"):
        for s in range(2, 12):
            for t in range(s + 1, 13):
                if math.gcd(s, t) != 1:
                    continue
                expected = anderson_count(s, t)
                assert expected <= 10**5
                assert len(enumerate_st_cores(s, t)) == expected, (s, t)
        # the largest t per s (s <= 5) still inside the 10^5 budget
        for s in range(2, 6):
            t = _largest_t_within_count_budget(s, 10**5)
            assert count_st_cores(s, t) == anderson_count(s, t), (s, t)
        for s, t, expected_count in ((2, 3, 2), (3, 4, 5), (4, 5, 14)):
            oracle = brute_st_cores(s, t)
            assert len(oracle) == expected_count
            assert enumerate_st_cores(s, t) == oracle


def _largest_t_within_count_budget(s: int, cap: int) -> int:
    best = None
    t = 2
    while True:
        if math.gcd(s, t) == 1:
            if anderson_count(s, t) > cap:
                return best
            best = t
        t += 1


def test_criterion_04_olsson():
    with criterion(4, "olsson"), within(10, "olsson"):
        failures = sum(
            1 for s, t, lam in olsson_corpus() if not is_s_core(core(lam, t), s)
        )
        assert failures == 0


def test_criterion_05_descent_equals_abacus():
    with criterion(5, "descent-equals-abacus"):
        for s, t, lam in olsson_corpus():
            nu, trace = descend_to_t_core(lam, s, t)
            assert nu == core(lam, t), (s, t, lam)
            seq = trace.sum_sq_sequence()
            assert all(b < a for a, b in zip(seq, seq[1:])), (s, t, lam)


def test_criterion_06_vandehey_and_chains():
    with criterion(6, "vandehey-and-chains"), within(60, "vandehey-and-chains"):
        for s in range(2, 9):
            for t in range(s + 1, 9):
                if math.gcd(s, t) != 1:
                    continue
                kap = kappa(s, t)
                assert all(contains(kap, c) for c in enumerate_st_cores(s, t)), (s, t)
        for s in range(2, 7):
            for t in range(1, 7):
                if math.gcd(s, t) != 1:
                    continue
                kap = kappa(s, t)
                for p in rhomboid_points(s, t):
                    lam = core_from_s_set(make_sset(s, p.coords))
                    assert contains(kap, lam), (s, t, p)
                    chain = containment_chain(p, s, t)
                    assert chain.cores[0] == lam and chain.cores[-1] == kap
                    assert all(
                        contains(b, a) for a, b in zip(chain.cores, chain.cores[1:])
                    ), (s, t, p)


def test_criterion_07_action_algebra():
    with criterion(7, "action-algebra"):
        rng = random.Random(777)
        failures = 0
        for s in range(2, 7):
            for i in range(s):
                if alcove_key(psi_gen(i, 1, origin(s))) != alcove_key(chi_gen(i, 1, origin(s))):
                    failures += 1
            for t in (1, 3, 5, 7):
                if math.gcd(s, t) != 1:
                    continue
                for _ in range(1000):
                    p = random_s_point(rng, s)
                    if _relation_failures(lambda i, q: psi_gen(i, t, q), s, p):
                        failures += 1
                    if _relation_failures(lambda i, q: chi_gen(i, t, q), s, p):
                        failures += 1
                    a, b = rng.randrange(s), rng.randrange(s)
                    left = alcove_key(psi_gen(a, t, chi_gen(b, t, p)))
                    right = alcove_key(chi_gen(b, t, psi_gen(a, t, p)))
                    if left != right:
                        failures += 1
                    if len(separating_hyperplanes(p, chi_gen(rng.randrange(s), 1, p))) != 1:
                        failures += 1
        assert failures == 0


def test_criterion_08_oracle_equivalences():
    with criterion(8, "oracle-equivalences"):
        for p in partitions_up_to(20):
            for s in range(1, 7):
                assert core(p, s) == brute_core(p, s), (p, s)
                hooks_say = is_s_core_by_hooks(p, s)
                assert hooks_say == is_s_core(p, s), (p, s)
                assert hooks_say == (not removable_rim_hooks(p, s)), (p, s)
        for s in (3, 4, 5):
            for p in partitions_up_to(30):
                if not is_s_core_by_hooks(p, s):
                    continue
                for i in range(s):
                    assert chi_on_core(i, 1, p, s) == toggle_residue(p, i, s), (p, s, i)


def test_criterion_09_orbit_of_origin():
    with criterion(9, "orbit-of-origin"):
        orbit = level_orbit_up_to_size(3, 4, 30)
        direct = {
            p
            for p in partitions_up_to(30)
            if is_s_core(p, 3) and core(p, 4) == Partition()
        }
        assert orbit == direct


FIGURE_ONE_ROWS = [
    [""],
    ["1"],
    ["2", "1,1"],
    ["3,1", "2,1,1"],
    ["4,2", "3,1,1", "2,2,1,1"],
]


def test_criterion_10_cli_svg(tmp_path):
    with criterion(10, "cli-svg"):
        spec = RenderSpec(s=3, depth=5, mode="cores")
        rows = [[] for _ in range(5)]
        for alc, lam in alcove_labels(spec):
            rows[alc.depth].append(lam)
        expected = [[from_text(text) for text in row] for row in FIGURE_ONE_ROWS]
        assert rows == expected

        st_cores = set(enumerate_st_cores(3, 4))
        tspec = RenderSpec(s=3, depth=6, mode="tcores", t=4)
        assert {lam for _, lam in alcove_labels(tspec)} <= st_cores

        first = tmp_path / "a.svg"
        second = tmp_path / "b.svg"
        for path in (first, second):
            code = cli.main(
                ["diagram", "--s", "3", "--t", "4", "--depth", "6",
                 "--mode", "tcores", "--out", str(path)]
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

        cores_once = tmp_path / "c.svg"
        cores_twice = tmp_path / "d.svg"
        for path in (cores_once, cores_twice):
            assert cli.main(["diagram", "--s", "3", "--depth", "5", "--out", str(path)]) == 0
        assert cores_once.read_bytes() == cores_twice.read_bytes()
