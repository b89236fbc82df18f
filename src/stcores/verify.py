"""Verification suites behind the CLI `verify` command.

Each suite re-checks a family of invariants at a configurable scale and
returns (check name, passed, detail) rows.  All randomness flows through a
seeded Random instance, so a fixed --seed reproduces a run exactly.
"""

from __future__ import annotations

import math
import random
from itertools import islice
from collections.abc import Callable

from . import abacus, affine_actions as act, orbits, partitions as parts
from .abacus import SSet, core_from_s_set, size_from_s_set
from .alcoves import SPoint, alcove_key, origin, rhomboid_points, separating_hyperplanes
from .errors import DomainError, _trusted, check_scan
from .partitions import Partition

Check = tuple[str, bool, str]


def random_s_core(rng: random.Random, s: int, max_size: int) -> Partition:
    """A random s-core of size at most max_size (walk on s-sets, retry if big).

    The walk applies chi_1 generators to the s-set of the empty partition."""
    while True:
        coords = tuple(range(s))
        for _ in range(rng.randrange(41)):
            coords = act._chi_move(rng.randrange(s), 1, coords, s)
        # each chi_1 move keeps the classes distinct and the sum
        q = _trusted(SSet, s=s, elements=frozenset(coords))
        if size_from_s_set(q) <= max_size:
            return core_from_s_set(q)


def random_s_point(rng: random.Random, s: int, spread: int = 5) -> SPoint:
    """A random s-point: one coordinate per residue class, zero total offset."""
    ks = [rng.randint(-spread, spread) for _ in range(s - 1)]
    ks.append(-sum(ks))
    coords = [r + s * k for r, k in zip(range(s), ks)]
    rng.shuffle(coords)
    return SPoint(tuple(coords))


def _check_row(name: str, scale: str, bad: list[tuple], names: str, noun: str = "failures") -> Check:
    """A check row: it passes when no input went bad, and a failing row ends
    with the first bad input, its values named by names; a partition is
    written in parentheses, so that its commas and the empty one stay apart."""
    detail = f"{scale}: {len(bad)} {noun}"
    if bad:
        values = ", ".join(f"({v})" if isinstance(v, Partition) else str(v) for v in bad[0])
        detail += f"; first ({names}) = ({values})"
    return name, not bad, detail


# the levels the actions suite tries at each s, those coprime to s
_ACTION_TS = (1, 2, 3, 4, 5, 7)


def _coprime_ts(s: int, t_max: int) -> list[int]:
    return [t for t in _ACTION_TS if t <= t_max and math.gcd(s, t) == 1]


def _corpus_max(trials: int) -> int:
    return min(16, max(8, trials // 16))


def _brute_cores(corpus: list[Partition], s_max: int):
    """Yield (p, [(s, rim s-hooks of p, brute_core(p, s)) for s = 1..s_max]) for
    each p of the corpus, removing one rim hook per (p, s).

    brute_core(p, s) is brute_core(remove_rim_hook(p, hooks[0]), s), or p when
    there is no hook.  The corpus comes in order of size, so the core of the
    smaller partition is already in the memo.
    """
    memo: dict[tuple[Partition, int], Partition] = {}
    for p in corpus:
        row = []
        for s in range(1, s_max + 1):
            hooks = parts.removable_rim_hooks(p, s)
            core = memo[parts.remove_rim_hook(p, hooks[0]), s] if hooks else p
            memo[p, s] = core
            row.append((s, hooks, core))
        yield p, row


def suite_core_oracle(s_max: int, t_max: int, seed: int, trials: int) -> list[Check]:
    size_max = _corpus_max(trials)
    corpus = list(parts.partitions_up_to(size_max))
    bad_core = []
    bad_flag = []
    bad_beta = []
    for p, row in _brute_cores(corpus, s_max):
        if abacus.partition_from_beta_set(abacus.beta_set(p)) != p:
            bad_beta.append((p,))
        lengths = parts.hook_lengths(p).values()
        for s, hooks, oracle_core in row:
            if abacus.core(p, s) != oracle_core:
                bad_core.append((p, s))
            # the body of parts.is_s_core_by_hooks, on hook lengths computed once per p
            hooks_say = all(h % s != 0 for h in lengths)
            if hooks_say != abacus.is_s_core(p, s) or hooks_say != (not hooks):
                bad_flag.append((p, s))
    scale = f"|p| <= {size_max}, s <= {s_max}"
    return [
        _check_row("core-oracle.bead-slide-vs-brute", scale, bad_core, "p, s", "mismatches"),
        _check_row("core-oracle.s-core-tests-agree", scale, bad_flag, "p, s", "mismatches"),
        _check_row("core-oracle.beta-round-trip", scale, bad_beta, "p", "mismatches"),
    ]


def _relation_failures(gen: Callable, s: int, p) -> bool:
    """Whether gen(i, point), i in 0..s-1, breaks a Coxeter relation of the affine
    symmetric group at p: gen may act on s-points or on their coordinate tuples."""
    # generators are pure, so each single image is computed once and shared
    once = [gen(i, p) for i in range(s)]
    for i in range(s):
        if gen(i, once[i]) != p:
            return True
    for i in range(s):
        for j in range(i + 1, s):
            near = (i - j) % s in (1, s - 1)
            if not near:
                if gen(i, once[j]) != gen(j, once[i]):
                    return True
            elif (j + 1) % s != (j - 1) % s:
                if gen(i, gen(j, once[i])) != gen(j, gen(i, once[j])):
                    return True
    return False


def suite_actions(s_max: int, t_max: int, seed: int, trials: int) -> list[Check]:
    rng = random.Random(seed)
    psi_bad, chi_bad, commute_bad, agree_bad, adjacent_bad = [], [], [], [], []
    n_points = 0
    for s in range(2, s_max + 1):
        for i in range(s):
            if alcove_key(act.psi_gen(i, 1, origin(s))) != alcove_key(act.chi_gen(i, 1, origin(s))):
                agree_bad.append((s, i))
        for t in _coprime_ts(s, t_max):
            for _ in range(max(1, trials // 10)):
                p = random_s_point(rng, s)
                n_points += 1
                # a coprime pair and a checked point: the relations run on the unchecked moves
                if _relation_failures(lambda i, c: act._psi_move(i, t, c, s), s, p.coords):
                    psi_bad.append((s, t, p))
                if _relation_failures(lambda i, c: act._chi_move(i, t, c, s), s, p.coords):
                    chi_bad.append((s, t, p))
                a = rng.randrange(s)
                b = rng.randrange(s)
                left = alcove_key(act.psi_gen(a, t, act.chi_gen(b, t, p)))
                right = alcove_key(act.chi_gen(b, t, act.psi_gen(a, t, p)))
                if left != right:
                    commute_bad.append((s, t, a, b, p))
                i = rng.randrange(s)
                if len(separating_hyperplanes(p, act.chi_gen(i, 1, p))) != 1:
                    adjacent_bad.append((s, i, p))
    scale = f"{n_points} random points, s <= {s_max}"
    return [
        _check_row("actions.relations-psi", scale, psi_bad, "s, t, point"),
        _check_row("actions.relations-chi", scale, chi_bad, "s, t, point"),
        _check_row("actions.commutation", scale, commute_bad, "s, t, a, b, point"),
        _check_row("actions.level1-agreement", "origin alcove", agree_bad, "s, i"),
        _check_row("actions.adjacency", scale, adjacent_bad, "s, i, point"),
    ]


def _olsson_rows(s_max: int, t_max: int) -> list[int]:
    """For s = 2..s_max, the number of t in 2..t_max coprime to s: the rows of
    the coprime pairs in the order (s, t)."""
    return [sum(1 for t in range(2, t_max + 1) if math.gcd(s, t) == 1) for s in range(2, s_max + 1)]


def _olsson_pair(rows: list[int], index: int, t_max: int) -> tuple[int, int]:
    """The coprime pair at index in the order (s, t), found from the row counts
    without listing the pairs."""
    s = 2
    while index >= rows[s - 2]:
        index -= rows[s - 2]
        s += 1
    return s, next(islice((t for t in range(2, t_max + 1) if math.gcd(s, t) == 1), index, None))


def suite_olsson(s_max: int, t_max: int, seed: int, trials: int) -> list[Check]:
    rng = random.Random(seed)
    rows = _olsson_rows(s_max, t_max)
    count = sum(rows)
    not_score, descent_diff, not_monotone = [], [], []
    for _ in range(trials):
        s, t = _olsson_pair(rows, rng.randrange(count), t_max)  # the draw of rng.choice over the pair list
        lam = random_s_core(rng, s, 200)
        tcore = abacus.core(lam, t)
        if not abacus.is_s_core(tcore, s):
            not_score.append((s, t, lam))
        nu, trace = orbits.descend_to_t_core(lam, s, t)
        if nu != tcore:
            descent_diff.append((s, t, lam))
        seq = trace.sum_sq_sequence()
        if any(later >= earlier for earlier, later in zip(seq, seq[1:])):
            not_monotone.append((s, t, lam))
    scale = f"{trials} random s-cores, s <= {s_max}, t <= {t_max}"
    return [
        _check_row("olsson.t-core-is-s-core", scale, not_score, "s, t, lambda"),
        _check_row("olsson.descent-matches-abacus", scale, descent_diff, "s, t, lambda"),
        _check_row("olsson.descent-strictly-decreasing", scale, not_monotone, "s, t, lambda"),
    ]


def _vandehey_pairs(s_max: int, t_max: int):
    """The coprime s < t with s <= s_max and t <= t_max, lazily, so that a
    price summed over them can stop at the cap."""
    return (
        (s, t)
        for s in range(2, min(s_max, t_max - 1) + 1)
        for t in range(s + 1, t_max + 1)
        if math.gcd(s, t) == 1
    )


def suite_vandehey(s_max: int, t_max: int, seed: int, trials: int) -> list[Check]:
    kane_bad = []
    count_bad = []
    contain_bad = []
    chain_bad = []
    for s, t in _vandehey_pairs(s_max, t_max):
        kap = orbits.kappa(s, t)
        if parts.size(kap) != (s * s - 1) * (t * t - 1) // 24:
            kane_bad.append((s, t))
        cores = orbits.enumerate_st_cores(s, t)
        if len(cores) != orbits.anderson_count(s, t):
            count_bad.append((s, t))
        if not all(parts.contains(kap, c) for c in cores):
            contain_bad.append((s, t))
    chain_s_max = min(s_max, 5)
    chain_t_max = min(t_max, 5)
    for s in range(2, chain_s_max + 1):
        for t in range(1, chain_t_max + 1):
            if math.gcd(s, t) != 1:
                continue
            kap = orbits.kappa(s, t)
            for p in rhomboid_points(s, t):
                chain = orbits.containment_chain(p, s, t)
                grows = all(
                    parts.contains(big, small)
                    for small, big in zip(chain.cores, chain.cores[1:])
                )
                if not grows or chain.cores[-1] != kap:
                    chain_bad.append((s, t, p))
    grid = f"coprime s < t, s <= {s_max}, t <= {t_max}"
    chain_grid = f"all rhomboid points, s <= {chain_s_max}, t <= {chain_t_max}"
    return [
        _check_row("vandehey.kane-size", grid, kane_bad, "s, t"),
        _check_row("vandehey.anderson-count", grid, count_bad, "s, t"),
        _check_row("vandehey.containment", grid, contain_bad, "s, t"),
        _check_row("vandehey.chains", chain_grid, chain_bad, "s, t, point"),
    ]


def _work_core_oracle(s_max: int, t_max: int, trials: int):
    # each corpus partition against each s: s runners laid out, and the
    # rim-hook oracles scan the at most n^2 cells and hooks of a size-n partition
    n = _corpus_max(trials)
    corpus = sum(1 for _ in parts.partitions_up_to(n))  # at most 915 partitions, n <= 16
    yield corpus * (s_max * (s_max + 1) // 2 + s_max * n * n)


def _work_actions(s_max: int, t_max: int, trials: int):
    # per random point the relation checks apply about 4s^2 moves of s coordinates
    # each; the 32 per move is a conservative allowance for the call, kept as it
    # was so that the same maxima are refused
    for s in range(2, s_max + 1):
        yield len(_coprime_ts(s, t_max)) * max(1, trials // 10) * 4 * s * s * (s + 32)


def _work_olsson(s_max: int, t_max: int, trials: int):
    # (2, 3) or (3, 2) is a coprime pair to draw unless a maximum is below 2 or both are 2
    if min(s_max, t_max) < 2 or max(s_max, t_max) < 3:
        raise DomainError(f"verify --suite olsson needs a coprime (s, t) with "
                          f"2 <= s <= {s_max} and 2 <= t <= {t_max}")
    # the row counts, then per trial the pair's row, up to 40 chi_t steps on s
    # entries, t runners for the t-core and a descent from a core of at most 200 boxes
    yield s_max * t_max + trials * (40 * s_max + t_max + 200)


def _work_vandehey(s_max: int, t_max: int, trials: int):
    # the enumeration's own price per pair, which also covers kappa's span and
    # one containment test per core row; the chains stop at s, t <= 5
    return (orbits._enumeration_work(s, t) for s, t in _vandehey_pairs(s_max, t_max))


# each suite's runner and its price: the price yields closed-form terms of
# work, in the suite's own order, and may refuse the maxima outright
SUITES: dict[str, tuple[Callable[[int, int, int, int], list[Check]], Callable]] = {
    "core-oracle": (suite_core_oracle, _work_core_oracle),
    "actions": (suite_actions, _work_actions),
    "olsson": (suite_olsson, _work_olsson),
    "vandehey": (suite_vandehey, _work_vandehey),
}


def run_suites(names: list[str], s_max: int, t_max: int, seed: int, trials: int) -> list[Check]:
    """Run the named suites, each refused first by its price: when its work passes
    MAX_SCAN (summed from closed forms in the suite's own order until it does)
    or, for olsson, when no coprime (s, t) lies under the maxima to draw from."""
    for name in names:
        total = 0
        for term in SUITES[name][1](s_max, t_max, trials):
            total += term
            check_scan(total, f"verify --suite {name}")
    checks = []
    for name in names:
        checks.extend(SUITES[name][0](s_max, t_max, seed, trials))
    return checks
