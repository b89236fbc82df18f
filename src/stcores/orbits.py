"""Level-t orbits of s-cores, the extremal (s,t)-core, and containment chains.

The crucial facts shaped into algorithms here:

* an s-core's t-core is found by greedily applying second-action generators
  that strictly shrink the sum of squares of the s-set; the unique minimiser
  of that sum in an orbit is the common t-core, and its point lies in the
  level-t rhomboid;
* the (s,t)-cores are exactly the s-cores whose dominant point lies in the
  rhomboid and whose s-set satisfies the bead-closure condition for t, which
  lets them be enumerated without ever scanning partitions;
* from any rhomboid point there is a gallery walk to the rhomboid tip that
  only crosses hyperplanes separating the start from the tip, along which the
  associated cores grow weakly - a constructive proof that the tip's core
  contains every (s,t)-core.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .abacus import SSet, _partition_from_first_gaps, core_from_s_set, q_set, size_from_s_set
from .alcoves import (
    SPoint,
    fold_to_dominant,
    in_rhomboid,
    sset_of_point,
    tip,
)
from .affine_actions import _check_generator, _t_cycle, chi_on_sset
from . import errors
from .errors import DomainError, _trusted, check_level, check_pair, check_scan, check_span
from .partitions import Partition


def residue_multiset(q: SSet, t: int) -> tuple[int, ...]:
    """Counts (n_0, ..., n_{t-1}) of elements of q in each class mod t."""
    check_level(t)
    counts = [0] * t
    for a in q.elements:
        counts[a % t] += 1
    return tuple(counts)


@dataclass(frozen=True)
class OrbitDescentTrace:
    """Record of a greedy descent: the start and the generator word applied.

    The s-set after each step is not stored; ``iter_steps`` replays the word
    from ``initial_sset`` each time it is called, so a trace costs one small
    int per step however large the cores are, and a reader that takes one
    step at a time holds one s-set at a time.
    """

    initial_sset: SSet
    t: int
    gens: tuple[int, ...]

    def _replay(self):
        """(generator, b - a) for each step, with the t-cycle after the step
        (one list, moved in place)."""
        t = self.t
        cycle = _t_cycle(self.initial_sset.elements, self.initial_sset.s, t)
        for i in self.gens:
            a, b = cycle[i - 1], cycle[i]
            cycle[i - 1], cycle[i] = b - t, a + t
            yield i, b - a, cycle

    def iter_steps(self):
        """(generator, s-set after the step) for each step, replayed lazily."""
        s = self.initial_sset.s
        # each replayed move is a chi_t move, which keeps the s-set contract
        return ((i, _trusted(SSet, s=s, elements=frozenset(cycle))) for i, _, cycle in self._replay())

    @property
    def steps(self) -> tuple[tuple[int, SSet], ...]:
        """(generator, s-set after the step) for each step, replayed."""
        return tuple(self.iter_steps())

    def sum_sq_sequence(self) -> list[int]:
        """Sum of squares of the s-set before the first step and after each one;
        a move at b - a = d changes it by 2t(t - d)."""
        total = sum(a * a for a in self.initial_sset.elements)
        seq = [total]
        for _, d, _ in self._replay():
            total += 2 * self.t * (self.t - d)
            seq.append(total)
        return seq

    def __len__(self) -> int:
        return len(self.gens)


def descend_to_t_core(lam: Partition, s: int, t: int) -> tuple[Partition, OrbitDescentTrace]:
    """Greedy orbit descent to the unique sum-of-squares minimiser.

    While some generator strictly decreases the sum of squares, apply the
    smallest such index.  Generator i moves t between the t-cycle neighbours
    a = cycle[i-1] and b = cycle[i], changing the sum by 2t(a - b + t); it is
    an improvement exactly when b - a > t.  On termination no pair violates
    the bead-closure condition for t, so the result is a t-core, and it
    equals the t-core of lam because every step preserves it.

    The scan does not restart at 0 after a move.  It keeps the invariant that
    no generator below the scan position improves.  A move at i changes only
    entries i-1 and i of the cycle, hence only the status of generators i-1,
    i and i+1 (mod s); so after it the scan resumes at i-1, where the
    invariant still holds, except that a move at 0 (which touches generator
    s-1) or at s-1 (which touches generator 0) sends it back to 0.  The first
    improving generator the scan meets is therefore always the smallest one,
    and a scan that passes s-1 proves that none improves.
    """
    check_pair(s, t)
    q = q_set(lam, s)  # validates that lam is an s-core
    cycle = _t_cycle(q.elements, s, t)
    gens: list[int] = []
    cap = errors.MAX_SCAN  # read per call, so a test can lower it
    i = 0
    while i < s:
        a, b = cycle[i - 1], cycle[i]
        if b - a > t:
            # a chi_t move: a + t and b - t trade classes, keep the sum, lie between a and b
            cycle[i - 1], cycle[i] = b - t, a + t
            gens.append(i)
            if len(gens) > cap:  # each step is O(1), so this bounds the time
                check_scan(len(gens), "descent")
            i = i - 1 if 0 < i < s - 1 else 0
        else:
            i += 1
    # the cycle went through chi_t moves only, so it is still an s-set
    final = _trusted(SSet, s=s, elements=frozenset(cycle))
    return core_from_s_set(final), OrbitDescentTrace(initial_sset=q, t=t, gens=tuple(gens))


def same_level_t_orbit(lam: Partition, mu: Partition, s: int, t: int) -> bool:
    """Orbits are classified by their unique minimal element."""
    return descend_to_t_core(lam, s, t)[0] == descend_to_t_core(mu, s, t)[0]


def kappa(s: int, t: int) -> Partition:
    """The extremal (s,t)-core: the core of the rhomboid tip."""
    return core_from_s_set(sset_of_point(tip(s, t)))


def anderson_count(s: int, t: int) -> int:
    """Number of (s,t)-cores: C(s+t, s) / (s+t)."""
    check_pair(s, t)
    num = math.comb(s + t, s)
    if num % (s + t):
        raise RuntimeError("binomial not divisible by s+t despite coprimality")
    return num // (s + t)


def _iter_st_core_ssets(s: int, t: int):
    """The elements of the s-set of every (s,t)-core, each once, lazily; the
    checks run on the call.

    With b_j in class -tj mod s, the core of {b_0, ..., b_{s-1}} is a t-core
    iff each cyclic step has b_j >= b_{j-1} - t, i.e. b_j = b_0 - tj + s*p_j
    with 0 <= p_1 <= ... <= p_{s-1} <= t: the C(s+t-1, s-1) multisets of
    size s-1 from {0..t}.  The fixed sum gives b_0 = (s-1)(1+t)/2 - sum(p),
    an s-set exactly when b_0 = 0 mod s: one candidate in s (Anderson).
    """
    check_pair(s, t)
    # every (s,t)-core's s-set lies in the rhomboid, of span at most (s-1)t;
    # capping it also keeps min(s-1, t), hence the binomial's cost, small
    check_span((s - 1) * t)
    check_scan(math.comb(s + t - 1, s - 1) * (s - 1), "enumeration")  # s-1 entries per candidate
    base = (s - 1) * (1 + t) // 2
    shifts = range(-t, -t * s, -t)  # -tj for j = 1..s-1
    return (
        [b0, *[b0 + shift + s * pj for shift, pj in zip(shifts, p)]]
        for p in combinations_with_replacement(range(t + 1), s - 1)
        if (b0 := base - sum(p)) % s == 0
    )


def count_st_cores(s: int, t: int) -> int:
    """Number of (s,t)-cores by the real rhomboid scan (no closed form)."""
    return sum(1 for _ in _iter_st_core_ssets(s, t))


def enumerate_st_cores(s: int, t: int) -> list[Partition]:
    """All (s,t)-cores, sorted by (size, parts)."""
    ssets = _iter_st_core_ssets(s, t)  # checks the pair, the span and the scan
    # each core is rebuilt from fewer beads than its span, at most (s-1)t
    check_scan(anderson_count(s, t) * (s - 1) * t, "enumeration")
    cores = [_partition_from_first_gaps(els, s) for els in ssets]
    cores.sort(key=lambda p: (sum(p.parts), p.parts))
    return cores


@dataclass(frozen=True)
class ContainmentChain:
    """A gallery walk whose cores grow weakly from start to the extremal core."""

    points: tuple[SPoint, ...]
    cores: tuple[Partition, ...]
    gens: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.gens)


def containment_chain(p: SPoint, s: int, t: int) -> ContainmentChain:
    """Walk from p to the rhomboid tip, crossing one separating wall per step.

    At each step the smallest level-1 generator is applied whose (unique)
    separating hyperplane lies between the current point and the tip.  Each
    crossed wall therefore separated the original point from the tip, so it
    meets the rhomboid, so the origin sits on the current point's side, and
    the cores along the walk grow weakly.  The count of separating walls
    drops by exactly one per step, which forces termination at the tip.

    The wall of a generator is found in closed form.  Level-1 generator i
    adds 1 to the coordinate x = i-1 (mod s), at position a, and subtracts 1
    from the coordinate y = i (mod s), at position b; since y - x - 1 is a
    multiple ks of s, the one wall it crosses is p_b - p_a = ks, with the
    current point on its positive side.  That wall separates the point from
    the tip exactly when tip_b - tip_a < ks.  The number of walls between a
    point and the tip is the sum over pairs a < b of
    |floor((tip_b - tip_a)/s) - floor((p_b - p_a)/s)|; it is computed once.
    A step moves the floor of the pair (a, b) by exactly one and no other:
    for any other position n, p_n - p_a and p_n - p_b move by 1, and could
    cross a multiple of s only if p_n shared a class with x or y.  So each
    step rechecks that one pair.

    The scan does not restart at 0.  It keeps the invariant that no
    generator below the scan position qualifies.  A move at i changes only
    classes i-1 and i, hence only the status of generators i-1, i and i+1
    (mod s); so the scan resumes at i-1, except that a move at 0 (which
    touches generator s-1) or at s-1 (which touches generator 0) sends it
    back to 0.  The first generator it meets is the smallest that qualifies.

    Every caller reads the cores (``chain`` prints them, ``verify`` and the
    tests compare them), so they stay eager.  Only the start core is built
    from its first gaps, a span of at most (s-1)t since the walk stays in
    the rhomboid; every later core is the one before it, grown in place.  A
    step moves the class-(i-1) gap x to x+1 and the class-i gap y to y-1,
    which swaps the two runners: exactly the beads at c = x-s, x-2s, ...,
    c >= y-1 move up one place.  Each keeps its rank, so its row gains one
    box; the one exception is the top tail bead -(n+1), n the number of
    rows, which becomes a new last row of length 1.  The row of a bead is
    found by bisection in the ascending list of k - lambda_k.  So a step
    costs its scan, O(log n) per moved bead and one tuple copy of the rows.

    If no generator ever qualifies before the tip is reached, or a step
    removes other than exactly one separating wall, or shrinks the core
    (x < y-1, against Lemma 5.3), or the walk ends away from the tip, the
    construction itself is falsified, so those states raise rather than
    being patched over.
    """
    check_pair(s, t)
    if p.s != s:
        raise DomainError(f"point has {p.s} coordinates, expected {s}")
    q = fold_to_dominant(p)
    if not in_rhomboid(q, t):
        raise DomainError(f"{q} is not in the level-{t} rhomboid")
    target = tip(s, t)  # checks the span (s-1)t of every rhomboid point
    goal = target.coords
    coords = list(q.coords)
    position = sorted(range(s), key=lambda n: coords[n] % s)  # index of each class

    def walls(a: int, b: int) -> int:
        return abs((goal[b] - goal[a]) // s - (coords[b] - coords[a]) // s)

    # the wall count looks at every pair once; then each step scans at most s
    # generators, moves at most t beads and copies a core of span at most (s-1)t
    check_scan(s * (s - 1) // 2, "wall count")
    remaining = sum(walls(a, b) for a, b in combinations(range(s), 2))
    check_scan(remaining * (s + (s - 1) * t), f"gallery walk across {remaining} walls")
    points = [q]
    cores = [_partition_from_first_gaps(q.coords, s)]
    parts = list(cores[0].parts)
    minus = [k - part for k, part in enumerate(parts, start=1)]  # -(bead of row k), ascending
    gens: list[int] = []
    i = 0
    while remaining:
        for i in range(i, s):
            a, b = position[i - 1], position[i]
            if goal[b] - goal[a] < coords[b] - coords[a] - 1:
                break
        else:
            raise RuntimeError(f"no generator separates {q} from {target}; walk is stuck")
        before = walls(a, b)
        x, y = coords[a], coords[b]
        if x < y - 1:
            raise RuntimeError(f"gallery step {i} at {q} shrinks the core, against Lemma 5.3")
        coords[a] = x + 1
        coords[b] = y - 1
        position[i - 1], position[i] = b, a
        if walls(a, b) != before - 1:
            raise RuntimeError("gallery walk crossed more than one separating wall")
        remaining -= 1
        # chi_1 keeps classes and sum; at most wall-count unit moves keep the bound
        q = _trusted(SPoint, coords=tuple(coords))
        points.append(q)
        for c in range(x - s, y - 2, -s):
            if c == -len(parts) - 1:  # the top tail bead: a new last row
                minus.append(len(parts))
                parts.append(1)
            else:
                k = bisect_left(minus, -c)
                minus[k] -= 1
                parts[k] += 1
        # the bead moves keep the charge-0 abacus of a Young diagram
        cores.append(_trusted(Partition, parts=tuple(parts)))
        gens.append(i)
        i = i - 1 if 0 < i < s - 1 else 0
    if q != target:
        raise RuntimeError(f"gallery walk ended at {q}, not at the tip {target}")
    return ContainmentChain(points=tuple(points), cores=tuple(cores), gens=tuple(gens))


def lemma53_check(lam: Partition, i: int, s: int) -> bool:
    """The growth predicate for the level-1 generator i on an s-core.

    With a, b the elements of Q(lambda) congruent to i-1 and i mod s, the
    predicate is b <= a + 1; whenever it holds the generator's image contains
    lambda.
    """
    _check_generator(i, s)
    cycle = _t_cycle(q_set(lam, s).elements, s, 1)
    return cycle[i] <= cycle[i - 1] + 1


def level_orbit_up_to_size(s: int, t: int, max_size: int, start: Partition = Partition()) -> set[Partition]:
    """Members of start's level-t orbit with size at most max_size.

    Breadth-first closure over generator moves, pruned at the size bound.
    The bound is safe for reachability from the minimiser because the greedy
    descent is strictly size-decreasing, so every orbit member of size <= n
    connects to the minimiser through cores of size <= n.
    """
    start_q = q_set(start, s)
    seen = {start_q.elements: start_q}
    frontier = [start_q]
    while frontier:
        next_frontier = []
        for q in frontier:
            for i in range(s):
                nq = chi_on_sset(i, t, q)
                if nq.elements not in seen and size_from_s_set(nq) <= max_size:
                    seen[nq.elements] = nq
                    next_frontier.append(nq)
        frontier = next_frontier
    return {core_from_s_set(q) for q in seen.values()}
