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
from dataclasses import dataclass

from .abacus import (
    SSet,
    core_from_s_set,
    make_sset,
    q_set,
    size_from_s_set,
)
from .alcoves import (
    SPoint,
    fold_to_dominant,
    in_rhomboid,
    separating_hyperplanes,
    side_of,
    sset_of_point,
    tip,
)
from .affine_actions import chi_gen, chi_on_sset
from .errors import DomainError, check_level, check_pair
from .partitions import Partition


def residue_multiset(q: SSet, t: int) -> tuple[int, ...]:
    """Counts (n_0, ..., n_{t-1}) of elements of q in each class mod t."""
    check_level(t)
    counts = [0] * t
    for a in q.elements:
        counts[a % t] += 1
    return tuple(counts)


def _sumsq(q: SSet) -> int:
    return sum(a * a for a in q.elements)


@dataclass(frozen=True)
class OrbitDescentTrace:
    """Record of a greedy descent: generator applied and s-set after each step."""

    initial: Partition
    final: Partition
    initial_sset: SSet
    steps: tuple[tuple[int, SSet], ...]

    def sum_sq_sequence(self) -> list[int]:
        return [_sumsq(self.initial_sset)] + [_sumsq(q) for _, q in self.steps]

    def __len__(self) -> int:
        return len(self.steps)


def descend_to_t_core(lam: Partition, s: int, t: int) -> tuple[Partition, OrbitDescentTrace]:
    """Greedy orbit descent to the unique sum-of-squares minimiser.

    While some generator strictly decreases the sum of squares, apply the
    smallest such index.  Applying generator i moves t between the elements
    a = (i-1)t and b = it mod s, changing the sum by 2t(a - b + t); it is an
    improvement exactly when b - a > t.  On termination no pair violates the
    bead-closure condition for t, so the result is a t-core, and it equals
    the t-core of lam because every step preserves it.
    """
    check_pair(s, t)
    q = q_set(lam, s)  # validates that lam is an s-core
    by_res = dict(q.by_residue())
    steps: list[tuple[int, SSet]] = []
    while True:
        for i in range(s):
            r_a = ((i - 1) * t) % s
            r_b = (i * t) % s
            a = by_res[r_a]
            b = by_res[r_b]
            if b - a > t:
                # a + t now sits in b's residue class and vice versa
                by_res[r_a], by_res[r_b] = b - t, a + t
                steps.append((i, make_sset(s, by_res.values())))
                break
        else:
            break
    nu = core_from_s_set(make_sset(s, by_res.values()))
    return nu, OrbitDescentTrace(initial=lam, final=nu, initial_sset=q, steps=tuple(steps))


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
    """Yield the s-set of every (s,t)-core exactly once.

    Walk the rhomboid by runner gaps rather than coordinate gaps: listing the
    elements of an s-set as b_0, ..., b_{s-1} with b_j in residue class
    -tj mod s, the underlying core is a t-core iff every cyclic step
    satisfies b_j >= b_{j-1} - t, i.e. b_j = b_{j-1} - t + (non-negative
    multiple of s).  Scanning the non-negative step multipliers m_1..m_{s-1}
    with sum at most t determines b_0 from the fixed total, and the choice is
    an s-set exactly when b_0 lands in residue class 0.
    """
    check_pair(s, t)
    base = (s - 1) * (1 + t) // 2  # b_0 for the all-zero multiplier vector

    def scan(j: int, budget: int, prefix_sum: int, sum_of_prefix_sums: int, b_rel: list[int]):
        if j == s:
            b0 = base - sum_of_prefix_sums
            if b0 % s == 0:
                yield [b0 + rel for rel in b_rel]
            return
        for m in range(budget + 1):
            p = prefix_sum + m
            b_rel.append(-t * j + s * p)
            yield from scan(j + 1, budget - m, p, sum_of_prefix_sums + p, b_rel)
            b_rel.pop()

    yield from scan(1, t, 0, 0, [0])


def count_st_cores(s: int, t: int) -> int:
    """Number of (s,t)-cores by the real rhomboid scan (no closed form)."""
    return sum(1 for _ in _iter_st_core_ssets(s, t))


def enumerate_st_cores(s: int, t: int) -> list[Partition]:
    """All (s,t)-cores, sorted by (size, parts)."""
    cores = [core_from_s_set(make_sset(s, els)) for els in _iter_st_core_ssets(s, t)]
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

    If no generator ever qualifies before the tip is reached the construction
    itself is falsified, so that state raises rather than being patched over.
    """
    check_pair(s, t)
    if p.s != s:
        raise DomainError(f"point has {p.s} coordinates, expected {s}")
    q = fold_to_dominant(p)
    if not in_rhomboid(q, t):
        raise DomainError(f"{q} is not in the level-{t} rhomboid")
    target = tip(s, t)
    points = [q]
    cores = [core_from_s_set(sset_of_point(q))]
    gens: list[int] = []
    remaining = len(separating_hyperplanes(q, target))
    while q != target:
        for i in range(s):
            candidate = chi_gen(i, 1, q)
            walls = separating_hyperplanes(q, candidate)
            if len(walls) != 1:
                raise RuntimeError(f"generator image not adjacent: {q} -> {candidate}")
            wall = walls[0]
            if side_of(q, wall) != side_of(target, wall):
                q = candidate
                break
        else:
            raise RuntimeError(f"no generator separates {q} from {target}; walk is stuck")
        now_remaining = len(separating_hyperplanes(q, target))
        if now_remaining != remaining - 1:
            raise RuntimeError("gallery walk crossed more than one separating wall")
        remaining = now_remaining
        points.append(q)
        cores.append(core_from_s_set(sset_of_point(q)))
        gens.append(i)
    return ContainmentChain(points=tuple(points), cores=tuple(cores), gens=tuple(gens))


def lemma53_check(lam: Partition, i: int, s: int) -> bool:
    """The growth predicate for the level-1 generator i on an s-core.

    With a, b the elements of Q(lambda) congruent to i-1 and i mod s, the
    predicate is b <= a + 1; whenever it holds the generator's image contains
    lambda.
    """
    by_res = q_set(lam, s).by_residue()
    a = by_res[(i - 1) % s]
    b = by_res[i % s]
    return b <= a + 1


def level_orbit_up_to_size(s: int, t: int, max_size: int, start: Partition = Partition()) -> set[Partition]:
    """Members of start's level-t orbit with size at most max_size.

    Breadth-first closure over generator moves, pruned at the size bound.
    The bound is safe for reachability from the minimiser because the greedy
    descent is strictly size-decreasing, so every orbit member of size <= n
    connects to the minimiser through cores of size <= n.
    """
    start_q = q_set(start, s)
    seen = {start_q.elements: size_from_s_set(start_q)}
    frontier = [start_q]
    while frontier:
        next_frontier = []
        for q in frontier:
            for i in range(s):
                nq = chi_on_sset(i, t, q)
                if nq.elements in seen:
                    continue
                sz = size_from_s_set(nq)
                if sz <= max_size:
                    seen[nq.elements] = sz
                    next_frontier.append(nq)
        frontier = next_frontier
    return {core_from_s_set(make_sset(s, els)) for els in seen}
