"""Level-t orbits of s-cores, the extremal (s,t)-core, and containment chains.

The crucial facts shaped into algorithms here:

* an s-core's t-core is found by greedily applying second-action generators
  that strictly shrink the sum of squares of the s-set; the unique minimiser
  of that sum in an orbit is the common t-core, and its point lies in the
  level-t rhomboid;
* the (s,t)-cores are exactly the s-cores whose dominant point lies in the
  rhomboid and whose s-set satisfies the bead-closure condition for t, which
  lets them be counted by residue class over the runner multipliers, with no
  partition or s-set built; they are listed by the equivalent description of
  their first-column hook sets as the order ideals of the gaps of the
  semigroup <s,t> (Anderson), walked depth first so that each core is its
  parent's rows plus one new first row;
* from any rhomboid point there is a gallery walk to the rhomboid tip that
  only crosses hyperplanes separating the start from the tip, along which the
  associated cores grow weakly - a constructive proof that the tip's core
  contains every (s,t)-core.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import defaultdict
from itertools import combinations

from .abacus import SSet, _partition_from_first_gaps, core_from_s_set, q_set, size_from_s_set
from .alcoves import SPoint, _check_rhomboid, fold_to_dominant, in_rhomboid, tip
from .affine_actions import _t_cycle
from . import errors
from .errors import DomainError, _Value, _set, _trusted, check_coords, check_count_bits, check_int, check_pair
from .errors import check_scan, count_bits_below
from .partitions import Partition


def residue_multiset(q: SSet, t: int) -> tuple[int, ...]:
    """Counts (n_0, ..., n_{t-1}) of elements of q in each class mod t."""
    check_int(t, "t", 1)
    counts = [0] * t
    for a in q.elements:
        counts[a % t] += 1
    return tuple(counts)


class OrbitDescentTrace(_Value):
    """Record of a greedy descent: the start and the generator word applied.

    The s-set after each step is not stored; ``iter_steps`` replays the word
    from ``initial_sset`` each time it is called, so a trace costs one small
    int per step however large the cores are, and a reader that takes one
    step at a time holds one s-set at a time.
    """

    def __init__(self, initial_sset: SSet, t: int, gens: tuple[int, ...]) -> None:
        _set(self, "initial_sset", initial_sset)
        _set(self, "t", t)
        _set(self, "gens", gens)

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

    The loop runs on c_j = jt - cycle[j], where a move is a sort step.
    Generator i >= 1 improves iff c[i] < c[i-1], and its move swaps the two
    entries.  Generator 0 compares across the wrap: it improves iff
    c[0] < c[s-1] - st, and its move sets c[0], c[s-1] to c[s-1] - st,
    c[0] + st (the affine wall H_{1,s}^t of psi_t).  So the descent sorts
    the sequence C[j + ks] = c_j + kst by adjacent swaps, and its length is
    the number of inversions of C (pairs n < m with C[n] > C[m], n in
    0..s-1): the sum over 0 <= i, j < s of
    max(0, ceil((c_i - c_j)/st) - [j <= i]).

    The greedy scan does not restart at 0 after a move.  It keeps the
    invariant that no generator below the scan position improves, i.e.
    c[0..i-1] is non-decreasing and generator 0 was checked since c[0] and
    c[s-1] last changed.  A move at i changes only entries i-1 and i, hence
    only the status of generators i-1, i and i+1 (mod s); so after it the
    scan resumes at i-1, except that a move at 0 (which touches generator
    s-1) or at s-1 (which touches generator 0) sends it back to 0.  The
    first improving generator the scan meets is therefore always the
    smallest one, and a scan that passes s-1 proves that none improves.

    The loop takes those resumptions in whole runs, with the same word.
    Resuming at i-1 after a swap at 0 < i < s-1 compares the entry x that
    moved down with its new left neighbour, so x keeps moving down while it
    is smaller: an insertion of x into the non-decreasing c[0..i-1], one
    comparison per step.  Once x stops at j >= 1, c[0..i] is non-decreasing
    and generator 0 is untouched, so the scan goes on at i+1.  If x reaches
    entry 0, or a move happens at s-1, generator 0 is checked next; unless
    it moves, the entries below i+1 (below s-2 after a move at s-1) are
    still in order, so the scan goes on there.  A move at 0 cannot be
    followed by another (c[0] < c[s-1] - st now reads c[s-1] - st < c[0]
    before the move), so the scan goes on at 1.
    """
    check_pair(s, t)
    q = q_set(lam, s)  # validates that lam is an s-core
    c = [j * t - a for j, a in enumerate(_t_cycle(q.elements, s, t))]
    st, last = s * t, s - 1
    gens: list[int] = []
    append = gens.append
    cap = errors.MAX_SCAN  # read per call, so a test can lower it
    i = 1  # the next generator >= 1 to check; c[0..i-1] is non-decreasing
    while True:
        if c[0] < c[last] - st:
            c[0], c[last] = c[last] - st, c[0] + st
            append(0)
            if len(gens) > cap:  # each step is O(1), so this bounds the time
                check_scan(len(gens), "descent")
            i = 1
        while i < s:
            x, y = c[i], c[i - 1]
            if x < y:
                c[i] = y
                append(i)
                if len(gens) > cap:
                    check_scan(len(gens), "descent")
                if i == last:
                    c[i - 1] = x
                    i = last - 1 or 1
                    break
                j = i - 1
                while j and x < c[j - 1]:
                    c[j] = c[j - 1]
                    append(j)
                    if len(gens) > cap:
                        check_scan(len(gens), "descent")
                    j -= 1
                c[j] = x
                i += 1
                if not j:
                    break
            else:
                i += 1
        else:
            break
    # every move was a chi_t move, so jt - c_j is still an s-set
    final = _trusted(SSet, s=s, elements=frozenset(j * t - x for j, x in enumerate(c)))
    return core_from_s_set(final), OrbitDescentTrace(initial_sset=q, t=t, gens=tuple(gens))


def same_level_t_orbit(lam: Partition, mu: Partition, s: int, t: int) -> bool:
    """Orbits are classified by their unique minimal element."""
    return descend_to_t_core(lam, s, t)[0] == descend_to_t_core(mu, s, t)[0]


def kappa(s: int, t: int) -> Partition:
    """The extremal (s,t)-core: the core of the rhomboid tip, whose span
    (s-1)t ``tip`` checks."""
    return _partition_from_first_gaps(tip(s, t).coords, s)


def anderson_count(s: int, t: int) -> int:
    """Number of (s,t)-cores: C(s+t, s) / (s+t).

    A count of more than MAX_COUNT_BITS bits is refused, most of them on a
    lower bound before the binomial is built (``errors.count_bits_below``),
    the rest on the count's own length.
    """
    check_pair(s, t)
    n, k = s + t, min(s, t)
    check_count_bits(s, t, count_bits_below(n, k))
    count, rem = divmod(math.comb(n, k), n)
    if rem:
        raise RuntimeError("binomial not divisible by s+t despite coprimality")
    check_count_bits(s, t, count.bit_length())
    return count


def _enumeration_work(s: int, t: int) -> int:
    """The price of listing the (s,t)-cores by the gap walk: one unit per core
    plus one per row, of which an (s,t)-core has at most (s-1)(t-1)/2, one
    per gap."""
    return anderson_count(s, t) * ((s - 1) * (t - 1) // 2 + 1)


def count_st_cores(s: int, t: int) -> int:
    """Number of (s,t)-cores by a count over the runner multipliers (no
    closed form).

    With b_j in class -tj mod s, the core of {b_0, ..., b_{s-1}} is a t-core
    iff each cyclic step has b_j >= b_{j-1} - t, i.e. b_j = b_0 - tj + s*p_j
    with 0 <= p_1 <= ... <= p_{s-1} <= t: a multiset of size s-1 from {0..t}.
    The fixed sum gives b_0 = (s-1)(1+t)/2 - sum(p), an s-set exactly when
    b_0 = 0 mod s (Anderson).  So ways[k][r] counts the multisets of k values
    in {0..v} whose sum is r mod s; admitting v adds to each ways[k] the new
    ways[k-1], rotated by v.  Each of the (t+1)(s-1) updates adds s entries.
    The (s,t)-cores are the (t,s)-cores, so the count runs in the cheaper
    order, and its price is symmetric in s and t.
    """
    check_pair(s, t)
    if t > 1 and (s + 1) * (t - 1) * t < (t + 1) * (s - 1) * s:
        s, t = t, s
    check_scan((t + 1) * (s - 1) * s, "core count")
    ways = [[1] + [0] * (s - 1)] + [[0] * s for _ in range(s - 1)]
    for v in range(t + 1):
        shift = v % s
        for k in range(1, s):
            prev = ways[k - 1]  # rotated right by shift; at 0, prev[0:] + prev[:0] is prev
            ways[k] = [a + b for a, b in zip(ways[k], prev[-shift:] + prev[:-shift])]
    return ways[s - 1][(s - 1) * (1 + t) // 2 % s]


def enumerate_st_cores(s: int, t: int) -> list[Partition]:
    """All (s,t)-cores, sorted by (size, parts), by a depth-first walk over
    the gap poset of the semigroup <s,t>.

    The first-column hook lengths of an (s,t)-core are gaps of <s,t> (the
    positive integers not of the form as + bt with a, b >= 0), closed under
    h -> h-s and h -> h-t while positive, and each such order ideal is the
    hook set of exactly one (s,t)-core (Anderson).  The walk adds hooks in
    increasing order, so it reaches each ideal once, from the ideal without
    its largest hook.  A gap h may join once h-s and h-t are each not a gap
    or already in; a positive h-s or h-t is itself a gap, so the minimal gaps
    are those below min(s, t), and any other gap becomes addable when its
    last lower cover joins.  Each node keeps its addable gaps above its
    largest hook, ascending, and its ideal as a bit mask (bit 0 for every
    h <= 0): a child at h keeps those above h and gains, by bisection, the
    covers h+s, h+t whose other lower cover's bit is set.

    On an n-row core with hooks h_1 > ... > h_n the rows are
    lambda_i = h_i - (n - i), so a new largest hook h leaves every row as it
    is and puts a new first row h - n on top: each core is one tuple prepend
    of its parent, with h - n more boxes.  Each core goes into a bucket of
    its size; the buckets, each sorted, are read in ascending size, so no
    (size, parts) pair is built and no sort runs across sizes.

    The work is priced on the output alone, by ``_enumeration_work``.
    """
    _check_rhomboid(s, t)  # the gap tables below hold st - s - t + 1 < (s-1)t entries
    check_scan(_enumeration_work(s, t), "enumeration")
    top = s * t - s - t  # the largest gap (the Frobenius number); -1 if t = 1
    in_semigroup = bytearray(top + 1)
    for a in range(0, top + 1, s):
        for b in range(a, top + 1, t):
            in_semigroup[b] = 1
    # for each gap, the gaps covering it, each with the bit of its other lower cover (bit 0 if nonpositive)
    covers = [
        [(c, 1 << max(c - d, 0)) for c, d in ((h + s, t), (h + t, s)) if c <= top and not in_semigroup[c]]
        for h in range(top + 1)
    ]
    # keyed sparsely: Kane's bound on the sizes, (s^2-1)(t^2-1)/24, can far exceed the cores' count
    by_size = defaultdict(list, {0: [()]})
    stack = [(list(range(1, min(s, t))), 1, (), 0)]
    while stack:
        addable, ideal, parts, size = stack.pop()
        n = len(parts)
        for k, h in enumerate(addable, start=1):
            child, child_size = (h - n,) + parts, size + h - n
            by_size[child_size].append(child)
            above = addable[k:]
            for c, other in covers[h]:
                if ideal & other:
                    insort(above, c)
            if above:
                stack.append((above, ideal | 1 << h, child, child_size))
    new, put = object.__new__, object.__setattr__
    cores = []
    for boxes in sorted(by_size):
        for parts in sorted(by_size[boxes]):
            # the rows h_i - (n - i) of an ideal of gaps: the parts of an (s,t)-core
            core = new(Partition)
            put(core, "parts", parts)
            cores.append(core)
    return cores


class ContainmentChain(_Value):
    """A gallery walk whose cores grow weakly from start to the extremal core."""

    def __init__(self, points: tuple[SPoint, ...], cores: tuple[Partition, ...],
                 gens: tuple[int, ...]) -> None:
        _set(self, "points", points)
        _set(self, "cores", cores)
        _set(self, "gens", gens)

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
    the tip exactly when tip_b - tip_a < ks, and the tip's gaps all equal t,
    so tip_b - tip_a = t(b - a).  The number of walls between a point and
    the tip is the sum over pairs a < b of
    |floor((tip_b - tip_a)/s) - floor((p_b - p_a)/s)|; it is computed once.
    A step moves the floor of the pair (a, b) by exactly one and no other:
    for any other position n, p_n - p_a and p_n - p_b move by 1, and could
    cross a multiple of s only if p_n shared a class with x or y.  With
    y - x - 1 = -Ms, the pair's floor is -M before the move and -M-1 after,
    and the step's test t(b - a) < -Ms puts the tip's floor at most -M-1:
    so each step removes exactly one separating wall, and none needs a
    recount.

    The scan does not restart at 0.  It keeps the invariant that no
    generator below the scan position qualifies.  A move at i changes only
    classes i-1 and i, hence only the status of generators i-1, i and i+1
    (mod s); so the scan resumes at i-1, except that a move at 0 (which
    touches generator s-1) or at s-1 (which touches generator 0) sends it
    back to 0.  The first generator it meets is the smallest that qualifies.

    Every caller reads the cores (``chain`` prints them, ``verify`` and the
    tests compare them), so they stay eager.  Only the start core is built
    from its first gaps, a span of at most (s-1)t since the walk stays in
    the rhomboid; every later core is the one before it, grown in place.
    Row k's bead lambda_k - k lies on runner (lambda_k - k) mod s, and each
    runner keeps the rows of its beads above the tail, top last.  A step
    moves the class-(i-1) gap x to x+1 and the class-i gap y to y-1, which
    swaps the two runners: the M = (x - y + 1)/s beads x-s, ..., x-Ms = y-1
    leave the top of runner i-1 and go, one place up, on top of runner i.
    Each keeps its rank, so its row gains one box; the one exception is the
    top tail bead -(n+1), n the number of rows, which becomes a new last row
    of length 1.  So a step costs its scan, O(1) per moved bead and one
    tuple copy of the rows.  Walking from the origin, a step takes about
    3 us at s = 7..10, 3.5 us at (13, 14), 5.5 us at (20, 21) and 8 us at
    (30, 31) (Python 3.11, 2-CPU x86 box).

    If no generator ever qualifies before the tip is reached, or a step
    shrinks the core (x < y-1, against Lemma 5.3), or the walk ends away
    from the tip, the construction itself is falsified, so those states
    raise rather than being patched over.
    """
    check_pair(s, t)
    if p.s != s:
        raise DomainError(f"point has {p.s} coordinates, expected {s}")
    q = fold_to_dominant(p)
    if not in_rhomboid(q, t):
        raise DomainError(f"{q} is not in the level-{t} rhomboid")
    target = tip(s, t)  # checks the span (s-1)t of every rhomboid point
    goal = target.coords
    step = goal[1] - goal[0]  # t: the tip is the progression of step t
    coords = list(q.coords)
    position = sorted(range(s), key=lambda n: coords[n] % s)  # index of each class
    # the wall count looks at every pair once; then each step scans at most s
    # generators, moves at most t beads and copies a core of span at most (s-1)t
    check_scan(s * (s - 1) // 2, "wall count")
    remaining = sum(
        abs((goal[b] - goal[a]) // s - (coords[b] - coords[a]) // s) for a, b in combinations(range(s), 2)
    )
    check_scan(remaining * (s + (s - 1) * t), f"gallery walk across {remaining} walls")
    points = [q]
    cores = [_partition_from_first_gaps(q.coords, s)]
    parts = list(cores[0].parts)
    runners: list[list[int]] = [[] for _ in range(s)]  # rows of each runner's beads, top last
    for k in range(len(parts) - 1, -1, -1):
        runners[(parts[k] - k - 1) % s].append(k)
    new, put = object.__new__, object.__setattr__
    gens: list[int] = []
    add_point, add_core, add_gen = points.append, cores.append, gens.append
    i = 0
    for _ in range(remaining):  # one step per wall
        for i in range(i, s):
            a, b = position[i - 1], position[i]
            if step * (b - a) < coords[b] - coords[a] - 1:
                break
        else:
            raise RuntimeError(f"no generator separates {q} from {target}; walk is stuck")
        x, y = coords[a], coords[b]
        moved = (x - y + 1) // s  # the beads x-s, ..., y-1; y - x - 1 = -moved*s
        if moved < 0:
            raise RuntimeError(f"gallery step {i} at {q} shrinks the core, against Lemma 5.3")
        coords[a] = x + 1
        coords[b] = y - 1
        position[i - 1], position[i] = b, a
        # chi_1 keeps classes and sum; at most wall-count unit moves keep the bound
        q = new(SPoint)
        put(q, "coords", tuple(coords))
        add_point(q)
        top = runners[i]
        if y - 1 == -len(parts) - 1:  # the top tail bead: a new last row
            top.append(len(parts))
            parts.append(1)
            moved -= 1
        if moved:
            rows = runners[i - 1]
            for k in rows[-moved:]:
                parts[k] += 1
                top.append(k)
            del rows[-moved:]
        # the bead moves keep the charge-0 abacus of a Young diagram
        lam = new(Partition)
        put(lam, "parts", tuple(parts))
        add_core(lam)
        add_gen(i)
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
    elements = q_set(lam, s).elements  # checks s, then that lam is an s-core
    check_int(i, "generator index", 0, s - 1)
    cycle = _t_cycle(elements, s, 1)
    return cycle[i] <= cycle[i - 1] + 1


def level_orbit_up_to_size(s: int, t: int, max_size: int, start: Partition = Partition()) -> set[Partition]:
    """Members of start's level-t orbit with size at most max_size.

    Breadth-first closure over generator moves from the orbit's minimiser,
    start's t-core (an s-core by Olsson's theorem), pruned at the size bound.
    The bound is safe for reachability from the minimiser because the greedy
    descent is strictly size-decreasing, so every orbit member of size <= n
    connects to the minimiser through cores of size <= n.  The minimiser is
    found by that descent, which lays out no runner per unit of t.

    Each visited s-set is laid out as its t-cycle once; generator i moves t
    from entry a = cycle[i-1] to entry b = cycle[i], changing the size by
    t(t + a - b)/s, so an image is built only when it is within the bound.
    A visited s-set costs s images of s entries, and the closure is refused
    once its visits pass MAX_SCAN in those units.
    """
    check_pair(s, t)
    check_int(max_size, "max_size")
    low = q_set(descend_to_t_core(start, s, t)[0], s)  # the descent checks that start is an s-core
    size = size_from_s_set(low)
    sizes = {low.elements: size} if size <= max_size else {}
    queue = list(sizes)
    cap = errors.MAX_SCAN  # read per call, so a test can lower it
    # a FIFO queue, read while it grows: the list iterator sees every append
    for visited, elements in enumerate(queue, start=1):
        if visited * s * s > cap:
            check_scan(visited * s * s, "orbit closure")
        size = sizes[elements]
        cycle = _t_cycle(elements, s, t)
        for i in range(s):
            a, b = cycle[i - 1], cycle[i]
            image_size = size + t * (t + a - b) // s
            if image_size <= max_size:
                # chi_t: a + t and b - t trade classes (b = a + t mod s) and keep the sum
                image = elements - {a, b} | {a + t, b - t}
                if image not in sizes:
                    check_coords((a + t, b - t))  # a large t can push the pair past the bound
                    sizes[image] = image_size
                    queue.append(image)
    return {core_from_s_set(_trusted(SSet, s=s, elements=elements)) for elements in sizes}
