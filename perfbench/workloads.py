"""The four seeded workloads: inputs, the timed call, and the exact output check.

A run is a fixed number of passes.  Pass ``k`` draws fresh inputs from
``Random(f"{workload}:{seed}:{k}")``, so one seed always gives the same
inputs and many passes average the cost of random inputs.  Random inputs
are drawn near fixed sizes and walk lengths, which keeps the work of a pass
nearly the same from seed to seed.

Checks never call the function they check; the identities are:

* Anderson: there are C(s+t, s)/(s+t) (s,t)-cores;
* Armstrong-Hanusa-Jones (proved by Johnson): their mean size is
  (s+t+1)(s-1)(t-1)/24;
* Kane: the largest one, kappa(s, t), has (s^2-1)(t^2-1)/24 boxes;
* a gallery walk crosses each wall between its start and the rhomboid tip
  exactly once, so its length is the wall count below.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import selectors
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

from stcores import abacus, alcoves, cli, diagram, orbits
from stcores import partitions as parts


def anderson(s: int, t: int) -> int:
    return math.comb(s + t, s) // (s + t)


def kane(s: int, t: int) -> int:
    return (s * s - 1) * (t * t - 1) // 24


def walls_between(p: tuple[int, ...], q: tuple[int, ...], s: int) -> int:
    """Hyperplanes H_ij^k separating two s-points.

    No coordinate difference of an s-point is a multiple of s, so p and q are
    separated by exactly |floor(b/s) - floor(a/s)| walls of the family (i, j).
    """
    return sum(
        abs((q[j] - q[i]) // s - (p[j] - p[i]) // s) for i in range(s) for j in range(i + 1, s)
    )


def rhomboid_point(rng: random.Random, s: int, t: int) -> tuple[int, ...]:
    """A seeded s-point of the level-t rhomboid, built from its gap vector.

    The partial sums of the gaps must be pairwise incongruent mod s; then the
    first coordinate that makes the total s(s-1)/2 is an integer.  So pick
    an order of the residues and, for each step, a gap in [1, t] with the
    right residue.
    """
    residues = [0] + rng.sample(range(1, s), s - 1)
    coords = [0]
    for a, b in zip(residues, residues[1:]):
        d = (b - a) % s
        coords.append(coords[-1] + rng.choice([g for g in (d, d + s, d + 2 * s) if g <= t]))
    first, rem = divmod(s * (s - 1) // 2 - sum(coords), s)
    if rem:
        raise RuntimeError("partial sums were not pairwise incongruent")
    return tuple(first + c for c in coords)


def point_near(rng: random.Random, s: int, t: int, share: float, candidates: int = 21):
    """(walls, point): of seeded rhomboid points, the one whose wall count to the
    tip is nearest ``share`` of the origin's, so the walk length hardly depends
    on the seed."""
    target = alcoves.tip(s, t).coords
    goal = share * walls_between(tuple(range(s)), target, s)
    pool = ((walls_between(p, target, s), p) for p in (rhomboid_point(rng, s, t) for _ in range(candidates)))
    return min(pool, key=lambda wp: abs(wp[0] - goal))


def s_set_vector(rng: random.Random, s: int, size: float) -> list[int]:
    """A seeded s-set whose s-core has about ``size`` boxes.

    Element r + s*k_r for each residue r; a random direction for (k_r) with
    sum 0 is scaled so that |core| = (sum of squares - sum r^2)/2s ~ size.
    """
    v = [rng.gauss(0.0, 1.0) for _ in range(s)]
    mean = sum(v) / s
    v = [x - mean for x in v]
    scale = math.sqrt(2 * size / (s * sum(x * x for x in v)))
    k = [round(x * scale) for x in v]
    k[-1] -= sum(k)
    return [r + s * kr for r, kr in enumerate(k)]


def contains(big, small) -> bool:
    return len(big.parts) >= len(small.parts) and all(b >= a for a, b in zip(small.parts, big.parts))


@dataclass
class Op:
    s: int
    t: int
    arg: object = None
    expect: object = None
    label: str = ""


class Workload:
    name = ""
    pass_seconds = 1.0  # nominal CPU seconds of one pass, used to size runs

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, key) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{key}")

    def pass_ops(self, k: int) -> list[Op]:
        raise NotImplementedError

    def call(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> str | None:
        raise NotImplementedError

    def units(self, op: Op, result) -> int:
        """Work units of one op for the per-s scaling metrics (cores or steps)."""
        return 0


class Enumerate(Workload):
    name = "enumerate"
    unit = "us_per_core"
    pass_seconds = 0.87
    pairs = ((7, 9), (8, 9), (7, 10), (7, 11), (8, 11), (9, 10), (10, 11))
    scales = tuple(sorted({p[0] for p in pairs}))

    def pass_ops(self, k):
        pairs = list(self.pairs)
        self.rng(k).shuffle(pairs)
        return [Op(s, t, label=f"({s},{t})") for s, t in pairs]

    def call(self, op):
        return orbits.enumerate_st_cores(op.s, op.t)

    def check(self, op, cores):
        s, t, n = op.s, op.t, len(cores)
        if n != anderson(s, t):
            return f"{n} cores, Anderson says {anderson(s, t)}"
        sizes = [sum(p.parts) for p in cores]
        if 24 * sum(sizes) != n * (s + t + 1) * (s - 1) * (t - 1):
            return f"total size {sum(sizes)} breaks the mean-size identity"
        if max(sizes) != kane(s, t):
            return f"largest core has {max(sizes)} boxes, Kane says {kane(s, t)}"
        return None

    def units(self, op, cores):
        return len(cores)


class Gallery(Workload):
    name = "gallery"
    unit = "us_per_step"
    pass_seconds = 1.9
    pairs = ((7, 8), (7, 9), (9, 10), (9, 11), (11, 12), (11, 13), (13, 14), (13, 15))
    scales = tuple(sorted({p[0] for p in pairs}))
    # Walk lengths, as shares of the walk from the origin.  s = 11 gets a third
    # start point so that the median op falls inside one group of ops of equal
    # cost rather than in the gap between the s = 9 and s = 11 groups.
    shares = {7: (0.45, 0.6), 9: (0.45, 0.6), 11: (0.45, 0.525, 0.6), 13: (0.45, 0.6)}

    def __init__(self, seed):
        super().__init__(seed)
        self.kappas = {}
        for s, t in self.pairs:
            kap = orbits.kappa(s, t)
            if sum(kap.parts) != kane(s, t):
                raise RuntimeError(f"kappa({s}, {t}) breaks Kane's size formula")
            self.kappas[s, t] = kap

    def pass_ops(self, k):
        rng = self.rng(k)
        return [
            Op(s, t, arg=p, expect=walls, label=f"({s},{t}) {walls} walls")
            for s, t in self.pairs
            for walls, p in (point_near(rng, s, t, share) for share in self.shares[s])
        ]

    def call(self, op):
        return orbits.containment_chain(alcoves.SPoint(op.arg), op.s, op.t)

    def check(self, op, chain):
        if chain.cores[-1] != self.kappas[op.s, op.t]:
            return "walk does not end at kappa(s, t)"
        if len(chain.gens) != op.expect or len(chain.cores) != op.expect + 1:
            return f"{len(chain.gens)} steps, {op.expect} walls separate the start from the tip"
        if not all(contains(big, small) for small, big in zip(chain.cores, chain.cores[1:])):
            return "cores do not grow weakly along the walk"
        return None

    def units(self, op, chain):
        return len(chain.gens)


class Descent(Workload):
    name = "descent"
    unit = "us_per_step"
    pass_seconds = 0.4
    scales = (5, 7, 11, 13)
    sizes = (1e5, 10**5.75, 10**6.5, 10**7.25, 1e8)

    def pass_ops(self, k):
        rng = self.rng(k)
        ops = []
        for s in self.scales:
            t = s + 2
            for size in self.sizes:
                lam = abacus.core_from_s_set(abacus.make_sset(s, s_set_vector(rng, s, size)))
                ops.append(Op(s, t, arg=lam, expect=abacus.core(lam, t), label=f"s={s} |lam|~{size:.1e}"))
        return ops

    def call(self, op):
        return orbits.descend_to_t_core(op.arg, op.s, op.t)

    def check(self, op, result):
        nu, trace = result
        if nu != op.expect:
            return "descent result differs from the abacus t-core"
        seq = trace.sum_sq_sequence()
        if any(later >= earlier for earlier, later in zip(seq, seq[1:])):
            return "sum of squares does not strictly decrease"
        return None

    def units(self, op, result):
        return len(result[1])


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes = b""
    cpu_s: float | None = None
    rss_kb: int | None = None
    timed_out: bool = False


def run_child(argv: list[str], env: dict, timeout: float) -> CliResult:
    """Run a child to completion or kill it at ``timeout``; CPU time from wait4.

    The child's peak RSS comes from childsite/sitecustomize.py over an extra
    pipe, when the child's PYTHONPATH has that directory.
    """
    report_r, report_w = os.pipe()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(env, PERFBENCH_HWM_FD=str(report_w)), pass_fds=(report_w,))
    os.close(report_w)
    chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): [], report_r: []}
    deadline = perf_counter() + timeout
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - perf_counter()
            if remaining <= 0:
                proc.kill()
                timed_out = True
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err, rss = (b"".join(chunks[fd]) for fd in (proc.stdout.fileno(), proc.stderr.fileno(), report_r))
    proc.stdout.close()
    proc.stderr.close()
    os.close(report_r)
    return CliResult(proc.returncode, out, err, usage.ru_utime + usage.ru_stime, int(rss) if rss else None, timed_out)


# Rows of `verify --suite all`: core-oracle 3, actions 5, olsson 3, vandehey 4.
VERIFY_CHECKS = 15


class Cli(Workload):
    """``python -m stcores ...`` as a child process, one at a time."""

    name = "cli"
    pass_seconds = 2.85
    spawns = True
    chain_st = (11, 13)
    orbit_min_size = 1e6
    orbit_min_rows = 600_000  # rows printed over the whole trace, about 2.3 MB

    def __init__(self, seed: int, src: str):
        super().__init__(seed)
        site = os.path.join(os.path.dirname(os.path.abspath(__file__)), "childsite")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, site, os.environ.get("PYTHONPATH")) if p))
        self.ops = self._build_ops(self.rng("argv"))

    def pass_ops(self, k):
        return self.ops

    def _build_ops(self, rng: random.Random) -> list[Op]:
        ops = []

        def add(argv, check, s=0, t=0):
            ops.append(Op(s, t, arg=argv, expect=check, label=" ".join(argv)[:48]))

        add(["count", "--s", "3", "--t", "4"], _exact(f"{anderson(3, 4)}\n"))

        kap = parts.to_text(orbits.kappa(40, 41))
        if sum(map(int, kap.split(","))) != kane(40, 41):
            raise RuntimeError("kappa(40, 41) breaks Kane's size formula")
        add(["kappa", "--s", "40", "--t", "41"], _exact(kap + "\n"))

        lines = [parts.to_text(p) for p in orbits.enumerate_st_cores(8, 11)]
        add(["enumerate", "--s", "8", "--t", "11"],
            _all(_exact("\n".join(lines) + "\n"), _enumerate_identities(8, 11)))

        s, t = self.chain_st
        walls, point = point_near(rng, s, t, 0.6, candidates=41)
        point_text = "(" + ",".join(map(str, point)) + ")"
        chain = orbits.containment_chain(alcoves.SPoint(point), s, t)
        records = _step_records(
            (i, sorted(p.coords), core) for i, p, core in zip(chain.gens, chain.points[1:], chain.cores[1:])
        )
        final = parts.to_text(orbits.kappa(s, t))
        if len(records) != walls or sum(chain.cores[-1].parts) != kane(s, t):
            raise RuntimeError("reference chain breaks the wall count or Kane's size formula")
        chain_argv = ["chain", "--s", str(s), "--t", str(t), point_text]
        add(chain_argv, _exact(_step_text(records, final)), s, t)
        add(chain_argv + ["--json"], _json_result({"final_core": final, "steps": records}), s, t)

        elements = _s_set_near(rng, s, t, self.orbit_min_size, self.orbit_min_rows)
        lam = abacus.core_from_s_set(abacus.make_sset(s, elements))
        add(["qset", "--s", str(s), parts.to_text(lam)], _exact("[" + ",".join(map(str, sorted(elements))) + "]\n"), s, t)
        nu, trace = orbits.descend_to_t_core(lam, s, t)
        if nu != abacus.core(lam, t):
            raise RuntimeError("reference descent differs from the abacus t-core")
        records = _step_records((i, sorted(q.elements), abacus.core_from_s_set(q)) for i, q in trace.steps)
        add(["orbit-min", "--s", str(s), "--t", str(t), parts.to_text(lam)],
            _exact(_step_text(records, parts.to_text(nu))), s, t)

        svg = diagram.render_svg(diagram.RenderSpec(s=3, depth=40, mode="tcores", t=4))
        add(["diagram", "--s", "3", "--t", "4", "--depth", "40", "--mode", "tcores"], _exact(svg))

        add(["verify", "--suite", "all", "--seed", str(self.seed)], _all_pass(VERIFY_CHECKS))
        return ops

    def spawn(self, op, timeout: float):
        return run_child([sys.executable, "-m", "stcores", *op.arg], self.env, timeout)

    def call(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(op.arg)
            except SystemExit as exc:
                code = exc.code
        return CliResult(code, out.getvalue().encode(), err.getvalue().encode())

    def check(self, op, result):
        if result.code != 0:
            return f"exit code {result.code}: {result.stderr[-200:]!r}"
        return op.expect(result.stdout.decode())


def _s_set_near(rng: random.Random, s: int, t: int, size: float, rows: int, candidates: int = 15) -> list[int]:
    """Of seeded s-sets of one core size, the one whose descent trace prints
    nearest ``rows`` rows in all.  The CLI builds and prints every step's core;
    the s-core of an s-set q has about -min(q) rows, so this fixes the cost."""
    def printed_rows(elements):
        lam = abacus.core_from_s_set(abacus.make_sset(s, elements))
        return sum(-min(q.elements) for _, q in orbits.descend_to_t_core(lam, s, t)[1].steps)

    pool = [s_set_vector(rng, s, size) for _ in range(candidates)]
    return min(pool, key=lambda elements: abs(printed_rows(elements) - rows))


def _step_records(steps) -> list[dict]:
    return [
        {"step": n, "gen": i, "sset": "[" + ",".join(map(str, elements)) + "]", "core": parts.to_text(core)}
        for n, (i, elements, core) in enumerate(steps, start=1)
    ]


def _step_text(records, final: str) -> str:
    lines = [f"step {r['step']}: gen={r['gen']} sset={r['sset']} core={r['core']}" for r in records]
    return "\n".join(lines + [final]) + "\n"


def _exact(expected: str):
    def check(out: str) -> str | None:
        if out == expected:
            return None
        return f"output differs from the in-process reference ({len(out)} vs {len(expected)} chars)"

    return check


def _all(*checks):
    def check(out: str) -> str | None:
        return next((err for err in (c(out) for c in checks) if err), None)

    return check


def _enumerate_identities(s: int, t: int):
    def check(out: str) -> str | None:
        sizes = [sum(map(int, line.split(","))) if line else 0 for line in out.split("\n")[:-1]]
        n = len(sizes)
        if n != anderson(s, t) or 24 * sum(sizes) != n * (s + t + 1) * (s - 1) * (t - 1) or max(sizes) != kane(s, t):
            return "enumerate output breaks Anderson, mean-size or Kane identities"
        return None

    return check


def _json_result(expected):
    def check(out: str) -> str | None:
        if json.loads(out)["result"] != expected:
            return "JSON result differs from the in-process reference"
        return None

    return check


def _all_pass(n: int):
    def check(out: str) -> str | None:
        *rows, last = out.rstrip("\n").split("\n")
        if len(rows) != n or not all(row.startswith("PASS  ") for row in rows) or last != f"{n}/{n} checks passed":
            return f"verify did not pass all {n} checks: last line {last!r}"
        return None

    return check


def make(name: str, seed: int, src: str) -> Workload:
    if name == "cli":
        return Cli(seed, src)
    return {"enumerate": Enumerate, "gallery": Gallery, "descent": Descent}[name](seed)


SWEEPS = (Enumerate, Gallery, Descent)
