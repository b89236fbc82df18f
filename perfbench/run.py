"""Benchmark of the stcores library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It benchmarks the sources in ``src/`` next to this directory and exits 2
without a result when they are missing.  Workloads (see workloads.py):
``enumerate``, ``gallery``, ``descent`` and ``cli``.  Load comes from this
one process, closed loop, one op at a time.

A run is a fixed number of passes over seeded inputs, about ``--seconds``
of ops on a 2-CPU x86 box at the commit that introduced it.  The op count
depends only on ``--seconds``, so two commits are measured on the same ops
and the same tail percentile.  Every op's output is checked outside its
timed interval; a failed or timed-out op counts in ``failed`` and makes the
exit code 1.

Time metrics are reported at a reference machine speed: a fixed loop of
benchmark code is timed between ops and each time is scaled by REF / loop
(see SPEED_LOOP_REF_S).  ``setup_s`` is the median of five set-ups, one in
this process and four in child processes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each op of
half as many passes twice, untraced and under the layer-boundary tracer (in
alternating order), and prints the per-layer metrics, unscaled; spans go to
``perfbench/out/``.  The last stdout line is the JSON result; the line
before it records the run's context (commit, Python, nproc, CPU and wall
seconds, fail ratio, the tail percentile and its op count, the speed scale).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("enumerate", "gallery", "descent", "cli")
SETUP_REPS = 5
OP_TIMEOUT_S = 30.0
TAIL_BEYOND = 10
INTERP_PROBES = 5
# The speed of the reference box drifts by a quarter within a minute, for
# every process alike.  A fixed loop of small allocations and a sort, timed
# between ops, tracks the library's speed to about 5 %, so time metrics are
# reported at the loop's reference speed: raw time * REF / loop time.
SPEED_LOOP_REF_S = 0.030
SPEED_EVERY_S = 0.4


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


@dataclass
class Sample:
    s: int
    wall: float
    cpu: float
    rss_kb: int | None
    units: int
    stdout_bytes: int
    error: str | None
    timed_out: bool


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _speed_loop() -> int:
    acc = 0
    recent = {}
    for i in range(6000):
        pair = _Pair((i, i + 3, i + 1), frozenset((i, i + 3, i + 1)))
        recent[i & 255] = pair
        acc += len(pair.b) + sorted(pair.a)[0] % 7
    rows = [(i * 7919 % 10007, i, (i, i + 1)) for i in range(20000)]
    rows.sort()
    return acc + sum(row[0] for row in rows[::7])


def timed_loop() -> tuple[float, float]:
    c0, t0 = process_time(), perf_counter()
    _speed_loop()
    return process_time() - c0, perf_counter() - t0


class SpeedProbe:
    """Times the fixed loop after every SPEED_EVERY_S seconds of ops."""

    def __init__(self):
        self.loops: list[tuple[float, float]] = []  # (cpu, wall)
        self._since = math.inf

    def after(self, sample: Sample) -> None:
        self._since += sample.wall
        if self._since >= SPEED_EVERY_S:
            self.loops.append(timed_loop())
            self._since = 0.0

    def scales(self) -> tuple[float, float]:
        """Factors that bring CPU and wall times to the reference speed."""
        return (SPEED_LOOP_REF_S / statistics.median(c for c, _ in self.loops),
                SPEED_LOOP_REF_S / statistics.median(w for _, w in self.loops))


def run_op(w, op, spawn: bool) -> Sample:
    """One op, timed; its output is checked after the clocks stop.

    A full collection first gives every op the same garbage-collector state,
    whatever ran before it.
    """
    result, error, timed_out, rss = None, None, False, None
    gc.collect()
    if spawn:
        t0 = perf_counter()
        result = w.spawn(op, OP_TIMEOUT_S)
        wall = perf_counter() - t0
        cpu, rss, timed_out = result.cpu_s, result.rss_kb, result.timed_out
    else:
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        c0, t0 = process_time(), perf_counter()
        try:
            result = w.call(op)
        except OpTimeout:
            timed_out = True
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            wall, cpu = perf_counter() - t0, process_time() - c0
            signal.setitimer(signal.ITIMER_REAL, 0)
    if timed_out:
        error = f"timed out after {OP_TIMEOUT_S} s"
    if error is None:
        try:
            error = w.check(op, result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    units = w.units(op, result) if error is None else 0
    out_bytes = len(getattr(result, "stdout", b""))
    return Sample(op.s, wall, cpu, rss, units, out_bytes, error and f"{op.label}: {error}", timed_out)


def set_up(name: str, seed: int):
    """Import, seeded inputs of the first pass and one warm-up op."""
    t0 = perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workloads = importlib.import_module("workloads")
    stcores = sys.modules["stcores"]
    if not Path(stcores.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported stcores from {stcores.__file__}, not from {SRC}")
    w = workloads.make(name, seed, str(SRC))
    first = w.pass_ops(0)
    run_op(w, min(first, key=lambda op: (op.s, op.t)), getattr(w, "spawns", False))
    return workloads, w, first, perf_counter() - t0


def passes_for(w, seconds: float) -> int:
    return max(2, round(seconds / w.pass_seconds))


def run_passes(w, first, n_passes: int, body) -> list:
    samples = []
    for k in range(n_passes):
        for op in first if k == 0 else w.pass_ops(k):
            new = body(op)
            samples.extend(new)
            if any(x.timed_out for x in new):
                return samples  # a hang ends the run; it is already a failure
    return samples


def end_to_end(w, first, seconds: float, setup_samples: list[float]) -> tuple[dict, list, dict]:
    spawn = getattr(w, "spawns", False)
    speed = SpeedProbe()

    def body(op):
        sample = run_op(w, op, spawn)
        speed.after(sample)
        return [sample]

    samples = run_passes(w, first, passes_for(w, seconds), body)
    ok = sum(1 for x in samples if x.error is None)
    cpu_scale, wall_scale = speed.scales()
    walls = [x.wall * wall_scale for x in samples]
    cpus = sorted(x.cpu * cpu_scale for x in samples)
    k = max(0, len(cpus) - TAIL_BEYOND - 1)
    if spawn:
        rss_kb = max(x.rss_kb or 0 for x in samples)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (ok / sum(walls), "ops/s"),
        "ops_per_cpu_s": (ok / sum(cpus), "ops/s"),
        "op_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "op_cpu_p50_ms": (statistics.median(cpus) * 1e3, "ms"),
        "op_cpu_tail_ms": (cpus[k] * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MiB"),
    }
    context = {
        "tail_percentile": 100 * (k + 1) / len(cpus),
        "ops_beyond_tail": len(cpus) - k - 1,
        "setup_samples_s": setup_samples,
        "speed_scale": {"cpu": cpu_scale, "wall": wall_scale, "loops": len(speed.loops)},
    }
    return metrics, samples, context


def traced(workloads, w, first, seconds: float, seed: int) -> tuple[dict, list, dict]:
    tracer = tracing.Tracer()
    plain, under = [], []

    def both(op):
        tracer.op += 1
        runs = []
        for traced_now in (False, True) if tracer.op % 2 else (True, False):
            if traced_now:
                with tracer:
                    sample = run_op(w, op, spawn=False)
                under.append(sample)
            else:
                sample = run_op(w, op, spawn=False)
                plain.append(sample)
            runs.append(sample)
        return runs

    samples = run_passes(w, first, math.ceil(passes_for(w, seconds) / 2), both)
    interp_ms = import_ms = 0.0
    if w.name == "cli":
        interp_ms, import_ms = _interp_and_import_ms(workloads, w.env)

    metrics = {}
    layer_ns = 0
    for layer, (calls, ns) in tracer.layer_totals().items():
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_ms"] = (ns / 1e6, "ms")
        layer_ns += ns
    for fn in ("alcoves.separating_hyperplanes", "affine_actions.chi_gen", "abacus.core_from_s_set"):
        metrics[f"{fn}.calls"] = (tracer.calls[fn], "count")
    for fn in ("alcoves.separating_hyperplanes", "abacus.make_sset", "abacus.core_from_s_set",
               "orbits.enumerate_st_cores", "orbits.descend_to_t_core", "diagram.render_svg",
               "partitions.brute_core"):
        metrics[f"{fn}.self_ms"] = (tracer.self_ns[fn] / 1e6, "ms")
    for name in ("alcoves.spoint_built", "abacus.sset_built", "partitions.built", "partitions.parts_built",
                 "abacus.core_from_s_set.boxes_out", "orbits.containment_chain.steps",
                 "orbits.descend_to_t_core.steps"):
        metrics[name] = (tracer.counts[name], "count")
    steps = tracer.counts["orbits.containment_chain.steps"]
    tried = tracer.edges["orbits.containment_chain", "affine_actions.chi_gen"]
    metrics["orbits.containment_chain.candidates_per_step"] = (tried / steps if steps else 0.0, "ratio")
    metrics["cli.interp_start_ms"] = (interp_ms, "ms")
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.stdout_bytes"] = (sum(x.stdout_bytes for x in under), "bytes")
    for cls in workloads.SWEEPS:
        for s in cls.scales:
            mine = [x for x in plain if x.s == s] if cls.name == w.name else []
            units = sum(x.units for x in mine)
            value = sum(x.cpu for x in mine) * 1e6 / units if units else 0.0
            metrics[f"{cls.name}.{cls.unit}.s{s}"] = (value, "us")
    metrics["trace.overhead_ratio"] = (sum(x.cpu for x in under) / sum(x.cpu for x in plain), "ratio")
    metrics["trace.self_share"] = (layer_ns / 1e9 / sum(x.wall for x in under), "ratio")

    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    tracer.write_spans(out / f"spans-{w.name}-seed{seed}.jsonl")
    return metrics, samples, {"spans_kept": len(tracer.spans), "spans_dropped": tracer.spans_dropped}


def _interp_and_import_ms(workloads, env) -> tuple[float, float]:
    """Median child wall time of `-c pass` and of `-c "import stcores.cli"`."""
    runs = {"pass": [], "import stcores.cli": []}
    for _ in range(INTERP_PROBES):
        for code, times in runs.items():
            t0 = perf_counter()
            child = workloads.run_child([sys.executable, "-c", code], env, OP_TIMEOUT_S)
            times.append(perf_counter() - t0)
            if child.code != 0:
                raise RuntimeError(f"python -c {code!r} exited {child.code}")
    start = statistics.median(runs["pass"])
    return start * 1e3, (statistics.median(runs["import stcores.cli"]) - start) * 1e3


def commit() -> str:
    """HEAD of the checkout's git metadata, read from files; 'unknown' without it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_in_children(workloads, args) -> list[float]:
    times = []
    for _ in range(SETUP_REPS - 1):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
        child = workloads.run_child(argv, dict(os.environ), 120.0)
        if child.code != 0:
            raise RuntimeError(f"set-up child exited {child.code}: {child.stderr[-300:]!r}")
        times.append(float(child.stdout.decode().split()[-1]))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "stcores" / "__init__.py").is_file():
        print(f"perfbench: no stcores sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)

    workloads, w, first, setup_s = set_up(args.workload, args.seed)
    setup_s *= SPEED_LOOP_REF_S / timed_loop()[1]
    if args.setup_only:
        print(setup_s)
        return 0
    wall0, cpu0 = perf_counter(), process_time()
    if args.trace:
        metrics, samples, context = traced(workloads, w, first, args.seconds, args.seed)
    else:
        setup_samples = [setup_s] + setup_in_children(workloads, args)
        metrics, samples, context = end_to_end(w, first, args.seconds, setup_samples)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    failures = [x.error for x in samples if x.error]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "ops": len(samples),
        "wall_s": perf_counter() - wall0,
        "cpu_s": process_time() - cpu0,
        "children_cpu_s": children.ru_utime + children.ru_stime,
        "fail_ratio": len(failures) / len(samples),
        **context,
        "failures": failures[:5],
    }
    print(json.dumps(context))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
