"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is emitted, that traced
counts repeat exactly, that a corrupted result counts as a failure and that
a hung op is killed.  The file name keeps it out of the repository's own
test collection.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from stcores import orbits  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    monkeypatch.setattr(workloads.Enumerate, "pairs", ((7, 9), (8, 9), (7, 10)))
    monkeypatch.setattr(workloads.Gallery, "pairs", ((7, 8), (7, 9), (9, 10)))
    monkeypatch.setattr(workloads.Descent, "sizes", (1e3, 1e4))
    monkeypatch.setattr(workloads.Cli, "chain_st", (3, 4))
    monkeypatch.setattr(workloads.Cli, "orbit_min_size", 1e3)
    monkeypatch.setattr(workloads.Cli, "orbit_min_rows", 500)


def bench(workload: str, trace: int, seed: int = 1) -> tuple[int, dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)])
    *_, context, result = out.getvalue().splitlines()
    return code, json.loads(context), json.loads(result)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_are_emitted(workload):
    code, context, result = bench(workload, trace=0)
    assert code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == E2E
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert context["fail_ratio"] == 0
    for key in ("commit", "python", "nproc", "wall_s", "cpu_s", "tail_percentile", "ops_beyond_tail"):
        assert key in context


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = [bench(workload, trace=1) for _ in range(2)]
    for code, _, result in runs:
        assert code == 0 and result["correct"]
        assert set(result["metrics"]) == PER_LAYER
    first, second = (r[2]["metrics"] for r in runs)
    counts = [name for name, m in first.items() if m["unit"] in ("count", "bytes")]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert 0.9 < first["trace.self_share"]["value"] <= 1.0


def test_corrupted_results_fail_their_checks():
    w = workloads.Enumerate(1)
    op = w.pass_ops(0)[0]
    cores = orbits.enumerate_st_cores(op.s, op.t)
    assert w.check(op, cores) is None
    assert w.check(op, cores[:-1]) is not None

    w = workloads.Gallery(1)
    op = w.pass_ops(0)[0]
    chain = w.call(op)
    assert w.check(op, chain) is None
    cut = type(chain)(points=chain.points[:-1], cores=chain.cores[:-1], gens=chain.gens[:-1])
    assert w.check(op, cut) is not None

    w = workloads.Descent(1)
    op = w.pass_ops(0)[0]
    nu, trace = w.call(op)
    assert w.check(op, (nu, trace)) is None
    assert w.check(op, (op.arg, trace)) is not None


def test_corrupted_enumerator_raises_fail_ratio(monkeypatch):
    real = orbits.enumerate_st_cores
    monkeypatch.setattr(orbits, "enumerate_st_cores", lambda s, t: real(s, t)[1:])
    code, context, result = bench("enumerate", trace=0)
    assert code != 0 and not result["correct"]
    assert result["failed"] == result["attempted"]
    assert context["fail_ratio"] == 1


def test_hung_child_is_killed():
    child = workloads.run_child([sys.executable, "-c", "import time; time.sleep(60)"], {}, 0.5)
    assert child.timed_out and child.code != 0


def test_hung_in_process_op_is_killed(monkeypatch):
    monkeypatch.setattr(run, "OP_TIMEOUT_S", 0.2)
    w = workloads.Enumerate(1)
    monkeypatch.setattr(w, "call", lambda op: time.sleep(5))
    run.signal.signal(run.signal.SIGALRM, run._alarm)
    sample = run.run_op(w, w.pass_ops(0)[0], spawn=False)
    assert sample.timed_out and sample.error and sample.wall < 2


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "enumerate", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
