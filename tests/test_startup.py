"""What a CLI call loads at start-up, and how it ends when its output cannot
be written or it is interrupted.

Each test runs a fresh interpreter, since the test process has imported
every module already.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import stcores
from conftest import within
from stcores import cli, verify

SRC = str(Path(stcores.__file__).resolve().parent.parent)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))

# Run the package's __main__ on the argv, then on the argv with --json, and
# print the modules loaded after the first run and those the second one added.
CHILD = """
import runpy, sys

def run(argv):
    sys.argv = ["stcores", *argv]
    try:
        runpy.run_module("stcores", run_name="__main__")
    except SystemExit as exc:
        if exc.code:
            raise
    return set(sys.modules)

argv = sys.argv[1:]
plain = run(argv)
with_json = run([*argv, "--json"])
print()
print(" ".join(sorted(plain)))
print(" ".join(sorted(with_json - plain)))
"""

COMMANDS = [
    ["count", "--s", "3", "--t", "4"],
    ["kappa", "--s", "3", "--t", "4"],
    ["qset", "--s", "5", "5,2,2,1"],
    ["core", "--s", "5", "6,6,2,1"],
    ["act", "chi", "--t", "4", "--word", "0", "(0,1,2)"],
    ["chain", "--s", "3", "--t", "4", "(0,1,2)"],
    ["enumerate", "--s", "2", "--t", "3"],
    ["orbit-min", "--s", "3", "--t", "4", "4,2,1,1"],
]
ONLY_WHERE_USED = {"stcores.diagram", "stcores.verify", "fractions", "json"}


def _run(argv, **kwargs):
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=ENV, timeout=60,
                          **kwargs)


@pytest.fixture(scope="module")
def bare_modules():
    """What the bare interpreter loads; site hooks may preload some modules."""
    proc = _run(["-c", "import sys; print(' '.join(sorted(sys.modules)))"], check=True)
    return set(proc.stdout.split())


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_commands_import_only_what_they_run(argv, bare_modules):
    proc = _run(["-c", CHILD, *argv])
    assert (proc.returncode, proc.stderr) == (0, "")
    plain, added = (set(line.split()) for line in proc.stdout.split("\n")[-3:-1])
    assert sorted((plain & ONLY_WHERE_USED) - bare_modules) == []
    # --json adds the json package (json, json.decoder, ..., _json) and nothing else
    assert {name.lstrip("_").partition(".")[0] for name in added} <= {"json"}
    assert "json" in plain | added


@pytest.mark.parametrize("argv", [*COMMANDS, ["diagram", "--s", "3", "--t", "4", "--depth", "3", "--mode", "tcores"],
                                  ["verify", "--suite", "all", "--s-max", "3", "--t-max", "4", "--trials", "5"]],
                         ids=lambda argv: argv[0])
def test_no_command_loads_dataclasses_inspect_or_typing(argv, bare_modules):
    """The value types are plain classes, and annotations name collections.abc,
    so start-up never pays for these three modules and what they import."""
    proc = _run(["-c", CHILD, *argv])
    assert (proc.returncode, proc.stderr) == (0, "")
    plain, added = (set(line.split()) for line in proc.stdout.split("\n")[-3:-1])
    assert sorted(((plain | added) & {"dataclasses", "inspect", "typing"}) - bare_modules) == []


def test_suite_names_are_verify_suites_in_order():
    assert cli._SUITES == tuple(verify.SUITES)


@pytest.mark.parametrize("argv", [
    ["enumerate", "--s", "8", "--t", "11"],  # 3,978 lines, about 150 KB
    ["orbit-min", "--s", "1001", "--t", "2", "1000"],  # 501 long lines
])
def test_closed_output_exits_1_without_a_traceback(argv):
    """As `stcores ... | head -n 1`: the reader takes one line and closes its
    end while the command still has more to write than the pipe holds."""
    proc = subprocess.Popen([sys.executable, "-m", "stcores", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=ENV)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first and (proc.returncode, err) == (1, b"")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_output_closed_before_the_first_byte_exits_1_without_a_traceback(unbuffered):
    """Unbuffered, the first write meets the closed pipe; buffered, a short
    output is written by the last flush, which main does itself, so that one
    does not happen at interpreter exit either."""
    env = dict(ENV, PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "stcores", "kappa", "--s", "3", "--t", "4"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["count", "--s", "3", "--t", "4"],
    ["count", "--s", "3", "--t", "4", "--json"],
    ["enumerate", "--s", "10", "--t", "11"],  # 573 KB, more than a buffer
    ["--help"],
], ids=["count", "count-json", "enumerate", "help"])
@pytest.mark.parametrize("redirect", [
    pytest.param(">/dev/full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")),
    ">&-",
])
def test_an_output_that_cannot_be_written_is_one_stderr_line_and_exit_1(redirect, argv, unbuffered):
    """`>/dev/full`: every write to stdout fails with ENOSPC, the first write
    unbuffered; buffered, a write once the buffer fills or main's flush.  What
    is still buffered then goes to devnull, so the interpreter's last flush
    is silent and does not turn exit 1 into 120.  argparse's --help, which
    would ignore a failed write and leave its flush to exit, is written and
    flushed inside main.  `>&-`: with fd 1 closed the interpreter starts with
    no sys.stdout, which main counts as closed before it parses the argv."""
    argv = ["sh", "-c", f'exec "$0" -m stcores "$@" {redirect}', sys.executable, *argv]
    with within(60, " ".join(argv)):
        proc = subprocess.run(argv, stderr=subprocess.PIPE, text=True, env=dict(ENV, PYTHONUNBUFFERED=unbuffered))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("stcores: cannot write output: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, code", [
    (["kappa", "--s", "4", "--t", "6"], 2),  # a domain error: (4, 6) is not coprime
    (["kappa", "--bogus"], 1),  # a usage error, reported by argparse
], ids=["domain", "usage"])
@pytest.mark.parametrize("redirect", [
    pytest.param("2>/dev/full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")),
    "2>&-",
])
def test_a_lost_error_message_keeps_the_exit_code(redirect, argv, code, unbuffered):
    """With stderr closed or on a full disk the one error message is lost,
    and the run exits with the code it earned, not 1 from a failed print or
    120 from a failed flush at exit.  Nothing, no traceback and no
    "Exception ignored" line, reaches stdout, the one fd still open."""
    argv = ["sh", "-c", f'exec "$0" -m stcores "$@" {redirect}', sys.executable, *argv]
    with within(60, " ".join(argv)):
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=dict(ENV, PYTHONUNBUFFERED=unbuffered))
    assert (proc.returncode, proc.stdout) == (code, "")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_an_interrupt_exits_130_without_a_traceback(unbuffered):
    """SIGINT, sent once the first line is out, finds the command writing its
    4.7 MB into a pipe that holds far less: it exits 130, and the test reads
    on, so the output still buffered drains at exit."""
    proc = subprocess.Popen([sys.executable, "-m", "stcores", "enumerate", "--s", "13", "--t", "11"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(ENV, PYTHONUNBUFFERED=unbuffered))
    try:
        with within(60, "enumerate --s 13 --t 11 under SIGINT"):
            assert proc.stdout.readline()
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate()
    finally:
        proc.kill()
    assert (proc.returncode, err) == (130, b"")
