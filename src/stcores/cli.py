"""Command-line surface.

Exit codes: 0 success, 1 usage error, an --out file that cannot be written,
or an output that cannot be written: a full disk or a closed stdout (one
"stcores:" line on stderr) or a closed pipe (silent), 2 domain error
(malformed input, non-coprime pair, unsupported s), 3 verification
failure.  These cover runs that are not interrupted: an interrupt (SIGINT)
exits 130 without a traceback.  A closed or full stderr loses the message,
not the code.  Every command accepts --json and then emits
{"input": ..., "result": ..., "meta": ...}.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from itertools import chain

# diagram, verify and json are imported by the commands that use them, so the
# others neither compile nor import them at start-up
from . import abacus, affine_actions as act, alcoves, orbits, partitions as parts
from .errors import DomainError, check_scan

# verify.SUITES' names, in the order `--suite all` runs them
_SUITES = ("core-oracle", "actions", "olsson", "vandehey")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1
    def error(self, message):
        _say(f"{self.format_usage()}{self.prog}: error: {message}")
        sys.exit(1)

    def print_help(self, file=None):
        # argparse ignores a failed write, and the help would then be flushed
        # only at exit, past main: written and flushed here, a full disk is
        # main's exit 1
        file = sys.stdout if file is None else file
        file.write(self.format_help())
        file.flush()


def _say(line: str) -> None:
    """Write one line to stderr; no other function here writes it.  A closed
    stderr, or one that cannot be written, loses the line, and the run keeps
    the exit code it earned."""
    if sys.stderr is None:  # started with fd 2 closed
        return
    try:
        sys.stderr.write(line + "\n")
        sys.stderr.flush()
    except OSError:
        _drain(sys.stderr)


def _drain(stream) -> None:
    """Point the stream's fd at devnull, so that what it still buffers goes
    there and the interpreter's last flush is silent (the recipe in the
    signal docs)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _emit(args, input_obj, result, plain=None, records=None) -> None:
    """Write a command's output; no other function here writes stdout but
    ``_Parser.print_help``, for --help.

    Plain output is the lines of ``plain``, or ``result`` alone.  With
    --json it is the {"input", "result", "meta"} envelope, with meta's s and
    t read from the parsed arguments; given ``records``, they are streamed
    one by one into the result's one empty list, so only the record at hand
    is held, and the bytes add up to json.dumps of the whole payload.
    """
    write = sys.stdout.write  # looked up per call, so a redirected stdout is honoured
    if not args.json:
        for line in (result,) if plain is None else plain:
            write(f"{line}\n")  # one write per line, a syscall apiece when unbuffered
        return
    import json

    meta = {"s": vars(args).get("s"), "t": vars(args).get("t")}
    text = json.dumps({"input": input_obj, "result": result, "meta": meta})
    if records is not None:
        # only meta's ints or nulls follow the result, so its list is the last "[]"
        head, _, text = text.rpartition("[]")
        write(head + "[")
        for n, record in enumerate(records):
            write((", " if n else "") + json.dumps(record))
        text = "]" + text
    write(text + "\n")


_step_line = "step {step}: gen={gen} sset={sset} core={core}".format_map


def _emit_steps(args, input_obj, final_key, final, steps) -> None:
    """Hand ``_emit`` the (generator, s-set text, core text) steps as
    records, each formatted only when its line is due; plain, the final core
    is the last line."""
    records = (
        {"step": n, "gen": i, "sset": sset, "core": core}
        for n, (i, sset, core) in enumerate(steps, start=1)
    )
    plain = chain(map(_step_line, records), (final,))
    _emit(args, input_obj, {final_key: final, "steps": []}, plain=plain, records=records)


def _cmd_core(args) -> int:
    p = parts.from_text(args.partition)
    result = parts.to_text(abacus.core(p, args.s))
    _emit(args, {"partition": args.partition}, result)
    return 0


def _cmd_qset(args) -> int:
    p = parts.from_text(args.partition)
    result = abacus.sset_to_text(abacus.q_set(p, args.s))
    _emit(args, {"partition": args.partition}, result)
    return 0


def _cmd_act(args) -> int:
    point = alcoves.point_from_text(args.point)
    if args.s is not None and args.s != point.s:
        raise DomainError(f"--s {args.s} does not match a point with {point.s} coordinates")
    args.s = point.s  # meta's s: the point's size, given --s or not
    word = act.parse_word(args.word)
    result = alcoves.point_to_text(act.apply_word(word, args.action, args.t, point))
    _emit(args, {"action": args.action, "word": args.word, "point": args.point}, result)
    return 0


def _cmd_kappa(args) -> int:
    _emit(args, {}, parts.to_text(orbits.kappa(args.s, args.t)))
    return 0


def _cmd_count(args) -> int:
    _emit(args, {}, orbits.anderson_count(args.s, args.t))
    return 0


def _cmd_enumerate(args) -> int:
    # each core's text is written as it is formatted, so no list of them is held
    cores = map(parts.to_text_memo(), orbits.enumerate_st_cores(args.s, args.t))
    _emit(args, {}, [], plain=cores, records=cores)
    return 0


def _cmd_orbit_min(args) -> int:
    # the parsed input is not kept: the trace replays the descent from its s-set
    nu, trace = orbits.descend_to_t_core(parts.from_text(args.partition), args.s, args.t)
    # a step prints its s elements and rebuilds its core across the s-set's
    # span: bound the steps, then the replayed spans, before the first byte
    check_scan(len(trace) * args.s, "descent printout")
    check_scan(sum(args.s + max(c) - min(c) for _, _, c in trace._replay()), "descent printout")
    # each step's core is laid out as text straight from the replayed s-set
    steps = ((i, abacus._sset_text(c), abacus._core_text(c, args.s)) for i, _, c in trace._replay())
    _emit_steps(args, {"partition": args.partition}, "t_core", parts.to_text(nu), steps)
    return 0


def _cmd_chain(args) -> int:
    point = alcoves.point_from_text(args.point)
    walk = orbits.containment_chain(point, args.s, args.t)
    core_text = parts.to_text_memo()  # one memo of part names for the whole printout
    steps = (
        (i, abacus._sset_text(p.coords), core_text(core))
        for i, p, core in zip(walk.gens, walk.points[1:], walk.cores[1:])
    )
    _emit_steps(args, {"point": args.point}, "final_core", parts.to_text(walk.cores[-1]), steps)
    return 0


def _cmd_verify(args) -> int:
    if args.s < 2 or args.t < 2 or args.trials < 1:
        _say("stcores verify: error: --s-max and --t-max must be at least 2, --trials at least 1")
        return 1
    from .verify import run_suites

    names = list(_SUITES) if args.suite == "all" else [args.suite]
    checks = run_suites(names, args.s, args.t, args.seed, args.trials)
    rows = [{"check": name, "pass": ok, "detail": detail} for name, ok, detail in checks]
    width = max(len(name) for name, _, _ in checks)
    plain = [
        f"{'PASS' if ok else 'FAIL'}  {name.ljust(width)}  {detail}"
        for name, ok, detail in checks
    ]
    failures = sum(1 for _, ok, _ in checks if not ok)
    plain.append(f"{len(checks) - failures}/{len(checks)} checks passed")
    _emit(args, {"suites": names, "seed": args.seed, "trials": args.trials}, rows, plain)
    return 3 if failures else 0


def _cmd_diagram(args) -> int:
    from . import diagram

    spec = diagram.RenderSpec(s=args.s, depth=args.depth, mode=args.mode, t=args.t)
    svg = diagram.render_svg(spec)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as exc:  # only the file's: a closed stdout still reaches main
            _say(f"stcores: cannot write {args.out}: {exc.strerror or exc}")
            return 1
        result = {"path": args.out, "alcoves": len(diagram.dominant_alcoves(args.depth))}
        plain = [args.out]
    else:
        result = {"svg": svg}
        plain = [svg.rstrip("\n")]
    _emit(args, {"depth": args.depth, "mode": args.mode}, result, plain)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="stcores", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")
        p.set_defaults(func=func)
        return p

    p = add("core", _cmd_core, help="s-core of a partition")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("partition", help="comma-separated parts; empty string for ()")

    p = add("qset", _cmd_qset, help="the s-set Q(lambda) of an s-core")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("partition")

    p = add("act", _cmd_act, help="apply a generator word to an s-point")
    p.add_argument("action", choices=["psi", "chi"])
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--word", default="", help="space-separated generator indices")
    p.add_argument("point", help="e.g. '(0,1,2)'")

    for name, func, help_text in [
        ("kappa", _cmd_kappa, "the largest (s,t)-core"),
        ("count", _cmd_count, "number of (s,t)-cores"),
        ("enumerate", _cmd_enumerate, "all (s,t)-cores, one per line"),
    ]:
        p = add(name, func, help=help_text)
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--t", type=int, required=True)

    p = add("orbit-min", _cmd_orbit_min, help="descend an s-core to its t-core")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("partition")

    p = add("chain", _cmd_chain, help="containment chain from a rhomboid point to the tip")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("point")

    p = add("verify", _cmd_verify, help="run invariant suites")
    p.add_argument("--suite", choices=[*_SUITES, "all"], default="all")
    # stored as s and t, which meta reports for every command
    p.add_argument("--s-max", dest="s", metavar="S_MAX", type=int, default=6)
    p.add_argument("--t-max", dest="t", metavar="T_MAX", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)

    p = add("diagram", _cmd_diagram, help="SVG of dominant alcoves with core labels")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--depth", type=int, default=5, help="number of alcove rows")
    p.add_argument("--mode", choices=["cores", "tcores"], default="cores")
    p.add_argument("--out", help="write the SVG here instead of stdout")

    return parser


def main(argv=None) -> int:
    try:
        if sys.stdout is None:  # started with fd 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        args = _build_parser().parse_args(argv)  # --help and usage errors exit here
        code = args.func(args)
        sys.stdout.flush()  # a closed output is then seen here, not at exit
        return code
    except DomainError as exc:
        _say(f"stcores: {exc}")
        return 2
    except KeyboardInterrupt:
        return 130  # 128 + SIGINT, as a shell reports it
    except OSError as exc:
        # only stdout is written here (--out's errors stay in its command, and
        # _say keeps stderr's); a reader that went away chose to, so a closed
        # pipe is silent
        if not isinstance(exc, BrokenPipeError):
            _say(f"stcores: cannot write output: {exc.strerror or exc}")
        if sys.stdout is not None:
            _drain(sys.stdout)
        return 1


if __name__ == "__main__":
    sys.exit(main())
