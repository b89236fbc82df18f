"""Command-line surface.

Exit codes: 0 success, 1 usage error, closed output or an --out file that
cannot be written, 2 domain error
(malformed input, non-coprime pair, unsupported s), 3 verification
failure.  Every command accepts --json and then emits {"input": ...,
"result": ..., "meta": ...}.
"""

from __future__ import annotations

import argparse
import os
import sys

# diagram, verify and json are imported by the commands that use them, so the
# others neither compile nor import them at start-up
from . import abacus, affine_actions as act, alcoves, orbits, partitions as parts
from .errors import DomainError, check_scan

# verify.SUITES' names, in the order `--suite all` runs them
_SUITES = ("core-oracle", "actions", "olsson", "vandehey")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _envelope(input_obj, result, s, t) -> dict:
    return {"input": input_obj, "result": result, "meta": {"s": s, "t": t}}


def _emit(args, input_obj, result, s=None, t=None, plain=None) -> None:
    if args.json:
        import json

        print(json.dumps(_envelope(input_obj, result, s, t)))
    else:
        for line in plain if plain is not None else [result]:
            print(line)


def _emit_steps(args, input_obj, final_key, final, steps, s, t) -> None:
    """Write each (generator, s-set, core) step as it comes, then the final core.

    Plain output is one line per step and the final core last.  With --json
    the envelope goes out in pieces, one {"step", "gen", "sset", "core"}
    record per step, that add up to json.dumps of the whole payload.  Only
    the step at hand is held, and its core is written through one memo of
    part names for the whole printout (``partitions.to_text_memo``).
    """
    write = sys.stdout.write  # looked up per call, so a redirected stdout is honoured
    core_text = parts.to_text_memo()
    if args.json:
        import json

        # only meta's ints follow the steps list, so its "[]" is the last one
        envelope = _envelope(input_obj, {final_key: final, "steps": []}, s, t)
        head, _, tail = json.dumps(envelope).rpartition("[]")
        write(head + "[")
    for n, (i, q, core) in enumerate(steps, start=1):
        record = {"step": n, "gen": i, "sset": abacus.sset_to_text(q), "core": core_text(core)}
        if args.json:
            write((", " if n > 1 else "") + json.dumps(record))
        else:
            write("step {step}: gen={gen} sset={sset} core={core}\n".format_map(record))
    write("]" + tail + "\n" if args.json else final + "\n")


def _cmd_core(args) -> int:
    p = parts.from_text(args.partition)
    result = parts.to_text(abacus.core(p, args.s))
    _emit(args, {"partition": args.partition}, result, s=args.s)
    return 0


def _cmd_qset(args) -> int:
    p = parts.from_text(args.partition)
    result = abacus.sset_to_text(abacus.q_set(p, args.s))
    _emit(args, {"partition": args.partition}, result, s=args.s)
    return 0


def _cmd_act(args) -> int:
    point = alcoves.point_from_text(args.point)
    if args.s is not None and args.s != point.s:
        raise DomainError(f"--s {args.s} does not match a point with {point.s} coordinates")
    word = act.parse_word(args.word)
    result = alcoves.point_to_text(act.apply_word(word, args.action, args.t, point))
    _emit(
        args,
        {"action": args.action, "word": args.word, "point": args.point},
        result,
        s=point.s,
        t=args.t,
    )
    return 0


def _cmd_kappa(args) -> int:
    result = parts.to_text(orbits.kappa(args.s, args.t))
    _emit(args, {}, result, s=args.s, t=args.t)
    return 0


def _cmd_count(args) -> int:
    result = orbits.anderson_count(args.s, args.t)
    _emit(args, {}, result, s=args.s, t=args.t)
    return 0


def _cmd_enumerate(args) -> int:
    # plain lines are written as they are formatted, so no list of them is held
    cores = map(parts.to_text_memo(), orbits.enumerate_st_cores(args.s, args.t))
    _emit(args, {}, list(cores) if args.json else None, s=args.s, t=args.t, plain=cores)
    return 0


def _cmd_orbit_min(args) -> int:
    # the parsed input is not kept: the trace replays the descent from its s-set
    nu, trace = orbits.descend_to_t_core(parts.from_text(args.partition), args.s, args.t)
    # a step prints its s elements and rebuilds its core across the s-set's
    # span: bound the steps, then the replayed spans, before the first byte
    check_scan(len(trace) * args.s, "descent printout")
    check_scan(sum(args.s + max(c) - min(c) for _, _, c in trace._replay()), "descent printout")
    steps = ((i, q, abacus.core_from_s_set(q)) for i, q in trace.iter_steps())
    _emit_steps(args, {"partition": args.partition}, "t_core", parts.to_text(nu), steps, args.s, args.t)
    return 0


def _cmd_chain(args) -> int:
    point = alcoves.point_from_text(args.point)
    chain = orbits.containment_chain(point, args.s, args.t)
    steps = (
        (i, alcoves.sset_of_point(p), core)
        for i, p, core in zip(chain.gens, chain.points[1:], chain.cores[1:])
    )
    _emit_steps(args, {"point": args.point}, "final_core", parts.to_text(chain.cores[-1]), steps,
                args.s, args.t)
    return 0


def _cmd_verify(args) -> int:
    if args.s_max < 2 or args.t_max < 2 or args.trials < 1:
        print("stcores verify: error: --s-max and --t-max must be at least 2, --trials at least 1",
              file=sys.stderr)
        return 1
    from .verify import run_suites

    names = list(_SUITES) if args.suite == "all" else [args.suite]
    checks = run_suites(names, args.s_max, args.t_max, args.seed, args.trials)
    rows = [{"check": name, "pass": ok, "detail": detail} for name, ok, detail in checks]
    width = max(len(name) for name, _, _ in checks)
    plain = [
        f"{'PASS' if ok else 'FAIL'}  {name.ljust(width)}  {detail}"
        for name, ok, detail in checks
    ]
    failures = sum(1 for _, ok, _ in checks if not ok)
    plain.append(f"{len(checks) - failures}/{len(checks)} checks passed")
    _emit(args, {"suites": names, "seed": args.seed, "trials": args.trials},
          rows, s=args.s_max, t=args.t_max, plain=plain)
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
            print(f"stcores: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 1
        result = {"path": args.out, "alcoves": len(diagram.dominant_alcoves(args.depth))}
        plain = [args.out]
    else:
        result = {"svg": svg}
        plain = [svg.rstrip("\n")]
    _emit(args, {"depth": args.depth, "mode": args.mode}, result, s=args.s, t=args.t, plain=plain)
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
    p.add_argument("--s-max", type=int, default=6)
    p.add_argument("--t-max", type=int, default=7)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed output is then seen here, not at exit
        return code
    except DomainError as exc:
        print(f"stcores: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away: send what is still buffered to devnull, so the
        # interpreter's last flush is silent (the recipe in the signal docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
