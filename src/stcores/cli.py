"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 domain error (malformed input,
non-coprime pair, unsupported s), 3 verification failure.  Every command
accepts --json and then emits {"input": ..., "result": ..., "meta": ...}.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import abacus, affine_actions as act, alcoves, diagram, orbits, partitions as parts
from .errors import DomainError
from .verify import SUITES, run_suites


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(args, input_obj, result, s=None, t=None, plain=None) -> None:
    if args.json:
        payload = {"input": input_obj, "result": result, "meta": {"s": s, "t": t}}
        print(json.dumps(payload))
    else:
        for line in plain if plain is not None else [result]:
            print(line)


def _step_records(steps):
    """One {"step", "gen", "sset", "core"} record per (generator, s-set, core) step."""
    return [
        {"step": n, "gen": i, "sset": abacus.sset_to_text(q), "core": parts.to_text(core)}
        for n, (i, q, core) in enumerate(steps, start=1)
    ]


def _step_lines(records):
    return [f"step {r['step']}: gen={r['gen']} sset={r['sset']} core={r['core']}" for r in records]


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
    _emit(args, {}, result, s=args.s, t=args.t, plain=[str(result)])
    return 0


def _cmd_enumerate(args) -> int:
    cores = [parts.to_text(p) for p in orbits.enumerate_st_cores(args.s, args.t)]
    _emit(args, {}, cores, s=args.s, t=args.t, plain=cores)
    return 0


def _cmd_orbit_min(args) -> int:
    lam = parts.from_text(args.partition)
    nu, trace = orbits.descend_to_t_core(lam, args.s, args.t)
    records = _step_records((i, q, abacus.core_from_s_set(q)) for i, q in trace.steps)
    _emit(
        args,
        {"partition": args.partition},
        {"t_core": parts.to_text(nu), "steps": records},
        s=args.s,
        t=args.t,
        plain=_step_lines(records) + [parts.to_text(nu)],
    )
    return 0


def _cmd_chain(args) -> int:
    point = alcoves.point_from_text(args.point)
    chain = orbits.containment_chain(point, args.s, args.t)
    records = _step_records(
        (i, alcoves.sset_of_point(p), core)
        for i, p, core in zip(chain.gens, chain.points[1:], chain.cores[1:])
    )
    final = parts.to_text(chain.cores[-1])
    _emit(
        args,
        {"point": args.point},
        {"final_core": final, "steps": records},
        s=args.s,
        t=args.t,
        plain=_step_lines(records) + [final],
    )
    return 0


def _cmd_verify(args) -> int:
    if args.s_max < 2 or args.t_max < 2 or args.trials < 1:
        print("stcores verify: error: --s-max and --t-max must be at least 2, --trials at least 1",
              file=sys.stderr)
        return 1
    names = list(SUITES) if args.suite == "all" else [args.suite]
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
    spec = diagram.RenderSpec(s=args.s, depth=args.depth, mode=args.mode, t=args.t)
    svg = diagram.render_svg(spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
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
    p.add_argument("--suite", choices=[*SUITES, "all"], default="all")
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
        return args.func(args)
    except DomainError as exc:
        print(f"stcores: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
