"""Command-line front door: parse, run, simulate, and adequacy subcommands.

Output is a pure function of the input files and flags once a seed is
fixed; when no seed is given, one is generated and reported on stderr.
Exit codes: 0 success, 1 diagnostics (usage error, syntax error, failed
adequacy check), 2 evaluation error, 3 fuel exhaustion, 4 I/O failure,
5 branch explosion during enumeration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import denotational, ode, smallstep
from .entropy import from_seed
from .measure import XPoint, dirac
from .parser import ParseError, parse_bool_expr, parse_file
# `trace` stays importable as cli.trace: bench/tracing.py wraps it by that name
from .smallstep import Config, Err, Normal, TimeStop, trace  # noqa: F401
from .store import make_store
from .syntax import (And, Assign, BoolLit, Call, DiffBlock, If, Leq, Lit, Sample, Seq, Var,
                     VarTable, While, pretty_print)


def _expr_json(e):
    if isinstance(e, Lit):
        return {"kind": "lit", "value": e.value}
    if isinstance(e, Var):
        return {"kind": "var", "name": e.name}
    if isinstance(e, Call):
        return {"kind": "call", "op": e.op, "args": [_expr_json(a) for a in e.args]}
    raise TypeError(e)


def _bool_json(b):
    if isinstance(b, BoolLit):
        return {"kind": "bool", "value": b.value}
    if isinstance(b, Leq):
        return {"kind": "leq", "lhs": _expr_json(b.lhs), "rhs": _expr_json(b.rhs)}
    if isinstance(b, And):
        return {"kind": "and", "lhs": _bool_json(b.lhs), "rhs": _bool_json(b.rhs)}
    return {"kind": "or", "lhs": _bool_json(b.lhs), "rhs": _bool_json(b.rhs)}


def _program_json(p, table):
    if isinstance(p, Assign):
        return {"kind": "assign", "var": p.var.name, "expr": _expr_json(p.expr)}
    if isinstance(p, Sample):
        return {"kind": "sample", "var": p.var.name}
    if isinstance(p, DiffBlock):
        return {
            "kind": "diff",
            "derivatives": {n: _expr_json(d) for n, d in zip(table.names, p.derivs)},
            "duration": _expr_json(p.duration),
        }
    if isinstance(p, Seq):
        return {"kind": "seq", "first": _program_json(p.first, table), "rest": _program_json(p.rest, table)}
    if isinstance(p, If):
        return {
            "kind": "if",
            "cond": _bool_json(p.cond),
            "then": _program_json(p.then_branch, table),
            "else": _program_json(p.else_branch, table),
        }
    if isinstance(p, While):
        return {"kind": "while", "cond": _bool_json(p.cond), "body": _program_json(p.body, table)}
    raise TypeError(p)


def config_text(config: Config, table: VarTable) -> str:
    """One `run --trace` line: program text, store values and t."""
    prog = "<skip>" if config.program is None else pretty_print(config.program, table, inline=True)
    vals = ", ".join(f"{n}={v!r}" for n, v in zip(table.names, config.store))
    return f"{prog} | {vals} | t={config.t!r}"


def config_json(config: Config, table: VarTable) -> str:
    """One `run --trace --format json` line: program text, store vector, t,
    entropy position."""
    return json.dumps(
        {
            "program": ""
            if config.program is None
            else pretty_print(config.program, table, inline=True),
            "store": list(config.store),
            "t": config.t,
            "entropy": config.entropy.describe(),
        },
        sort_keys=True,
    )


def _add_common(sub, seed=True, fuel=True):
    sub.add_argument("--init", action="append", default=[], metavar="x=V",
                     help="initial store override (repeatable; default all zeros)")
    if seed:
        sub.add_argument("--seed", type=int, default=None, metavar="U64")
    if fuel:
        sub.add_argument("--fuel", type=int, default=smallstep.DEFAULT_FUEL, metavar="K")
    sub.add_argument("--flow", default="auto", metavar="exact|rk4:STEP",
                     help="flow method (default: exact when affine, else rk4:1e-3)")


def _flow_method(text: str):
    if text in ("auto", ""):
        return None
    if text == "exact":
        return ode.EXACT
    if text == "rk4":
        return ode.RungeKutta4()
    if text.startswith("rk4:"):
        return ode.RungeKutta4(float(text.split(":", 1)[1]))
    raise ValueError(f"unknown flow method {text!r}")


def _initial_store(table, overrides):
    values = {}
    for item in overrides:
        name, sep, value = item.partition("=")
        if not sep or name not in table:
            raise ValueError(f"bad --init {item!r}: expected name=value over {list(table.names)}")
        try:
            values[name] = float(value)
        except ValueError:
            raise ValueError(f"bad --init {item!r}: {value!r} is not a number") from None
    return make_store(table, **values)


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    import secrets  # on demand: it loads hashlib, hmac, random and base64

    seed = secrets.randbits(64)
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _regular_grid(text: str):
    """The `--grid START:END:STEP` value of `simulate` and `adequacy`, a
    `smallstep.TimeGrid`."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("--grid expects START:END:STEP")
    return smallstep.TimeGrid.regular(*map(float, parts))


def _check_of(args, table):
    """The `--check` condition, with its parse errors placed in its own text."""
    try:
        return parse_bool_expr(args.check, table)
    except ParseError as exc:
        raise ValueError(f"--check {args.check!r}: {exc}") from None


# --- subcommands -----------------------------------------------------------


def cmd_parse(args) -> int:
    program, table = parse_file(args.file)
    if args.json:
        print(json.dumps({"variables": list(table.names),
                          "program": _program_json(program, table)}, sort_keys=True))
    else:
        print(f"variables: {', '.join(table.names)}")
        print(pretty_print(program, table))
    return 0


def cmd_run(args) -> int:
    program, table = parse_file(args.file)
    store = _initial_store(table, args.init)
    seed = _seed_of(args)
    method = _flow_method(args.flow)
    config = Config(program, store, args.time, from_seed(seed))
    line = config_json if args.format == "json" else config_text
    # --trace prints each configuration as it is reached and keeps none,
    # so memory stays flat on long runs, traced or not
    sink = (lambda c: print(line(c, table))) if args.trace else None
    result, steps, _ = smallstep._close(config, args.fuel, method, sink)
    rt = type(result)
    if rt is TimeStop:
        vals = ", ".join(f"{n} = {v!r}" for n, v in zip(table.names, result.store))
        print(f"time-stop: {vals}")
        print(f"steps: {steps}")
        return 0
    if rt is Normal:
        vals = ", ".join(f"{n} = {v!r}" for n, v in zip(table.names, result.store))
        print(f"normal: {vals} (remaining time {result.t!r})")
        print(f"steps: {steps}")
        return 0
    if rt is Err:
        print("err")
        print(f"steps: {steps}")
        return 2
    print(f"out-of-fuel after {result.steps} steps")
    return 3


def _write_interval_csv(result, fh) -> None:
    fh.write(f"fraction,{result.fraction!r}\nsatisfying_runs,{result.satisfying_runs}\n"
             f"runs,{result.runs}\nexcluded,{result.excluded}\n# {result.note}\n")


def _write_json(result, fh) -> None:
    """A statistic as one JSON object, with one key per field."""
    fh.write(json.dumps({f.name: getattr(result, f.name) for f in dataclasses.fields(result)},
                        sort_keys=True) + "\n")


def _statistic(args, table, grid, cond):
    """The result the flags ask for, as a function of the ensemble -- a
    statistic, or the ensemble itself when they ask for none -- and its
    writer (result, fh) for `args.format`.  The statistic's flags are
    checked here, as the statistic itself checks them, so that a bad one is
    refused before any run is recorded."""
    from . import montecarlo

    as_json = args.format == "json"
    if args.hist is not None and cond is not None:
        raise ValueError("--hist cannot be combined with --check")
    if args.bins is not None and args.hist is None:
        raise ValueError("--bins needs --hist")
    if cond is not None and args.interval is not None:
        montecarlo.interval_indices(grid, *args.interval)
        return (lambda ensemble: montecarlo.interval_probability(ensemble, cond, *args.interval),
                _write_json if as_json else _write_interval_csv)
    if cond is not None:
        return (lambda ensemble: montecarlo.probability_over_time(ensemble, cond),
                _write_json if as_json else montecarlo.write_series_csv)
    if args.hist is not None:
        var, _, at = args.hist.rpartition("@")
        if not var:
            raise ValueError("--hist expects VAR@T")
        t = float(at)
        bins = 10 if args.bins is None else args.bins
        montecarlo.check_histogram(table, grid, var, t, bins)
        return (lambda ensemble: montecarlo.histogram(ensemble, var, t, bins),
                _write_json if as_json else montecarlo.write_histogram_csv)
    return (lambda ensemble: ensemble,
            montecarlo.write_ensemble_json if as_json else montecarlo.write_ensemble_csv)


def cmd_simulate(args) -> int:
    from . import montecarlo  # the ensemble engine and numpy: only `simulate` runs them

    if args.interval is not None and args.check is None:
        raise ValueError("--interval needs --check")
    program, table = parse_file(args.file)
    cond = None if args.check is None else _check_of(args, table)
    store = _initial_store(table, args.init)
    seed = _seed_of(args)
    method = _flow_method(args.flow)
    grid = _regular_grid(args.grid)
    statistic, write = _statistic(args, table, grid, cond)
    ensemble = montecarlo.run_ensemble(
        program, table, store, grid, args.runs, seed,
        fuel=args.fuel, flow_method=method, workers=args.parallel,
    )
    # the result exists before its destination is opened, so a run that
    # fails leaves no file
    result = statistic(ensemble)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write(result, fh)
    else:
        write(result, sys.stdout)
    return 0


def cmd_adequacy(args) -> int:
    program, table = parse_file(args.file)
    store = _initial_store(table, args.init)
    method = _flow_method(args.flow)
    if args.time and args.grid:
        raise ValueError("--time cannot be combined with --grid")
    if args.time:
        times = list(args.time)
    elif args.grid:
        times = list(_regular_grid(args.grid).times)
    else:
        times = [0.0, 0.5, 1.0, 1.5, 2.0]
    disc = denotational.Discretization(args.k, exact=args.rational)
    checks = []
    all_pass = True
    try:
        for t in times:
            report = denotational.adequacy_check(
                program, dirac(XPoint(store, t)), disc, args.unfold,
                branch_cap=args.cap, flow_method=method,
            )
            checks.append({"t": t, "tv": report.tv, "pass": report.passed,
                           "operational_support": report.operational_support,
                           "denotational_support": report.denotational_support})
            all_pass = all_pass and report.passed
    except denotational.BranchExplosion as exc:
        print(json.dumps({"error": str(exc), "cap": exc.cap}, sort_keys=True))
        return 5
    print(json.dumps({
        "program": args.file,
        "k": args.k,
        "unfold": args.unfold,
        "times": times,
        "rational": args.rational,
        "checks": checks,
        "pass": all_pass,
    }, sort_keys=True))
    return 0 if all_pass else 1


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit 1, the diagnostics code;
    argparse's own 2 would read as an evaluation error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # argparse drops a "--" even when it is an option's own value, as in
        # --time=--, and hands the option an empty list, never converted
        for arg in sys.argv[1:] if args is None else args:
            if arg == "--":
                break
            option, sep, value = arg.partition("=")
            if sep and value == "--" and option.startswith("-"):
                self.error(f"argument {option}: expected one argument")
        return super().parse_known_args(args, namespace)


class _Subcommand(_ArgumentParser):
    """A subcommand's parser: it reports leftover arguments itself, so the
    usage line names the subcommand, not the top-level parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(
        prog="swhile",
        description="Interpreter and semantics toolkit for a stochastic hybrid while-language.",
    )
    subs = top.add_subparsers(dest="command", required=True, parser_class=_Subcommand)

    p = subs.add_parser("parse", help="parse a program and print its normal form")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="print a machine-readable AST")
    p.set_defaults(func=cmd_parse)

    r = subs.add_parser("run", help="evaluate one program at one time instant")
    r.add_argument("file")
    r.add_argument("--time", type=float, required=True, metavar="T")
    r.add_argument("--trace", action="store_true", help="print the transition chain")
    r.add_argument("--format", choices=["text", "json"], default="text")
    _add_common(r)
    r.set_defaults(func=cmd_run)

    s = subs.add_parser("simulate", help="run an ensemble and export statistics")
    s.add_argument("file")
    s.add_argument("--grid", required=True, metavar="S:E:STEP")
    s.add_argument("--runs", type=int, default=1, metavar="N")
    s.add_argument("--out", default=None, metavar="PATH")
    s.add_argument("--format", choices=["csv", "json"], default="csv")
    s.add_argument("--hist", default=None, metavar="VAR@T")
    s.add_argument("--bins", type=int, default=None, metavar="B",
                   help="with --hist: the number of bins (default 10)")
    s.add_argument("--check", default=None, metavar="EXPR",
                   help="boolean condition; prints its probability over time")
    s.add_argument("--interval", type=float, nargs=2, default=None, metavar=("A", "B"),
                   help="with --check: the fraction of runs where it holds at a grid time in [A, B]")
    s.add_argument("--parallel", type=int, default=None, metavar="P",
                   help="fan the runs out over min(P, runs // 256, available CPUs) worker "
                        "processes; serially when that is at most 1")
    _add_common(s)
    s.set_defaults(func=cmd_simulate)

    a = subs.add_parser("adequacy", help="compare enumeration against the measure semantics")
    a.add_argument("file")
    a.add_argument("--k", type=int, default=2, help="discretization arity")
    a.add_argument("--unfold", type=int, default=6, metavar="N", help="loop unfolding bound")
    a.add_argument("--time", type=float, action="append", default=None, metavar="T")
    a.add_argument("--grid", default=None, metavar="S:E:STEP")
    a.add_argument("--rational", action="store_true", help="exact rational weights")
    a.add_argument("--cap", type=int, default=denotational.DEFAULT_BRANCH_CAP)
    _add_common(a, seed=False, fuel=False)
    a.set_defaults(func=cmd_adequacy)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"{getattr(args, 'file', '<input>')}:{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        # grid/store/flag validation raises ValueError with a usable message
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # input nested deeper than the recursive parser and printers follow
        print("error: nesting too deep to parse", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
