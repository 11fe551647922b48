"""Command-line front door: the parse, run, simulate and adequacy commands.

A command line that names a command is parsed by one parser, built for
that command alone; any other meets the top-level parser, which prints
the help or a usage error.  Output is a pure function of the input files
and flags once a seed is fixed; when no seed is given, one is generated
and reported on stderr.  Exit codes: 0 success, 1 diagnostics (usage
error, syntax error, failed adequacy check), 2 evaluation error, 3 fuel
exhaustion, 4 I/O failure (a program read, an --out write, or a write to
stdout, such as one to a pipe closed early), 5 branch explosion during
enumeration.
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


def _statement_json(p, table):
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
    raise TypeError(p)


def _program_json(p, table) -> str:
    """`p` as JSON text with sorted keys.  A `Seq` spine is written by a
    loop, its closing braces last, so a statement list of any length
    nests the encoder no deeper than its deepest statement."""
    head = []
    while isinstance(p, Seq):
        head.append(f'{{"first": {_program_json(p.first, table)}, "kind": "seq", "rest": ')
        p = p.rest
    if isinstance(p, If):
        last = (f'{{"cond": {json.dumps(_bool_json(p.cond), sort_keys=True)}, '
                f'"else": {_program_json(p.else_branch, table)}, "kind": "if", '
                f'"then": {_program_json(p.then_branch, table)}}}')
    elif isinstance(p, While):
        last = (f'{{"body": {_program_json(p.body, table)}, '
                f'"cond": {json.dumps(_bool_json(p.cond), sort_keys=True)}, "kind": "while"}}')
    else:
        last = json.dumps(_statement_json(p, table), sort_keys=True)
    return "".join(head) + last + "}" * len(head)


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


def _number(flag: str, text: str, value: str) -> float:
    """`value`, read from the `flag` value `text`, as a float."""
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"bad {flag} {text!r}: {value!r} is not a number") from None


def _flow_method(text: str):
    if text in ("auto", ""):
        return None
    if text == "exact":
        return ode.EXACT
    if text == "rk4":
        return ode.RungeKutta4()
    if text.startswith("rk4:"):
        return ode.RungeKutta4(_number("--flow", text, text[4:]))
    raise ValueError(f"unknown flow method {text!r}")


def _initial_store(table, overrides):
    values = {}
    for item in overrides:
        name, sep, value = item.partition("=")
        if not sep or name not in table:
            raise ValueError(f"bad --init {item!r}: expected name=value over {list(table.names)}")
        values[name] = _number("--init", item, value)
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
    return smallstep.TimeGrid.regular(*(_number("--grid", text, part) for part in parts))


def _check_of(args, table):
    """The `--check` condition, with its parse errors placed in its own text."""
    try:
        return parse_bool_expr(args.check, table)
    except ParseError as exc:
        raise ValueError(f"--check {args.check!r}: {exc}") from None


# --- commands --------------------------------------------------------------


def cmd_parse(args) -> int:
    program, table = parse_file(args.file)
    if args.json:
        print(f'{{"program": {_program_json(program, table)}, '
              f'"variables": {json.dumps(list(table.names))}}}')
    else:
        text = pretty_print(program, table)  # printed whole or not at all
        print(f"variables: {', '.join(table.names)}\n{text}")
    return 0


def cmd_run(args) -> int:
    if args.format is not None and not args.trace:
        raise ValueError("--format needs --trace")
    program, table = parse_file(args.file)
    store = _initial_store(table, args.init)
    method = _flow_method(args.flow)
    # the time and the fuel are checked before a seed is drawn and printed
    config = Config(program, store, args.time, None)
    smallstep.check_fuel(args.fuel)
    config = dataclasses.replace(config, entropy=from_seed(_seed_of(args)))
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
    statistic, or the ensemble itself when they ask for none -- its
    writer (result, fh) for `args.format`, and the grid of the times it
    reads: the one time of `--hist VAR@T`, the times of `--interval A B`,
    every time of `grid` for a `--check` series and the ensemble dumps.
    That grid keeps `grid`'s start and end, so the statistic finds its
    times in it as it would in `grid`.  The statistic's flags are checked
    here, as the statistic itself checks them, so that a bad one is
    refused before any run is recorded."""
    from . import montecarlo

    def reads(lo, hi):
        return smallstep.TimeGrid(grid.start, grid.end, grid.times[lo:hi])

    as_json = args.format == "json"
    if args.hist is not None and cond is not None:
        raise ValueError("--hist cannot be combined with --check")
    if args.bins is not None and args.hist is None:
        raise ValueError("--bins needs --hist")
    if cond is not None and args.interval is not None:
        window = montecarlo.interval_indices(grid, *args.interval)
        return (lambda ensemble: montecarlo.interval_probability(ensemble, cond, *args.interval),
                _write_json if as_json else _write_interval_csv,
                reads(window.start, window.stop))
    if cond is not None:
        return (lambda ensemble: montecarlo.probability_over_time(ensemble, cond),
                _write_json if as_json else montecarlo.write_series_csv, grid)
    if args.hist is not None:
        var, _, at = args.hist.rpartition("@")
        if not var:
            raise ValueError("--hist expects VAR@T")
        t = _number("--hist", args.hist, at)
        bins = 10 if args.bins is None else args.bins
        montecarlo.check_histogram(table, grid, var, t, bins)
        index = montecarlo._grid_index(grid, t)
        return (lambda ensemble: montecarlo.histogram(ensemble, var, t, bins),
                _write_json if as_json else montecarlo.write_histogram_csv,
                reads(index, index + 1))
    return (lambda ensemble: ensemble,
            montecarlo.write_ensemble_json if as_json else montecarlo.write_ensemble_csv, grid)


def cmd_simulate(args) -> int:
    from . import montecarlo  # the ensemble engine and numpy: only `simulate` runs them

    if args.interval is not None and args.check is None:
        raise ValueError("--interval needs --check")
    program, table = parse_file(args.file)
    cond = None if args.check is None else _check_of(args, table)
    store = _initial_store(table, args.init)
    method = _flow_method(args.flow)
    grid = _regular_grid(args.grid)
    statistic, write, read = _statistic(args, table, grid, cond)
    # refused before a seed is drawn and printed, as run_ensemble would refuse
    # them; the ensemble limit counts the whole --grid, whatever is read of it
    montecarlo.check_ensemble(grid, args.runs, args.parallel)
    smallstep.check_fuel(args.fuel)
    # each run is recorded to the last time the statistic reads, and read at
    # its times alone: a run's point at a grid time is the rerun to that time,
    # whichever other times the grid holds
    ensemble = montecarlo.run_ensemble(
        program, table, store, read, args.runs, _seed_of(args),
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
    disc = denotational.Discretization(args.k)
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
        "rational": True,
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

    def parse_known_args(self, args, namespace=None):
        # argparse drops a "--" even when it is an option's own value, as in
        # --time=--, and hands the option an empty list, never converted
        for arg in args:
            if arg == "--":
                break
            option, sep, value = arg.partition("=")
            if sep and value == "--" and option.startswith("-"):
                self.error(f"argument {option}: expected one argument")
        return super().parse_known_args(args, namespace)


_INIT = ("--init", dict(action="append", default=[], metavar="x=V",
                        help="initial store override (repeatable; default all zeros)"))
_FLOW = ("--flow", dict(default="auto", metavar="exact|rk4:STEP",
                        help="flow method (default: exact when affine, else rk4:1e-3)"))
# the options of the commands that sample; enumeration draws no seed and burns no fuel
_SAMPLING = (_INIT, ("--seed", dict(type=int, default=None, metavar="U64")),
             ("--fuel", dict(type=int, default=smallstep.DEFAULT_FUEL, metavar="K")), _FLOW)

# name -> (help line, handler, the options after FILE as (flag, add_argument keywords))
COMMANDS = {
    "parse": ("parse a program and print its normal form", cmd_parse,
              (("--json", dict(action="store_true", help="print a machine-readable AST")),)),
    "run": ("evaluate one program at one time instant", cmd_run, (
        ("--time", dict(type=float, required=True, metavar="T")),
        ("--trace", dict(action="store_true", help="print the transition chain")),
        ("--format", dict(choices=["text", "json"], default=None)), *_SAMPLING)),
    "simulate": ("run an ensemble and export statistics", cmd_simulate, (
        ("--grid", dict(required=True, metavar="S:E:STEP")),
        ("--runs", dict(type=int, default=1, metavar="N")),
        ("--out", dict(default=None, metavar="PATH")),
        ("--format", dict(choices=["csv", "json"], default="csv")),
        ("--hist", dict(default=None, metavar="VAR@T")),
        ("--bins", dict(type=int, default=None, metavar="B",
                        help="with --hist: the number of bins (default 10)")),
        ("--check", dict(default=None, metavar="EXPR",
                         help="boolean condition; prints its probability over time")),
        ("--interval", dict(type=float, nargs=2, default=None, metavar=("A", "B"),
                            help="with --check: the fraction of runs where it holds at a grid time in [A, B]")),
        ("--parallel", dict(type=int, default=None, metavar="P",
                            help="fan the runs out over min(P, runs // 256, available CPUs) worker "
                                 "processes; serially when that is at most 1")), *_SAMPLING)),
    "adequacy": ("compare enumeration against the measure semantics", cmd_adequacy, (
        ("--k", dict(type=int, default=2, help="discretization arity")),
        ("--unfold", dict(type=int, default=6, metavar="N", help="loop unfolding bound")),
        ("--time", dict(type=float, action="append", default=None, metavar="T")),
        ("--grid", dict(default=None, metavar="S:E:STEP")),
        ("--rational", dict(action="store_true",
                            help="accepted and ignored: weights are always exact rationals")),
        ("--cap", dict(type=int, default=denotational.DEFAULT_BRANCH_CAP,
                       help="the most runs of the functional semantics the enumeration may "
                            "make: the root, then one per resume state and atom")), _INIT, _FLOW)),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in COMMANDS:
        # no command named: the top-level help (exit 0) or a usage error (exit 1)
        top = _ArgumentParser(prog="swhile", description="Interpreter and semantics toolkit for "
                              "a stochastic hybrid while-language.")
        subs = top.add_subparsers(dest="command", required=True)
        for name, (help_line, _, _) in COMMANDS.items():
            subs.add_parser(name, help=help_line)
        top.parse_args(argv)
        # argparse may read a "--" before the command as nothing
        top.error(f"unrecognized arguments: {' '.join(argv)}")
    _, handler, options = COMMANDS[argv[0]]
    parser = _ArgumentParser(prog=f"swhile {argv[0]}")
    parser.add_argument("file")
    for flag, keywords in options:
        parser.add_argument(flag, **keywords)
    args = parser.parse_args(argv[1:])
    try:
        return handler(args)
    except ParseError as exc:
        print(f"{args.file}:{exc}", file=sys.stderr)
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
        print("error: nesting too deep to parse or print", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
