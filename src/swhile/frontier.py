"""Fast-mode recording of many runs at once: a frontier of runs pushed
through the program.

`record` records a chunk of runs in one pass over the program, the way
`denotational._push` pushes a whole measure through it.  A recording holds
what the grid-point reader (`montecarlo._read_recorded`) needs of each run,
and nothing more: each positive-duration segment's block, entry store and
duration, and how the run ended -- normally (with its final store), inside
its last recorded segment (OPEN: it stopped in time there, or that
segment's flow erred), with some other error, or cut by fuel.  For every
run it records exactly what `Recording.of_runs` makes of
`bigstep.eval_big(config, fuel, flow_method, segments)` for that run's
seed, bit for bit.  `eval_big` stays the single-run recorder and the
oracle; this is an engineering path, not a fifth semantics.

State is one float64 column per variable (rows of `X`, one entry per run)
plus per-run arrays: the PRNG counter, the step count, the remaining time
and the outcome.  A work stack of (node, runs) items drives the pass, so
neither a long `Seq` chain nor a long loop recurses:

* an atomic node updates the runs that reach it;
* `If` splits those runs by its guard; the two shares rejoin at the
  continuation already on the stack;
* `While` pushes itself and its body for the runs whose guard holds, so
  it iterates until no active run's guard holds.

The runs of an item are a bool mask, or no mask for every alive run.  An
unmasked node pays no per-run bookkeeping: its step is counted once, in a
scalar shared by every run (a run's step count is that scalar plus its
entry of the step array, the masked steps it took), and its draws go
straight into X.

The arithmetic is eval_expr's, value for value.  numpy computes only
`+ - * /`, `neg` and `sqrt`, which IEEE 754 rounds correctly, so they
match Python's float operations; `ln`, `exp`, `sin` and `cos` apply
`math` per element, because numpy's versions differ from `math`'s in the
last bit on some inputs.  Every call node tests for a non-finite value and
for its own domain errors, as eval_expr does, and a run errs where
eval_expr would raise `Undefined` (so `1 / exp(1000)` errs, where numpy
alone would give 0.0).  `math` is applied only to runs with no error yet
in eval_expr's evaluation order, so no call is made that eval_expr would
not make.  Draws are SplitMix64 in uint64 arithmetic (`draws`),
bit-identical to `entropy._value_at`, and flows go through
`ode.flow_rows`, whose rows match one `ode.flow` call each.

Every node costs a fixed number of numpy operations whatever the number of
runs (masks are tested with `np.count_nonzero`, the cheapest such test on
small arrays), so the pass pays off only on enough runs; the `montecarlo`
docstring states when fast mode records here and when with `eval_big`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import ode
from .entropy import _GAMMA, _MASK64
from .smallstep import Err, Normal, TimeStop, check_fuel
from .store import Undefined, eval_expr
from .syntax import And, Assign, BoolLit, Call, DiffBlock, If, Leq, Lit, Or, Sample, Seq, Var, While

# run outcomes in a Recording: ended normally, ended inside its last
# recorded segment (stopped in time there, or that segment's flow erred),
# erred elsewhere, cut by fuel
NORMAL, OPEN, ERR, CUT = range(4)


@dataclass(frozen=True, slots=True, eq=False)
class Recording:
    """What the grid-point reader needs of consecutive runs, as arrays.

    Segments are grouped by run, in run order, and each run's segments are
    in the order it recorded them.  An OPEN run ended inside its last
    segment, so the reader treats that segment as never ending.
    """

    blocks: tuple  # the distinct blocks that recorded a segment
    segment_blocks: np.ndarray  # intp (segments,): each segment's index into `blocks`
    entries: np.ndarray  # float64 (segments, variables): the store entering each segment
    durations: np.ndarray  # float64 (segments,)
    counts: np.ndarray  # int64 (runs,): each run's number of segments
    outcomes: np.ndarray  # int8 (runs,): NORMAL, OPEN, ERR or CUT
    finals: np.ndarray  # float64 (runs, variables): the NORMAL store; NaN elsewhere

    @classmethod
    def of_runs(cls, runs, width: int) -> "Recording":
        """The Recording of `runs`, one (result, segments) pair per run as
        `eval_big(config, fuel, flow_method, segments)` returned and
        recorded them; `width` is the number of variables.

        A TimeStop is OPEN, and so is an Err on the step that recorded the
        run's last segment: that segment's flow erred.
        """
        blocks, entries, durations, counts, outcomes = [], [], [], [], []
        finals = np.full((len(runs), width), np.nan)
        for r, (result, segments) in enumerate(runs):
            counts.append(len(segments) - 1)
            if len(segments) > 1:
                b, e, d, _ = zip(*segments[:-1])
                blocks += b
                entries += e
                durations += d
            rt = type(result)
            if rt is Normal:
                finals[r] = result.store
                outcomes.append(NORMAL)
            elif rt is TimeStop or (rt is Err and len(segments) > 1
                                    and segments[-2][3] == segments[-1][3]):
                outcomes.append(OPEN)
            else:
                outcomes.append(ERR if rt is Err else CUT)
        distinct = dict(zip(map(id, blocks), blocks))
        index = {key: k for k, key in enumerate(distinct)}
        n = len(blocks)
        return cls(tuple(distinct.values()),
                   np.fromiter(map(index.__getitem__, map(id, blocks)), np.intp, n),
                   np.fromiter(chain.from_iterable(entries), float, n * width).reshape(n, width),
                   np.array(durations, dtype=float), np.array(counts, dtype=np.int64),
                   np.array(outcomes, dtype=np.int8), finals)

    @property
    def widest(self) -> int:
        """The most segments of one run."""
        return int(self.counts.max()) if len(self.counts) else 0


# --- draws --------------------------------------------------------------------

_U64_GAMMA = np.uint64(_GAMMA)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def draws(seeds: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """`entropy._value_at(seed, counter)` for uint64 arrays of seeds and
    counters, bit for bit: uint64 arithmetic wraps modulo 2^64 exactly as
    `_value_at` masks, and the top 53 bits convert to float64 exactly."""
    return _mixed(seeds + (counters + np.uint64(1)) * _U64_GAMMA)


def _mixed(z: np.ndarray) -> np.ndarray:
    """The draws at SplitMix64 states z = seed + (counter + 1) * gamma."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0 ** -53


# Draws are made ahead in blocks: a pass's first refill draws _DRAWS_FIRST
# values per run, and each later one twice as many as the last, up to
# _DRAW_CELLS values in all (and never fewer than _DRAWS_FIRST per run).
_DRAWS_FIRST = 16
_DRAW_CELLS = 2 ** 14


# --- expressions and guards over columns --------------------------------------
#
# A value is a float (from literals only) or a float64 array with one entry
# per run; `good` is None (no test failed) or a bool array that is False for
# every run on which some call node so far was undefined.  `live` is the
# bool array of the runs being evaluated: `math` is applied only to the
# live runs that are still good.

def _math(fn, a, live, good):
    """fn applied per element to the live, good runs of array `a`; NaN at
    every other run and wherever fn overflows."""
    idx = np.flatnonzero(live if good is None else live & good)
    out = np.full(len(live), np.nan)
    values = a[idx].tolist()
    try:
        out[idx] = list(map(fn, values))
    except OverflowError:  # math.exp: eval_expr's "exp overflow"
        out[idx] = [_or_inf(fn, v) for v in values]
    return out


def _or_inf(fn, v):
    try:
        return fn(v)
    except OverflowError:
        return math.inf


_MATH = {"ln": math.log, "sin": math.sin, "cos": math.cos, "exp": math.exp}


def _none_good(live):
    return np.zeros(len(live), dtype=bool)


def _value(e, X, live, good=None):
    """(value, good) of expression `e` on every run, as eval_expr computes
    it; runs where eval_expr raises `Undefined` are cleared in `good`."""
    t = type(e)
    if t is Var:
        return X[e.index], good
    if t is Lit:
        return e.value, good
    op, args = e.op, e.args
    if op == "/":
        d, good = _value(args[1], X, live, good)  # eval_expr tests the divisor first
        if not isinstance(d, np.ndarray):
            if d == 0.0:
                return math.nan, _none_good(live)
        else:
            nonzero = d != 0.0
            good = nonzero if good is None else good & nonzero
        n, good = _value(args[0], X, live, good)
        v = n / d
    elif len(args) == 2:
        a, good = _value(args[0], X, live, good)
        b, good = _value(args[1], X, live, good)
        v = a + b if op == "+" else a - b if op == "-" else a * b
    else:
        a, good = _value(args[0], X, live, good)
        if not isinstance(a, np.ndarray):
            # a constant call: eval_expr's own answer, if some run gets here
            if good is not None and not np.count_nonzero(live & good):
                return math.nan, good
            try:
                return eval_expr(Call(op, (Lit(a),)), ()), good
            except Undefined:
                return math.nan, _none_good(live)
        if op == "neg":
            v = -a
        elif op == "sqrt":
            v = np.sqrt(a)  # NaN below zero, where eval_expr raises too
        else:
            if op == "ln":
                positive = a > 0.0
                good = positive if good is None else good & positive
            v = _math(_MATH[op], a, live, good)
    if not isinstance(v, np.ndarray):
        return v, (good if math.isfinite(v) else _none_good(live))
    finite = np.isfinite(v)
    return v, finite if good is None else good & finite


def _truth(b, X, live, good=None):
    """(truth, good) of condition `b` on every run, as eval_bool; And and Or
    evaluate both operands, so an undefined one poisons the condition."""
    t = type(b)
    if t is BoolLit:
        return b.value, good
    if t is Leq:
        lhs, good = _value(b.lhs, X, live, good)
        rhs, good = _value(b.rhs, X, live, good)
        return lhs <= rhs, good
    lhs, good = _truth(b.lhs, X, live, good)
    rhs, good = _truth(b.rhs, X, live, good)
    if t is And:
        return lhs & rhs, good
    return lhs | rhs, good


# --- the frontier --------------------------------------------------------------

def record(program, store0, t: float, seeds, fuel: int, flow_method=None) -> Recording:
    """Record one run per seed from `store0` up to time `t`, as
    `eval_big(Config(program, store0, t, from_seed(seed)), fuel,
    flow_method, segments)` records it (see the module docstring)."""
    check_fuel(fuel)
    return _Pass(store0, t, seeds, fuel, flow_method).run(program)


class _Pass:
    """The state of one frontier pass over the program."""

    def __init__(self, store0, t, seeds, fuel, flow_method):
        runs, width = len(seeds), len(store0)
        self.runs, self.width, self.fuel, self.flow_method = runs, width, fuel, flow_method
        self.X = np.empty((width, runs))
        self.X[:] = np.asarray(store0, dtype=float)[:, None]
        self.seeds = np.array([s & _MASK64 for s in seeds], dtype=np.uint64)
        # Each run's PRNG counter is base + pos - (its offset into `table`):
        # `table` holds the next `ahead` draws of every run from its counter
        # at the last refill, `base`, and `pos` indexes its next draw.
        self.base = np.zeros(runs, dtype=np.uint64)
        self.offsets = np.arange(runs, dtype=np.int64)
        self.pos = self.offsets.copy()
        self.table = np.zeros(0)
        self.ahead = 0
        self.drawn = 0  # an upper bound on the draws of every run since the refill
        self.steps = np.zeros(runs, dtype=np.int64)  # masked steps only (see run)
        self.left = np.full(runs, float(t))  # remaining time
        self.outcomes = np.full(runs, NORMAL, dtype=np.int8)
        self.alive = np.ones(runs, dtype=bool)  # replaced, never changed in place
        self.count = runs  # alive runs
        self.segments = []  # (block, runs, entry stores, durations), as recorded

    def stop(self, rows, outcome):
        """End the runs in bool array `rows` with `outcome`."""
        self.outcomes[rows] = outcome
        self.alive = self.alive & ~rows
        self.count -= np.count_nonzero(rows)

    def fail(self, live, good):
        """End the live runs that are not good with ERR; the rest of `live`."""
        if good is None or np.count_nonzero(good) == self.runs:
            return live
        bad = live & ~good
        if np.count_nonzero(bad):
            self.stop(bad, ERR)
            return live ^ bad
        return live

    def refill(self):
        """Draw every run's next `ahead` values at once, twice as many as at
        the last refill, up to _DRAW_CELLS in all."""
        counters = self.base + (self.pos - self.offsets).astype(np.uint64)
        self.ahead = max(_DRAWS_FIRST, min(2 * self.ahead, _DRAW_CELLS // self.runs))
        self.table = draws(self.seeds[:, None],
                           counters[:, None] + np.arange(self.ahead, dtype=np.uint64)).ravel()
        self.base = counters
        self.offsets = np.arange(0, self.runs * self.ahead, self.ahead, dtype=np.int64)
        self.pos = self.offsets.copy()
        self.drawn = 0

    def split(self, stack, mask, live, g, then_node, else_node):
        """Push `else_node` for the live runs where `g` fails, if any, then
        `then_node` for those where it holds; return the mask given to
        `then_node`, or False if it got no runs.  A share that is every
        alive run keeps the mask None."""
        then = live & g
        n = np.count_nonzero(then)
        if mask is None:
            if n == self.count:
                stack.append((then_node, None))
                return None
            total = self.count  # an unmasked share is every alive run
        else:
            total = np.count_nonzero(live)
        if n < total and else_node is not None:
            stack.append((else_node, live ^ then))
        if not n:
            return False
        stack.append((then_node, then))
        return then

    def run(self, program) -> Recording:
        X, steps, fuel = self.X, self.steps, self.fuel
        # A run's steps are `shared`, the nodes that every alive run took
        # (mask None), plus its entry of `steps`, the masked nodes it took.
        shared = 0
        most = 0  # an upper bound on the steps of every alive run
        # (node, runs): the runs are a non-empty bool mask, or None for every
        # alive run
        stack = [(program, None)]
        with np.errstate(all="ignore"):
            while stack and self.count:
                node, mask = stack.pop()
                nt = type(node)
                if nt is Seq:
                    stack.append((node.rest, mask))
                    stack.append((node.first, mask))
                    continue
                if mask is None:
                    live = self.alive
                    shared += 1
                else:
                    live = mask
                    if self.count < self.runs:
                        live = mask & self.alive
                        if not np.count_nonzero(live):
                            continue
                    steps += live
                most += 1
                if most > fuel:
                    over = live & (steps > fuel - shared)
                    if np.count_nonzero(over):
                        self.stop(over, CUT)
                        live = live ^ over
                    most = int(steps[self.alive].max()) + shared if self.count else 0
                    if not np.count_nonzero(live):
                        continue
                if nt is Assign:
                    v, good = _value(node.expr, X, live)
                    live = self.fail(live, good)
                    if mask is None:
                        X[node.var.index] = v
                    else:
                        np.copyto(X[node.var.index], v, where=live)
                elif nt is Sample:
                    if self.drawn == self.ahead:
                        self.refill()
                    self.drawn += 1
                    pos = self.pos
                    if mask is None:
                        # every pos is in range, so "clip" clips nothing; it
                        # spares the copy of `out` that the default "raise" makes
                        self.table.take(pos, out=X[node.var.index], mode="clip")
                        pos += 1
                    else:
                        np.copyto(X[node.var.index], self.table.take(pos), where=live)
                        pos += live
                elif nt is If or nt is While:
                    g, good = _truth(node.cond, X, live)
                    live = self.fail(live, good)
                    if not isinstance(g, np.ndarray):
                        if nt is If:
                            stack.append((node.then_branch if g else node.else_branch, mask))
                        elif g:
                            stack.append((node, mask))
                            stack.append((node.body, mask))
                    elif nt is If:
                        self.split(stack, mask, live, g, node.then_branch, node.else_branch)
                    else:
                        through = self.split(stack, mask, live, g, node, None)
                        if through is not False:
                            stack.append((node.body, through))
                elif nt is DiffBlock:
                    self.flow(node, live)
                else:  # pragma: no cover
                    raise TypeError(f"not a program node: {node!r}")
        return self.recording()

    def flow(self, node, live):
        """A differential block on the live runs, as eval_big takes it."""
        X, left = self.X, self.left
        d, good = _value(node.duration, X, live)
        live = self.fail(live, good)
        if not isinstance(d, np.ndarray):
            d = np.full(self.runs, d)
        elif type(node.duration) is Var:
            d = d.copy()  # a view of X, which the flow moves
        negative = live & (d < 0.0)
        if np.count_nonzero(negative):
            self.stop(negative, ERR)
            live = live ^ negative
        rows = np.flatnonzero(live & (d > 0.0))
        if len(rows):
            self.segments.append((node, rows, X[:, rows].T, d[rows]))
        over = live & (d > left)
        if np.count_nonzero(over):
            # the run stops in time inside this segment: the reader flows it
            self.stop(over, OPEN)
            live = live ^ over
        idx = np.flatnonzero(live)
        if not len(idx):
            return
        if not ode.halts(node, self.flow_method):
            out, defined = ode.flow_rows(node, X[:, idx].T, d[idx], self.flow_method)
            X[:, idx] = out.T
            if np.count_nonzero(defined) < len(idx):
                # inside the segment it recorded, or with no segment recorded
                bad = np.zeros(self.runs, dtype=bool)
                bad[idx[~defined]] = True
                recorded = d > 0.0
                self.stop(bad & recorded, OPEN)
                self.stop(bad & ~recorded, ERR)
        np.subtract(left, d, out=left, where=live)

    def recording(self) -> Recording:
        """The Recording of the pass: its segments sorted stably by run."""
        blocks, index, owners = [], {}, []
        for block, rows, _, _ in self.segments:
            k = index.get(id(block))
            if k is None:
                k = index[id(block)] = len(blocks)
                blocks.append(block)
            owners.append(np.full(len(rows), k, dtype=np.intp))
        if owners:
            rows = np.concatenate([s[1] for s in self.segments])
            order = np.argsort(rows, kind="stable")
            fields = [np.concatenate(owners)[order]]
            fields += [np.concatenate([s[i] for s in self.segments])[order] for i in (2, 3)]
            counts = np.bincount(rows, minlength=self.runs).astype(np.int64)
        else:
            fields = [np.zeros(0, dtype=np.intp), np.zeros((0, self.width)), np.zeros(0)]
            counts = np.zeros(self.runs, dtype=np.int64)
        finals = np.full((self.runs, self.width), np.nan)
        finals[self.alive] = self.X[:, self.alive].T
        return Recording(tuple(blocks), *fields, counts, self.outcomes, finals)
