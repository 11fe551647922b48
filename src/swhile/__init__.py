"""swhile: interpreter and semantics toolkit for a stochastic hybrid
while-language mixing differential blocks with uniform sampling."""

from .bigstep import BOTTOM, Bottom, check_agreement, eval_big, eval_functional
from .denotational import (
    AdequacyReport,
    BranchExplosion,
    Discretization,
    adequacy_check,
    denote,
    enumerate_operational,
)
from .entropy import Enumerator, EntropyExhausted, FinitePrefix, PrngStream, from_seed, split_seed
from .measure import DiscMeasure, EPoint, XPoint, dirac, kleisli_extend, tv_distance
from .montecarlo import (
    Diverged,
    Ensemble,
    ErrorAt,
    TerminatedEarly,
    TimeGrid,
    Trajectory,
    Value,
    histogram,
    interval_probability,
    moments,
    probability_over_time,
    run_ensemble,
    sample_trajectory,
)
from .ode import ExactAffine, FlowMethod, RungeKutta4, classify_affine, flow
from .parser import ParseError, parse_bool_expr, parse_file, parse_program
from .smallstep import Config, Err, Normal, OutOfFuel, TimeStop, run_to_terminal, step, trace
from .store import Store, Undefined, eval_bool, eval_expr, make_store, update
from .syntax import (
    And,
    Assign,
    BoolLit,
    Call,
    DiffBlock,
    If,
    Leq,
    Lit,
    Or,
    Program,
    Sample,
    Seq,
    Var,
    VarTable,
    While,
    pretty_print,
    seq_normal,
    wait_block,
)

__version__ = "0.1.0"
