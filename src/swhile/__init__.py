"""swhile: interpreter and semantics toolkit for a stochastic hybrid
while-language mixing differential blocks with uniform sampling.

Importing the package imports none of its modules.  Each export, and each
submodule, is imported on first access (PEP 562), so a program or command
loads only what it uses: `parse`, `run` and `adequacy` never load numpy,
which comes in with the ensemble engine (`montecarlo`, `frontier`) and
the row flows of `ode`.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = ("bigstep", "cli", "denotational", "entropy", "frontier", "measure",
               "montecarlo", "ode", "parser", "smallstep", "store", "syntax")

# the one name -> submodule table: each export and the submodule defining
# it, and each submodule under its own name
_SOURCE = {name: module for module, names in {
    "bigstep": ("BOTTOM", "Bottom", "check_agreement", "eval_big", "eval_functional"),
    "denotational": ("AdequacyReport", "BranchExplosion", "Discretization", "adequacy_check",
                     "denote", "enumerate_operational"),
    "entropy": ("Enumerator", "EntropyExhausted", "FinitePrefix", "PrngStream", "from_seed",
                "split_seed"),
    "measure": ("DiscMeasure", "EPoint", "XPoint", "dirac", "kleisli_extend", "tv_distance"),
    "montecarlo": ("Diverged", "Ensemble", "ErrorAt", "TerminatedEarly", "Trajectory",
                   "Value", "histogram", "interval_probability", "moments",
                   "probability_over_time", "run_ensemble", "sample_trajectory"),
    "ode": ("ExactAffine", "FlowMethod", "RungeKutta4", "classify_affine", "flow"),
    "parser": ("ParseError", "parse_bool_expr", "parse_file", "parse_program"),
    "smallstep": ("Config", "Err", "Normal", "OutOfFuel", "TimeGrid", "TimeStop",
                  "run_to_terminal", "step", "trace"),
    "store": ("Store", "Undefined", "eval_bool", "eval_expr", "make_store", "update"),
    "syntax": ("And", "Assign", "BoolLit", "Call", "DiffBlock", "If", "Leq", "Lit", "Or",
               "Program", "Sample", "Seq", "Var", "VarTable", "While", "pretty_print",
               "seq_normal"),
}.items() for name in names}

__all__ = list(_SOURCE)

_SOURCE.update((module, module) for module in _SUBMODULES)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE})
