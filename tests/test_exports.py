"""The package's export table: every name `swhile` exports is there, as the
submodule's own object."""

import importlib

import pytest

import swhile

# the 76 exports, by defining submodule
EXPORTS = {
    "bigstep": ["BOTTOM", "Bottom", "check_agreement", "eval_big", "eval_functional"],
    "denotational": ["AdequacyReport", "BranchExplosion", "Discretization", "adequacy_check",
                     "denote", "enumerate_operational"],
    "entropy": ["Enumerator", "EntropyExhausted", "FinitePrefix", "PrngStream", "from_seed",
                "split_seed"],
    "measure": ["DiscMeasure", "EPoint", "XPoint", "dirac", "kleisli_extend", "tv_distance"],
    "montecarlo": ["Diverged", "Ensemble", "ErrorAt", "TerminatedEarly", "TimeGrid",
                   "Trajectory", "Value", "histogram", "interval_probability", "moments",
                   "probability_over_time", "run_ensemble", "sample_trajectory"],
    "ode": ["ExactAffine", "FlowMethod", "RungeKutta4", "classify_affine", "flow"],
    "parser": ["ParseError", "parse_bool_expr", "parse_file", "parse_program"],
    "smallstep": ["Config", "Err", "Normal", "OutOfFuel", "TimeStop", "run_to_terminal", "step",
                  "trace"],
    "store": ["Store", "Undefined", "eval_bool", "eval_expr", "make_store", "update"],
    "syntax": ["And", "Assign", "BoolLit", "Call", "DiffBlock", "If", "Leq", "Lit", "Or",
               "Program", "Sample", "Seq", "Var", "VarTable", "While", "pretty_print",
               "seq_normal"],
}
PAIRS = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_the_table_holds_76_exports():
    assert len(PAIRS) == len({name for _, name in PAIRS}) == 76


@pytest.mark.parametrize("module, name", PAIRS, ids=[name for _, name in PAIRS])
def test_each_export_is_its_submodules_object(module, name):
    namespace = {}
    exec(f"from swhile import {name}", namespace)
    source = importlib.import_module(f"swhile.{module}")
    assert namespace[name] is getattr(source, name)
    assert getattr(swhile, name) is getattr(getattr(swhile, module), name)


def test_all_and_dir_list_every_export():
    names = [name for _, name in PAIRS]
    assert sorted(swhile.__all__) == sorted(names)
    assert set(names) <= set(dir(swhile))
    assert set(EXPORTS) <= set(dir(swhile))


def test_submodules_are_attributes():
    assert swhile.ode is importlib.import_module("swhile.ode")
    assert swhile.frontier.__name__ == "swhile.frontier"
    assert swhile.cli.main is importlib.import_module("swhile.cli").main


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        swhile.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from swhile import no_such_name", {})
    assert not hasattr(swhile, "_private")
