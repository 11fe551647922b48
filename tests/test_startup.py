"""What a fresh process imports.

`import swhile` imports no submodule; `parse`, `run` and `adequacy` load
neither numpy nor scipy; a serial `simulate` loads numpy with the ensemble
engine but not `concurrent.futures`, which only a process pool needs;
scipy is loaded only once a block needs `expm`, and `secrets` only once
a seed is drawn.

Each test runs its code in a new interpreter, since this one has numpy
and scipy loaded already (the statistical tests import `scipy.stats`).
"""

import subprocess
import sys

import numpy as np
from scipy.linalg import expm

from progpath import ROOT, program_files, src_env


def fresh_python(code: str) -> str:
    """Run `code` in a new interpreter that imports this checkout's swhile;
    return its stdout."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env(), cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def cli_modules(commands) -> str:
    """Exit codes of `swhile argv` for each argv, run in one new interpreter,
    and which of numpy, scipy and concurrent.futures it has loaded after them."""
    out = fresh_python(f"""
import contextlib, io, sys
from swhile.cli import main
codes = []
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(codes)
print(sorted(m for m in sys.modules if m in ('numpy', 'scipy', 'concurrent.futures')))
""")
    codes, loaded = out.splitlines()
    assert codes == repr([0] * len(commands))
    return loaded


def test_import_leaves_scipy_unloaded():
    out = fresh_python("import sys, swhile; print('scipy' in sys.modules)")
    assert out == "False\n"


def test_cli_commands_on_every_bundled_program_leave_scipy_unloaded():
    commands = []
    for path in program_files():
        p = str(path)
        commands += [
            ["run", p, "--time", "1", "--seed", "1"],
            ["simulate", p, "--runs", "2", "--grid", "0:1:0.5", "--seed", "1"],
            ["adequacy", p, "--rational", "--time", "1"],
        ]
    assert "scipy" not in cli_modules(commands)


def test_import_loads_no_submodule_numpy_scipy_or_process_pool():
    out = fresh_python("""
import sys, swhile
print(sorted(m for m in sys.modules
             if m.split('.')[0] in ('swhile', 'numpy', 'scipy') or m == 'concurrent.futures'))
""")
    assert out == "['swhile']\n"


def test_submodules_load_on_first_access():
    out = fresh_python("""
import sys, swhile
ode = swhile.ode
print(ode.__name__, 'swhile.montecarlo' in sys.modules, swhile.flow is ode.flow)
""")
    assert out == "swhile.ode False True\n"


def test_parse_run_and_adequacy_on_every_bundled_program_leave_numpy_unloaded():
    commands = [["run", "bench/pendulum.swl", "--time", "1", "--seed", "1", "--flow", "rk4:0.01"]]
    for path in program_files():
        p = str(path)
        commands += [
            ["parse", p],
            ["run", p, "--time", "1", "--seed", "1"],
            ["adequacy", p, "--rational", "--time", "1"],
        ]
    assert cli_modules(commands) == "[]"


def test_adequacy_over_a_grid_leaves_numpy_unloaded():
    # building the --grid used to import the ensemble engine, and numpy with it
    commands = [["adequacy", "programs/ball.swl", "--rational", "--grid", "0:1:0.5"]]
    assert cli_modules(commands) == "[]"


def test_serial_simulate_on_every_bundled_program_leaves_the_process_pool_unloaded():
    commands = [["simulate", str(p), "--runs", "2", "--grid", "0:1:0.5", "--seed", "1"]
                for p in program_files()]
    assert cli_modules(commands) == "['numpy']"


def test_expm_flow_imports_scipy_on_demand_with_the_same_bits():
    # the first flow, by RK4, classifies the block as an expm block; only
    # the first exact flow loads numpy and scipy
    out = fresh_python("""
import sys
from swhile.ode import RungeKutta4, flow
from swhile.syntax import DiffBlock, Lit, Var
block = DiffBlock((Var(0, 'x'),), Lit(1.0))
flow(block, (1.0,), 1.0, RungeKutta4(0.1))
rk4 = [block.compiled.exact is not None, 'scipy.linalg' in sys.modules, 'numpy' in sys.modules]
(x,) = flow(block, (1.0,), 1.0)
print(*rk4, 'scipy.linalg' in sys.modules, x.hex())
""")
    # x' = x from 1 for 1: the augmented matrix [[1, 0], [0, 0]], flowed
    # with scipy's expm by the arithmetic ode._flow_expm has always used
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    want = float((expm(m * 1.0)[:1, :] @ np.append(np.asarray((1.0,)), 1.0))[0])
    assert out.split() == ["True", "False", "False", "True", want.hex()]


def test_run_with_a_seed_leaves_secrets_unloaded():
    # only a run or simulate without --seed draws one from `secrets`
    out = fresh_python("""
import contextlib, io, sys
from swhile.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(['run', 'programs/ball.swl', '--time', '1', '--seed', '1'])
print(code, 'secrets' in sys.modules)
""")
    assert out == "0 False\n"
