"""What a fresh process imports: scipy only once a block needs `expm`.

Each test runs its code in a new interpreter, since this one has scipy
loaded already (the statistical tests import `scipy.stats`).
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
    out = fresh_python(f"""
import contextlib, io, sys
from swhile.cli import main
codes = []
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(codes)
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
""")
    codes, loaded = out.splitlines()
    assert codes == repr([0] * len(commands))
    assert loaded == "[]"


def test_expm_flow_imports_scipy_on_demand_with_the_same_bits():
    out = fresh_python("""
import sys
from swhile.ode import flow
from swhile.syntax import DiffBlock, Lit, Var
before = 'scipy.linalg' in sys.modules
block = DiffBlock((Var(0, 'x'),), Lit(1.0))
(x,) = flow(block, (1.0,), 1.0)
print(before, 'scipy.linalg' in sys.modules, x.hex())
""")
    # x' = x from 1 for 1: the augmented matrix [[1, 0], [0, 0]], flowed
    # with scipy's expm by the arithmetic ode._flow_expm has always used
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    want = float((expm(m * 1.0)[:1, :] @ np.append(np.asarray((1.0,)), 1.0))[0])
    assert out.split() == ["False", "True", want.hex()]
