"""Locations of the bundled example programs, independent of the cwd."""

import os
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"


def program_files():
    return sorted(PROGRAMS.glob("*.swl"))


def src_env():
    """The environment for a new interpreter that imports this checkout's swhile."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env
