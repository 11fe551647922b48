"""The benchmark tracer's patch targets.

`bench/tracing.py` wraps about 40 module attributes of the package by
name, some of them imports kept only for it.  Deleting one passes every
other test and an untraced bench run, so this test installs a `Tracer`:
each attribute it patches must exist, and uninstalling must put back the
very object it replaced.
"""

import importlib

from progpath import ROOT


def test_tracer_patches_existing_attributes_and_restores_each_one(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)  # (owner, attribute, the object replaced)
        replaced = [(owner, attr) for owner, attr, old in patched
                    if getattr(owner, attr) is not old]
    finally:
        tracer.uninstall()
    assert len(patched) >= 30
    assert replaced == [(owner, attr) for owner, attr, _ in patched]
    for owner, attr, old in patched:
        assert getattr(owner, attr) is old, f"{owner.__name__}.{attr} not restored"
