"""Tests of the benchmark's span tracer.  Run: python3 -m pytest perfbench"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import types

import pytest

from tracer import Tracer, self_times

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_self_times_of_nested_spans():
    spans = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("a.inner", 1, 2.0, 3.0),
        ("b", 0, 5.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_times_count_overlapping_children_once_and_clip_to_parent():
    spans = [
        ("parent", -1, 0.0, 10.0),
        ("x", 0, 3.0, 6.0),
        ("y", 0, 5.0, 8.0),
        ("late", 0, 9.0, 12.0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def _bindings(modules):
    return {(module.__name__, name): value
            for module in modules for name, value in vars(module).items()}


@pytest.fixture
def fake_package():
    """fakepkg.core defines helpers; fakepkg.app imports one of them by name."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    app = types.ModuleType("fakepkg.app")
    exec("class Thing:\n"
         "    def __init__(self, n):\n"
         "        self.n = n\n"
         "def helper(n):\n"
         "    return Thing(n).n + 1\n"
         "def compute(n):\n"
         "    return helper(n) * 2\n"
         "def _private(n):\n"
         "    return n\n", core.__dict__)
    for obj in (core.Thing, core.helper, core.compute, core._private):
        obj.__module__ = "fakepkg.core"
    app.helper = core.helper
    app.core = core
    exec("def run(n):\n"
         "    return helper(n) + core.compute(n)\n", app.__dict__)
    app.run.__module__ = "fakepkg.app"
    modules = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.app": app}
    sys.modules.update(modules)
    try:
        yield pkg, core, app
    finally:
        for name in modules:
            sys.modules.pop(name, None)


def test_tracer_patches_every_binding_and_restores_them(fake_package):
    pkg, core, app = fake_package
    before = _bindings(fake_package)
    init = core.Thing.__dict__["__init__"]
    tracer = Tracer("fakepkg", (core.Thing,))
    with tracer:
        assert app.helper is not before[("fakepkg.app", "helper")]
        assert app.helper is core.helper
        assert core._private is before[("fakepkg.core", "_private")]
        assert app.run(3) == 4 + 8
        spans = tracer.drain()
    names = [name for name, *_ in spans]
    assert names == ["app.run", "core.helper", "core.Thing",
                     "core.compute", "core.helper", "core.Thing"]
    parents = [parent for _, parent, *_ in spans]
    assert parents == [-1, 0, 1, 0, 3, 4]
    assert _bindings(fake_package) == before
    assert core.Thing.__dict__["__init__"] is init
    app.run(3)
    assert tracer.spans == []


def test_tracer_restores_bindings_after_an_exception(fake_package):
    pkg, core, app = fake_package
    before = _bindings(fake_package)
    with pytest.raises(ZeroDivisionError):
        with Tracer("fakepkg"):
            core.compute(1) / 0
    assert _bindings(fake_package) == before


def test_tracer_refuses_a_second_install(fake_package):
    before = _bindings(fake_package)
    tracer = Tracer("fakepkg")
    with tracer:
        with pytest.raises(RuntimeError):
            tracer.__enter__()
    assert _bindings(fake_package) == before


def test_tracer_on_mdiew_covers_names_imported_by_name():
    sys.path.insert(0, SRC)
    try:
        from mdiew import cli, linalg, protocol, witness
    finally:
        sys.path.remove(SRC)
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "mdiew"]
    before = _bindings(modules)
    tracer = Tracer("mdiew", (linalg.DensityOperator, protocol.BobRecord))
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--entanglement", "1.0"]) == 0
        spans = tracer.drain()
    assert _bindings(modules) == before
    assert protocol.threshold_lambda is witness.threshold_lambda
    names = [name for name, *_ in spans]
    assert names[0] == "cli.main"
    assert [p for _, p, *_ in spans].count(-1) == 1
    threshold = [span for span in spans if span[0] == "witness.threshold_lambda"]
    assert len(threshold) == 15
    assert all(spans[parent][0] == "protocol.run_threshold_protocol"
               for _, parent, *_ in threshold)
    assert names.count("protocol.BobRecord") == 15
    root_duration = spans[0][3] - spans[0][2]
    assert sum(self_times(spans)) == pytest.approx(root_duration)
