"""The benchmark's tracer binds switchlab functions and methods by name, and
its verify checker lists the acceptance checks by name.  A rename inside
switchlab would otherwise break only a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from switchlab import game_core, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    if not PERFBENCH.is_dir():
        pytest.skip("perfbench/ is not in this checkout")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    for module, attr, *_ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"switchlab.{module}"), attr)), attr


def test_traced_methods_exist(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    for module, base, method, _ in tracing.METHODS:
        assert callable(getattr(getattr(importlib.import_module(f"switchlab.{module}"), base),
                                method)), f"{base}.{method}"


def test_verify_check_names_match(monkeypatch):
    checks = _load("checks", monkeypatch)
    assert tuple(name for name, _, _ in verify.CHECKS) == checks.VERIFY_CHECKS


def test_verify_binds_the_walk_itself():
    # the tracer counts walk games under verify.worst_case_sign_regret; a
    # wrapper left there would leave the traced count at 0 without an error
    assert verify.worst_case_sign_regret is game_core.worst_case_sign_regret
