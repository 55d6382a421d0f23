"""Shared fixtures and helpers for the test suite.

``assert_boot_equivalent`` is the single definition of backend
equivalence: every observable of a whole driver boot — outcome, step
count, coverage set, detail string, printk log and disk diff — must be
byte-identical across mini-C execution backends.  The backend test
modules parametrise over :data:`ALL_BACKENDS` or :data:`INTERPRETERS`
instead of hand-rolling backend pairs.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.hw import standard_pc
from repro.kernel.kernel import boot
from repro.minic.codegen import SourceInterpreter
from repro.minic.compile import BACKENDS, ClosureInterpreter

#: Every mini-C execution backend; "tree" is the reference.
ALL_BACKENDS = ("tree", "source")

#: The compiled backend, asserted against the tree walker.
FAST_BACKENDS = ("source",)


class AllFreshSourceInterpreter(SourceInterpreter):
    """The source backend on ``program`` with every declaration fresh.

    That is the table a compile-cache variant gets when splicing falls
    back to a full compile: every loop-free function closure-lowered,
    every other one source-emitted.
    """

    def __init__(self, program, *args, **kwargs):
        fresh = frozenset(map(id, program.unit.decls))
        super().__init__(
            dataclasses.replace(program, fresh=fresh), *args, **kwargs
        )


#: Test-only interpreters, registered under a name for the whole suite
#: (see :func:`register_test_interpreters`) so every identity sweep runs
#: both of the source backend's lowerings on whole programs: "closure"
#: closure-lowers every function, and "hybrid" mixes the two as the
#: fresh-declaration rule does.  Neither is a backend: ``interpreter_for``
#: knows only :data:`ALL_BACKENDS` outside the suite.
TEST_INTERPRETERS = {
    "closure": ClosureInterpreter,
    "hybrid": AllFreshSourceInterpreter,
}

#: The backends plus the test-only interpreters; "tree" is the reference.
INTERPRETERS = ("tree", "closure", "source", "hybrid")

#: Every interpreter the identity sweeps assert against the tree walker.
FAST_INTERPRETERS = ("closure", "source", "hybrid")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "backends_only: run without the test-only interpreters registered",
    )


@pytest.fixture(autouse=True)
def register_test_interpreters(request, monkeypatch):
    """Register :data:`TEST_INTERPRETERS` unless ``backends_only``."""
    if request.node.get_closest_marker("backends_only") is None:
        for name, cls in TEST_INTERPRETERS.items():
            monkeypatch.setitem(BACKENDS, name, cls)


def boot_report_view(report):
    """The comparable observables of a boot report."""
    return {
        "outcome": report.outcome,
        "steps": report.steps,
        "coverage": report.coverage,
        "detail": report.detail,
        "log": report.log,
        "disk_diff": report.disk_diff,
    }


def assert_boot_equivalent(
    program,
    backends=INTERPRETERS,
    machine_factory=standard_pc,
    step_budget=None,
    reference="tree",
):
    """Boot ``program`` on every backend and assert identical reports.

    A fresh machine comes from ``machine_factory`` per backend, so disk
    effects are compared too.  Returns the reference report.
    """
    kwargs = {} if step_budget is None else {"step_budget": step_budget}
    reports = {
        backend: boot(program, machine_factory(), backend=backend, **kwargs)
        for backend in dict.fromkeys((reference, *backends))
    }
    expected = boot_report_view(reports[reference])
    for backend, report in reports.items():
        assert boot_report_view(report) == expected, (
            f"backend {backend!r} diverged from {reference!r}"
        )
    return reports[reference]


@pytest.fixture(params=INTERPRETERS)
def backend(request):
    """Parametrises a test over every backend and test-only interpreter."""
    return request.param
