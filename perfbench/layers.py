"""Span wrappers around the public calls into each layer of ``repro``.

:func:`traced` patches the wrappers in for the duration of a ``with``
block and restores every original on exit, so untraced runs execute the
unwrapped functions.  The runner modules bind ``boot``, ``resume_boot``,
``record_plan`` and the checkpoint lookups by name at import, so those
names are patched in each module that calls them, not only where they
are defined.  The IDE controller's port handlers are patched on the
class: the bus hoists bound handlers when a machine is built, so the
wrappers must be in place before the first machine of a traced campaign.

Layers and their span names:

========== ================================================================
mutation   ``mutation.enumerate``, ``mutation.sample``, ``mutation.apply``
minic      ``minic.compile`` (``CampaignCompiler.compile_variant``),
           ``minic.parse`` (``Parser._parse_top_decl``), ``minic.sema``
           (``Sema.declare_all``/``check_decl``), ``minic.emit`` (the
           Python ``compile()`` calls of ``repro.minic.codegen``)
checkpoint ``checkpoint.record``, ``checkpoint.lookup``,
           ``checkpoint.restore`` (machine and interpreter restores)
kernel     ``kernel.boot`` (``boot``/``resume_boot``/``scenario_boot``),
           ``kernel.classify`` (the classifier, without the run it
           wraps), ``kernel.execute`` (that run: interpreter + kernel)
hw         ``hw.ide`` — folded, not spans: IDE port handler time/calls
faults     ``faults.evaluate`` (``FaultContext.evaluate``)
========== ================================================================
"""

from __future__ import annotations

import builtins
import time
from contextlib import contextmanager

from spans import SpanRecorder

_now = time.perf_counter_ns

LAYER_OF = {
    "mutation.enumerate": "mutation",
    "mutation.sample": "mutation",
    "mutation.apply": "mutation",
    "minic.compile": "minic",
    "minic.parse": "minic",
    "minic.sema": "minic",
    "minic.emit": "minic",
    "checkpoint.record": "checkpoint",
    "checkpoint.lookup": "checkpoint",
    "checkpoint.restore": "checkpoint",
    "kernel.boot": "kernel",
    "kernel.classify": "kernel",
    "kernel.execute": "kernel",
    "hw.ide": "hw",
    "faults.evaluate": "faults",
    "scenarios.generate": "scenarios",
}


def _spanned(recorder: SpanRecorder, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        span_id = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span_id)
        if after is not None:
            after(recorder.spans[span_id], args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _classifier(recorder: SpanRecorder, classify):
    """``classify(run, machine, interp)`` with ``run`` as its own span."""

    def wrapper(run, machine, interp):
        span_id = recorder.open("kernel.classify")
        try:
            return classify(
                _spanned(recorder, "kernel.execute", run), machine, interp
            )
        finally:
            recorder.close(span_id)

    wrapper.__wrapped__ = classify
    return wrapper


def _folded(recorder: SpanRecorder, name: str, fn, depth: list):
    """Time ``fn`` into the open span; nested calls count once."""

    def wrapper(*args, **kwargs):
        if depth[0]:
            return fn(*args, **kwargs)
        depth[0] = 1
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            depth[0] = 0
            recorder.fold(name, _now() - start)

    wrapper.__wrapped__ = fn
    return wrapper


class Counters:
    """Exact counts gathered at the same boundaries as the spans."""

    def __init__(self):
        self.incremental = 0
        self.full = 0
        self.fault_accesses = 0


def _boot_note(span, args, report) -> None:
    span.note = {"steps": report.steps, "outcome": report.outcome.name}


@contextmanager
def traced(recorder: SpanRecorder):
    """Install every layer wrapper; yield the :class:`Counters`."""
    from repro.engine import state as engine_state
    from repro.faults import campaign as fault_campaign
    from repro.hw.ide import IdeController
    from repro.hw.machine import Machine
    from repro.kernel import checkpoint, kernel
    from repro.minic import codegen
    from repro.minic.incremental import CampaignCompiler
    from repro.minic.interp import Interpreter
    from repro.minic.parser import Parser
    from repro.minic.sema import Sema
    from repro.mutation import runner
    from repro.mutation.model import Mutant
    from repro.scenarios import campaign as scenario_campaign

    counters = Counters()
    patched: list[tuple[object, str, object]] = []
    missing = object()

    def patch(owner, attribute: str, make) -> None:
        patched.append((owner, attribute, owner.__dict__.get(attribute, missing)))
        setattr(owner, attribute, make(getattr(owner, attribute, None)))

    def span(name, after=None):
        return lambda fn: _spanned(recorder, name, fn, after)

    def compile_variant(fn):
        def wrapper(self, text):
            before = (self.stats["incremental"], self.stats["full"])
            span_id = recorder.open("minic.compile")
            try:
                return fn(self, text)
            finally:
                recorder.close(span_id)
                counters.incremental += self.stats["incremental"] - before[0]
                counters.full += self.stats["full"] - before[1]

        return wrapper

    def fault_accesses(span_, args, result) -> None:
        totals = args[0]._injector.counters()
        counters.fault_accesses += (
            sum(totals["reads"].values())
            + sum(totals["writes"].values())
            + totals["disk_writes"]
        )

    def harness(fn):
        def wrapper(interp, machine):
            sequence, classify = fn(interp, machine)
            return sequence, _classifier(recorder, classify)

        return wrapper

    try:
        for module in (runner, scenario_campaign):
            patch(module, "enumerate_c_mutants", span("mutation.enumerate"))
            patch(module, "checkpoint_for_mutant", span("checkpoint.lookup"))
        for module in (runner, scenario_campaign, engine_state):
            patch(module, "sample_mutants", span("mutation.sample"))
        patch(Mutant, "apply", span("mutation.apply"))
        patch(CampaignCompiler, "compile_variant", compile_variant)
        patch(Parser, "_parse_top_decl", span("minic.parse"))
        patch(Sema, "declare_all", span("minic.sema"))
        patch(Sema, "check_decl", span("minic.sema"))
        # codegen calls the builtin; a module global of that name shadows it.
        patch(codegen, "compile", lambda _: _spanned(recorder, "minic.emit", builtins.compile))
        for module in (runner, fault_campaign, scenario_campaign):
            patch(module, "record_plan", span("checkpoint.record"))
            patch(module, "resume_boot", span("kernel.boot", _boot_note))
        for module in (runner, fault_campaign):
            patch(module, "boot", span("kernel.boot", _boot_note))
        patch(scenario_campaign, "scenario_boot", span("kernel.boot", _boot_note))
        patch(fault_campaign, "checkpoint_for_fault", span("checkpoint.lookup"))
        patch(
            fault_campaign.FaultContext,
            "evaluate",
            span("faults.evaluate", fault_accesses),
        )
        patch(Machine, "restore", span("checkpoint.restore"))
        patch(scenario_campaign.ScenarioMachine, "restore", span("checkpoint.restore"))
        patch(Interpreter, "restore_state", span("checkpoint.restore"))
        for module in (kernel, checkpoint):
            patch(module, "classify_run", lambda fn: _classifier(recorder, fn))
        patch(scenario_campaign, "scenario_harness", harness)
        depth = [0]
        for handler in (
            "io_read",
            "io_write",
            "bulk_read_words",
            "bulk_write_words",
            "_status",
            "_data_read",
        ):
            patch(
                IdeController,
                handler,
                lambda fn: _folded(recorder, "hw.ide", fn, depth),
            )
        yield counters
    finally:
        for owner, attribute, original in reversed(patched):
            if original is missing:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
