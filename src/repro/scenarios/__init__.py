"""Deterministic generated-driver workloads (`repro.scenarios`).

The paper evaluates robustness on exactly two drivers; the scaling
story needs thousands.  This package promotes the cross-backend
differential fuzzer's program generator
(``tests/test_backend_differential.py``) into a workload library:

* :mod:`repro.scenarios.generator` — :class:`ScriptedBus` (the
  deterministic scripted device) and :class:`ProgramGen` (the seeded
  mini-C program generator), parameterised by :class:`Profile` weight
  tables whose defaults reproduce the differential harness byte for
  byte;
* :mod:`repro.scenarios.corpus` — :class:`Scenario` (one generated
  driver + device-script pair with a stable id and content digest),
  corpus materialisation sized by a ``scale`` knob, and the
  deterministic JSON manifest;
* :mod:`repro.scenarios.campaign` — scenarios as first-class mutation
  campaign targets: a scenario boot harness (:class:`ScenarioHarness`)
  for the drivers' own `repro.mutation.runner.MutantTarget`, so
  enumeration, incremental compile, checkpoint plans and the serial,
  ``workers=N`` and engine paths are the drivers' code.

``python -m repro.scenarios`` generates, lists and runs corpora from
the command line; `repro.engine.ScenarioRequest` serves scenario
campaigns from a warm engine or daemon.
"""

from repro.scenarios.generator import (
    DEFAULT_PROFILE,
    PROFILES,
    Profile,
    ProgramGen,
    ScriptedBus,
)
from repro.scenarios.corpus import (
    DEFAULT_SCENARIO_BUDGET,
    PROFILE_ORDER,
    Scenario,
    build_scenario,
    corpus_manifest,
    generate_corpus,
    manifest_digest,
    manifest_json,
    scenario_from_id,
)
from repro.scenarios.campaign import (
    ScenarioHarness,
    ScenarioMachine,
    ScenarioSequence,
    prepare_scenario_campaign,
    run_scenario_campaign,
    scenario_boot,
    scenario_harness,
)

__all__ = [
    "DEFAULT_PROFILE",
    "DEFAULT_SCENARIO_BUDGET",
    "PROFILES",
    "PROFILE_ORDER",
    "Profile",
    "ProgramGen",
    "Scenario",
    "ScenarioHarness",
    "ScenarioMachine",
    "ScenarioSequence",
    "ScriptedBus",
    "build_scenario",
    "corpus_manifest",
    "generate_corpus",
    "manifest_digest",
    "manifest_json",
    "prepare_scenario_campaign",
    "run_scenario_campaign",
    "scenario_boot",
    "scenario_from_id",
    "scenario_harness",
]
