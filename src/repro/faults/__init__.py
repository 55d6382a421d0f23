"""Environment-fault campaigns: boot unmutated drivers on lying hardware.

The package mirrors `repro.mutation` on the hardware side of the
interface: `repro.faults.injector` is the counted injection shim,
`repro.faults.plan` samples deterministic fault plans from a clean
boot's access profile, `repro.faults.campaign` runs and classifies the
perturbed boots (reusing `repro.kernel.checkpoint` as the injection
harness), and `repro.faults.report` renders dimension-structured
reports.  `repro.experiments.fault_comparison` is the C vs C/Devil entry
point.
"""

from repro.faults.injector import DIMENSIONS, Fault, FaultInjector
from repro.faults.plan import (
    AccessProfile,
    DIMENSIONS_ENV,
    build_fault_plan,
    dimensions_from_env,
    profile_from,
)
from repro.faults.campaign import (
    FaultCampaignResult,
    FaultContext,
    FaultResult,
    checkpoint_for_fault,
    run_fault_campaign,
)
from repro.faults.report import (
    comparison_dict,
    render_comparison_markdown,
    render_markdown,
    report_dict,
    report_json,
)

__all__ = [
    "AccessProfile",
    "DIMENSIONS",
    "DIMENSIONS_ENV",
    "Fault",
    "FaultCampaignResult",
    "FaultContext",
    "FaultInjector",
    "FaultResult",
    "build_fault_plan",
    "checkpoint_for_fault",
    "comparison_dict",
    "dimensions_from_env",
    "profile_from",
    "render_comparison_markdown",
    "render_markdown",
    "report_dict",
    "report_json",
    "run_fault_campaign",
]
