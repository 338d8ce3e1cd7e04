"""Job bundling and dispatch for HPC execution sites.

Packs jobs, each a (cores x minutes) resource rectangle, into shared
scheduler submissions using maximal-rectangles bottom-left packing;
derives on-node execution order from the packing geometry; and walks
every job to a terminal state through timeout doubling, rebinding and
heartbeat monitoring, exercised against a deterministic simulated
cluster.
"""

from .bundling import Bundle, BundlePolicy, ExecutionSite, SiteRegistry
from .dispatcher import (
    AccountingRecord,
    BackendRejection,
    BundleArtifacts,
    CollectingSink,
    Dispatcher,
    JobRecord,
    JobSpec,
    JobState,
    ResultEnvelope,
    make_text,
)
from .packing import (
    FreeRect,
    PackingBin,
    Placement,
    ResourceRect,
    bounding_request,
    waste_fraction,
)
from .simcluster import (
    FaultSpec,
    QueueWait,
    SimConfig,
    Simulation,
    Workload,
    derive_rng,
    schedule_steps,
)
from .stepgraph import StepGraph, beneath_relation, emit_make, step_graph, transitive_reduction
from .workload import (
    ParseError,
    SiteFileContents,
    parse_policy,
    parse_sites_text,
    parse_workload_text,
)

__all__ = [
    "AccountingRecord",
    "BackendRejection",
    "Bundle",
    "BundleArtifacts",
    "BundlePolicy",
    "CollectingSink",
    "Dispatcher",
    "ExecutionSite",
    "FaultSpec",
    "FreeRect",
    "JobRecord",
    "JobSpec",
    "JobState",
    "PackingBin",
    "ParseError",
    "Placement",
    "QueueWait",
    "ResourceRect",
    "ResultEnvelope",
    "SimConfig",
    "SiteFileContents",
    "SiteRegistry",
    "Simulation",
    "StepGraph",
    "Workload",
    "beneath_relation",
    "bounding_request",
    "derive_rng",
    "emit_make",
    "make_text",
    "parse_policy",
    "parse_sites_text",
    "parse_workload_text",
    "schedule_steps",
    "step_graph",
    "transitive_reduction",
    "waste_fraction",
]

__version__ = "0.1.0"
