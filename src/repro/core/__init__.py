"""The paper's contribution: strong-diameter network decomposition.

Centralized reference implementations of Theorems 1–3
(:mod:`~repro.core.elkin_neiman`, :mod:`~repro.core.staged`,
:mod:`~repro.core.high_radius`), the distributed message-passing protocol
(:mod:`~repro.core.distributed_en`), the shared single-phase carving
kernel (:mod:`~repro.core.carving`), exponential-shift sampling
(:mod:`~repro.core.shifts`), parameter/bound calculators
(:mod:`~repro.core.params`) and the result types
(:mod:`~repro.core.decomposition`).
"""

from . import elkin_neiman, high_radius, staged
from .carving import PhaseOutcome, TopTwo, broadcast_reach, carve_block
from .decomposition import Cluster, NetworkDecomposition
from .distributed_en import (
    DistributedRunResult,
    ENNodeAlgorithm,
    decompose_distributed,
)
from .driver import DecompositionTrace, PhaseTrace, run_carving_process
from .params import (
    Bounds,
    PhaseSchedule,
    Theorem1Schedule,
    Theorem2Schedule,
    Theorem3Schedule,
    default_k,
    theorem1_bounds,
    theorem2_bounds,
    theorem3_bounds,
)
from .shifts import (
    TruncationEvent,
    find_truncation_events,
    sample_phase_radii,
    sample_radius,
)

__all__ = [
    "Bounds",
    "Cluster",
    "DecompositionTrace",
    "DistributedRunResult",
    "ENNodeAlgorithm",
    "NetworkDecomposition",
    "PhaseOutcome",
    "PhaseSchedule",
    "PhaseTrace",
    "Theorem1Schedule",
    "Theorem2Schedule",
    "Theorem3Schedule",
    "TopTwo",
    "TruncationEvent",
    "broadcast_reach",
    "carve_block",
    "decompose_distributed",
    "default_k",
    "elkin_neiman",
    "find_truncation_events",
    "high_radius",
    "run_carving_process",
    "sample_phase_radii",
    "sample_radius",
    "staged",
    "theorem1_bounds",
    "theorem2_bounds",
    "theorem3_bounds",
]
