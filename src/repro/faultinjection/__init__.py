"""The §5 validation flow: profiler, fault lists, campaigns, analysis."""

from .faults import (
    BridgeFault,
    Fault,
    GlobalStuckFault,
    MbuFault,
    MemFlipFault,
    MemStuckFault,
    SetFault,
    SeuFault,
    StuckNetFault,
)
from .profiler import OperationalProfile, profile_workload
from .faultlist import (
    CandidateList,
    FaultListConfig,
    collapse,
    generate_cone_faults,
    generate_gate_faults,
    generate_zone_faults,
    randomize,
)
from .monitors import CoverageCollection
from .manager import (
    CampaignConfig,
    CampaignResult,
    FaultInjectionManager,
    FaultResult,
    OUTCOME_DD,
    OUTCOME_DETECTED_SAFE,
    OUTCOME_DU,
    OUTCOME_SAFE,
)
from .parallel import (
    CampaignSpec,
    CampaignStats,
    GoldenTrace,
    MemoryImageSetup,
    SafeProgress,
    ShardStats,
    compute_golden_trace,
    shard_candidates,
)
from .supervisor import (
    CampaignAborted,
    CampaignHealth,
    CampaignSupervisor,
    FaultAnomaly,
    SupervisorConfig,
)
from .analyzer import ResultAnalyzer
from .diagnosis import Candidate, FaultDictionary, signature_of
from .environment import (
    InjectionEnvironment,
    StimuliValidationError,
    build_environment,
    load_stimuli,
    save_stimuli,
    validate_stimuli,
    validate_stimuli_report,
)
from .faultsim import simulate_faults
from .validation import (
    ToggleReport,
    ValidationReport,
    measure_toggle_coverage,
    run_validation,
)

# Campaign-store types re-exported lazily (PEP 562): repro.store
# imports the campaign engines above, so a module-level import here
# would be circular.
_STORE_EXPORTS = (
    "BlobStore", "CacheStats", "CampaignCache", "CampaignPlan",
    "CorruptBlobError", "FingerprintContext", "OutcomeRow", "StoreDB",
)


def __getattr__(name: str):
    if name in _STORE_EXPORTS:
        from .. import store
        return getattr(store, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BridgeFault", "Fault", "GlobalStuckFault", "MbuFault",
    "MemFlipFault", "MemStuckFault", "SetFault", "SeuFault",
    "StuckNetFault",
    "OperationalProfile", "profile_workload",
    "CandidateList", "FaultListConfig", "collapse",
    "generate_cone_faults", "generate_gate_faults",
    "generate_zone_faults", "randomize",
    "CoverageCollection",
    "CampaignConfig", "CampaignResult", "FaultInjectionManager",
    "FaultResult", "OUTCOME_DD", "OUTCOME_DETECTED_SAFE", "OUTCOME_DU",
    "OUTCOME_SAFE",
    "CampaignSpec", "CampaignStats", "GoldenTrace", "MemoryImageSetup",
    "SafeProgress", "ShardStats", "compute_golden_trace",
    "shard_candidates",
    "CampaignAborted", "CampaignHealth", "CampaignSupervisor",
    "FaultAnomaly", "SupervisorConfig",
    "ResultAnalyzer",
    "Candidate", "FaultDictionary", "signature_of",
    "InjectionEnvironment",
    "StimuliValidationError", "build_environment", "load_stimuli",
    "save_stimuli", "validate_stimuli", "validate_stimuli_report",
    "simulate_faults",
    "ToggleReport", "ValidationReport",
    "measure_toggle_coverage", "run_validation",
    *_STORE_EXPORTS,
]
