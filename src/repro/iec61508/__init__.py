"""IEC 61508 norm model: SIL tables, λ-algebra, techniques, modes."""

from .sil import (
    PFH_TARGETS,
    PfhTarget,
    SFF_BANDS,
    SIL,
    architecture_table,
    max_sil,
    pfh_meets,
    required_sff,
    sff_band,
)
from .metrics import (
    FIT_PER_HOUR,
    FailureRates,
    diagnostic_coverage,
    safe_failure_fraction,
)
from .techniques import (
    DcLevel,
    Target,
    Technique,
    clamp_claim,
    max_dc_claim,
    technique,
    techniques_for,
)
from .failure_modes import (
    BUS_MODES,
    CLOCK_MODES,
    IO_MODES,
    PROCESSING_UNIT_MODES,
    VARIABLE_MEMORY_MODES,
    VM_ADDRESSING,
    VM_CROSSOVER,
    VM_DC_FAULT,
    VM_SOFT_ERROR,
    PU_BIT_FLIP,
    PU_DC_FAULT,
    PU_WRONG_CODING,
    failure_modes_for,
    permanent_modes,
    transient_modes,
)
from .requirements import (
    ComplianceIssue,
    ComplianceReport,
    SafetyRequirementsSpecification,
)

__all__ = [
    "SIL", "SFF_BANDS", "PFH_TARGETS", "PfhTarget", "architecture_table",
    "max_sil", "pfh_meets", "required_sff", "sff_band",
    "FIT_PER_HOUR", "FailureRates", "diagnostic_coverage",
    "safe_failure_fraction",
    "DcLevel", "Target", "Technique", "clamp_claim",
    "max_dc_claim", "technique", "techniques_for",
    "BUS_MODES", "CLOCK_MODES", "IO_MODES", "PROCESSING_UNIT_MODES",
    "VARIABLE_MEMORY_MODES", "VM_ADDRESSING", "VM_CROSSOVER",
    "VM_DC_FAULT", "VM_SOFT_ERROR", "PU_BIT_FLIP", "PU_DC_FAULT",
    "PU_WRONG_CODING", "failure_modes_for", "permanent_modes",
    "transient_modes",
    "ComplianceIssue", "ComplianceReport",
    "SafetyRequirementsSpecification",
]
