"""Sensible-zone theory: extraction, cones, classification, effects."""

from .model import (
    Effect,
    FailureMode,
    FaultClass,
    FaultPersistence,
    ObservationKind,
    ObservationPoint,
    SensibleZone,
    ZoneKind,
)
from .cones import Cone, CorrelationReport, correlate_zones
from .extractor import (
    ExtractionConfig,
    ZoneExtractor,
    ZoneLookupError,
    ZoneSet,
    extract_zones,
)
from .io import (
    ZONES_SCHEMA_VERSION,
    ZoneConfigError,
    ZoneResolution,
    extraction_config_from_dict,
    load_zone_config,
    resolve_zone_config,
    save_zones,
    zone_config_to_dict,
)
from .classify import FaultClassifier, FaultExtent
from .graph import (
    ZoneGraph,
    build_zone_graph,
    diagnostic_reach_ratio,
    export_graphml,
    undiagnosed_zones,
    zone_reach,
)
from .effects import (
    PredictedEffects,
    diagnostic_only_nets,
    predict_effects_table,
)

__all__ = [
    "Effect", "FailureMode", "FaultClass", "FaultPersistence",
    "ObservationKind", "ObservationPoint", "SensibleZone", "ZoneKind",
    "Cone", "CorrelationReport", "correlate_zones",
    "ExtractionConfig", "ZoneExtractor", "ZoneLookupError", "ZoneSet",
    "extract_zones",
    "ZONES_SCHEMA_VERSION", "ZoneConfigError", "ZoneResolution",
    "extraction_config_from_dict", "load_zone_config",
    "resolve_zone_config", "save_zones", "zone_config_to_dict",
    "FaultClassifier", "FaultExtent",
    "PredictedEffects", "diagnostic_only_nets", "predict_effects_table",
    "ZoneGraph", "build_zone_graph", "diagnostic_reach_ratio",
    "export_graphml", "undiagnosed_zones", "zone_reach",
]
