"""Design-space exploration of protection mechanisms (paper §6).

The paper's arc — a baseline memory sub-system at SFF ≈ 95 % that
fails SIL3, improved step by step (addresses folded into the ECC,
write-buffer parity, checkers after the coder and the decoder pipe,
distributed syndrome checking, SW start-up tests) until SFF ≥ 99 % —
is a search problem: walk the cost-vs-SFF Pareto front over mitigation
variants, guided by the criticality ranking, until the SIL target is
met or the frontier is exhausted.

The content-addressed campaign store makes the walk incremental: a
candidate that changes one bank's protection re-simulates only the
fault cones that bank touches; every other cone is a warm hit.

* :mod:`~repro.explore.transforms` — the mitigation library and
  composable design points with structural costs;
* :mod:`~repro.explore.search` — the Pareto-front driver over
  :class:`~repro.service.core.CampaignService` campaigns, which
  elaborates each design point once into a :class:`PointRecord`;
* :mod:`~repro.explore.dossier` — the exploration dossier with the
  recommendation and its per-zone evidence.
"""

from .dossier import render_explore_dossier
from .search import (
    EvaluatedPoint,
    ExplorationResult,
    ExploreConfig,
    ParetoFront,
    PointRecord,
    elaborate,
    explore,
)
from .transforms import (
    TRANSFORM_LIBRARY,
    DesignPoint,
    MitigationTransform,
    StructuralCost,
    structural_cost,
    touched_zones,
    transforms_for_zone,
)

__all__ = [
    "TRANSFORM_LIBRARY", "DesignPoint", "EvaluatedPoint",
    "ExplorationResult", "ExploreConfig", "MitigationTransform",
    "ParetoFront", "PointRecord", "StructuralCost", "elaborate",
    "explore", "render_explore_dossier", "structural_cost",
    "touched_zones", "transforms_for_zone",
]
