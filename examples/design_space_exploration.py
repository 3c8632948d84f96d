#!/usr/bin/env python3
"""Design-space exploration: which §6 improvement buys what?

The paper's methodology "allows the identification of critical part of
a circuit and the exploration of possible implementations for best
safety as well".  This example drives :mod:`repro.explore` — the
automated version of that sentence: a criticality-seeded Pareto walk
over the mitigation library, each candidate evaluated as a real
injection campaign on the design the walk already elaborated and
deduped by the content-addressed store, so each step re-simulates
only the fault cones it touched.

Run:  python examples/design_space_exploration.py
"""

import tempfile

from repro.explore import (
    TRANSFORM_LIBRARY,
    DesignPoint,
    ExploreConfig,
    elaborate,
    explore,
    render_explore_dossier,
    structural_cost,
)
from repro.iec61508 import max_sil
from repro.reporting import pct, render_table
from repro.service.core import CampaignService


def ablation_table(variant: str = "small-baseline",
                   banks: int = 2) -> str:
    """One transform at a time (applied to every bank), analytic.

    The claimed-SFF/cost ablation behind the search: no simulation,
    just the worksheet of each single-mechanism design point.
    """
    base_point = DesignPoint(variant=variant, banks=banks)
    base = elaborate(base_point)
    rows = [["base", pct(base.claimed_sff), "-", 0,
             _sil(base.claimed_sff)]]
    for key, transform in TRANSFORM_LIBRARY.items():
        point = base_point
        for bank in range(banks):
            point = point.with_transform(bank, key)
        record = elaborate(point)
        sff = record.claimed_sff
        cost = structural_cost(record.tally, base.tally)
        rows.append([f"+ {transform.title}", pct(sff),
                     f"{(sff - base.claimed_sff) * 100:+.2f} pt",
                     cost.scalar, _sil(sff)])
    return render_table(
        ["design point", "SFF", "ΔSFF", "cost", "SIL@HFT0"], rows,
        title="=== one mechanism at a time (analytic, all banks) ===")


def main():
    print(ablation_table())
    print()

    # the search proper: greedy criticality-seeded Pareto walk with
    # campaign evidence, on a throwaway store
    with tempfile.TemporaryDirectory() as tmp:
        service = CampaignService(tmp)
        config = ExploreConfig(variant="small-baseline", banks=2,
                               target_sff=0.95, budget=8)
        result = explore(service, config, progress=print)
        print()
        print(render_explore_dossier(result))


def _sil(sff: float) -> str:
    granted = max_sil(sff, hft=0)
    return granted.name if granted else "none"


if __name__ == "__main__":
    main()
