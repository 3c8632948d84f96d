"""Tests for worksheet persistence, zone graph, VCD and the dossier."""

import pytest

from repro.fmea import (
    dumps_worksheet,
    load_worksheet,
    loads_worksheet,
    save_worksheet,
    worksheet_from_dict,
    worksheet_to_dict,
)
from repro.hdl import Module, VcdTracer, trace_workload
from repro.iec61508 import SIL
from repro.reporting import build_dossier
from repro.soc import MemorySubsystem, SubsystemConfig, random_traffic
from repro.zones import (
    ObservationKind,
    ZoneKind,
    build_zone_graph,
    diagnostic_reach_ratio,
    export_graphml,
    undiagnosed_zones,
    zone_reach,
)

from .graph_oracle import EffectPredictor
from .simulator_oracle import Simulator


@pytest.fixture(scope="module")
def improved():
    return MemorySubsystem(SubsystemConfig.small_improved())


@pytest.fixture(scope="module")
def baseline():
    return MemorySubsystem(SubsystemConfig.small_baseline())


# ----------------------------------------------------------------------
# worksheet JSON
# ----------------------------------------------------------------------
def test_worksheet_roundtrip_dict(improved):
    sheet = improved.worksheet()
    back = worksheet_from_dict(worksheet_to_dict(sheet))
    assert len(back) == len(sheet)
    assert back.totals().sff == pytest.approx(sheet.totals().sff)
    assert back.totals().dc == pytest.approx(sheet.totals().dc)
    # claims, factors, modes survive per row
    for a, b in zip(sheet.entries, back.entries):
        assert a.zone == b.zone
        assert a.failure_mode == b.failure_mode
        assert a.ddf == pytest.approx(b.ddf)
        assert a.safe_fraction == pytest.approx(b.safe_fraction)


def test_worksheet_roundtrip_preserves_measurements(improved):
    sheet = improved.worksheet()
    zone = sheet.zone_names()[0]
    mode = sheet.rows_for_zone(zone)[0].failure_mode.name
    sheet.record_measurement(zone, mode, measured_ddf=0.77)
    back = loads_worksheet(dumps_worksheet(sheet))
    assert back.row(zone, mode).measured_ddf == pytest.approx(0.77)


def test_worksheet_file_io(improved, tmp_path):
    sheet = improved.worksheet()
    path = tmp_path / "sheet.json"
    save_worksheet(sheet, path)
    back = load_worksheet(path)
    assert back.name == sheet.name
    assert len(back) == len(sheet)


def test_worksheet_schema_check():
    with pytest.raises(ValueError, match="schema"):
        worksheet_from_dict({"schema": 999, "name": "x", "entries": []})


# ----------------------------------------------------------------------
# zone graph (pinned against networkx)
# ----------------------------------------------------------------------
def test_zone_graph_structure(improved):
    zone_set = improved.extract_zones()
    graph = build_zone_graph(zone_set)
    kinds = {d["kind"] for _, d in graph.nodes(data=True)}
    assert kinds == {"zone", "observation"}
    # edges carry distance and main-effect attributes
    some_edge = next(iter(graph.edges(data=True)))
    assert "distance" in some_edge[2] and "main" in some_edge[2]


def test_improved_has_full_diagnostic_reach(improved):
    zone_set = improved.extract_zones()
    ratio = diagnostic_reach_ratio(zone_set)
    assert ratio > 0.95
    assert undiagnosed_zones(zone_set) == []


def test_baseline_reach_not_worse_structurally(baseline, improved):
    """Structural alarm reach: the improved design adds alarm paths."""
    r_base = diagnostic_reach_ratio(baseline.extract_zones())
    r_impr = diagnostic_reach_ratio(improved.extract_zones())
    assert r_impr >= r_base


def test_zone_reach_counts(improved):
    zone_set = improved.extract_zones()
    reach = zone_reach(zone_set)
    assert reach
    assert all(v >= 0 for v in reach.values())
    # the write buffer data reaches many observation points
    wbuf = [v for k, v in reach.items()
            if k.startswith("fmem/wbuf/data")]
    assert wbuf and max(wbuf) >= 3


def test_graphml_export(improved, tmp_path):
    from repro.zones import export_graphml
    path = tmp_path / "zones.graphml"
    export_graphml(improved.extract_zones(), path)
    assert path.read_text().startswith("<?xml")


def networkx_zone_graph(nx, zone_set,
                        kinds=(ZoneKind.REGISTER, ZoneKind.MEMORY,
                               ZoneKind.PRIMARY_INPUT)):
    """The zone graph as the networkx implementation built it."""
    graph = nx.DiGraph()
    predictor = EffectPredictor(zone_set.circuit,
                                zone_set.observation_points)
    for point in zone_set.observation_points:
        graph.add_node(point.name, kind="observation",
                       observation_kind=point.kind.value)
    for zone in zone_set.zones:
        if zone.kind not in kinds:
            continue
        graph.add_node(zone.name, kind="zone",
                       zone_kind=zone.kind.value, bits=zone.size_bits)
        for effect in predictor.predict(zone).effects:
            graph.add_edge(zone.name, effect.observation,
                           distance=effect.distance, main=effect.is_main)
    return graph


@pytest.mark.parametrize("variant", ["baseline", "improved"])
def test_zone_graph_matches_networkx(variant, baseline, improved,
                                     tmp_path):
    nx = pytest.importorskip("networkx")
    sub = baseline if variant == "baseline" else improved
    zone_set = sub.extract_zones()
    reference = networkx_zone_graph(nx, zone_set)

    # GraphML: both files read back to the same nodes, edges, attributes
    export_graphml(zone_set, tmp_path / "stdlib.graphml")
    nx.write_graphml(reference, tmp_path / "networkx.graphml")
    ours = nx.read_graphml(tmp_path / "stdlib.graphml")
    theirs = nx.read_graphml(tmp_path / "networkx.graphml")
    assert list(ours.nodes(data=True)) == list(theirs.nodes(data=True))
    assert list(ours.edges(data=True)) == list(theirs.edges(data=True))

    # the analyses read the same zone -> observation-point adjacency
    assert zone_reach(zone_set) == {
        node: reference.out_degree(node)
        for node, data in reference.nodes(data=True)
        if data["kind"] == "zone"}
    storage = networkx_zone_graph(
        nx, zone_set, kinds=(ZoneKind.REGISTER, ZoneKind.MEMORY))
    reach = {node: set(storage.successors(node))
             for node, data in storage.nodes(data=True)
             if data["kind"] == "zone"}
    alarms = {p.name for p in zone_set.diagnostic_points()}
    functional = {p.name for p in zone_set.observation_points
                  if p.kind is ObservationKind.OUTPUT}
    assert diagnostic_reach_ratio(zone_set) == \
        sum(1 for points in reach.values() if points & alarms) / len(reach)
    assert undiagnosed_zones(zone_set) == sorted(
        zone for zone, points in reach.items()
        if points & functional and not points & alarms)


# ----------------------------------------------------------------------
# VCD tracing
# ----------------------------------------------------------------------
def test_vcd_trace_structure():
    m = Module("t")
    a = m.input("a", 4)
    q = m.reg("r", a)
    m.output("y", q)
    circ = m.build()
    sim = Simulator(circ)
    tracer = VcdTracer(circ, ["a", "y"])
    for value in (0, 5, 5, 9):
        sim.step_eval({"a": value})
        tracer.sample(sim)
        sim.step_commit()
    text = tracer.dumps()
    assert "$timescale" in text
    assert "$var wire 4" in text
    assert "$enddefinitions $end" in text
    assert "#0" in text and "#3" in text
    # value changes appear as binary vectors
    assert "b101 " in text


def test_vcd_no_redundant_changes():
    m = Module("t")
    a = m.input("a", 1)
    m.output("y", a)
    circ = m.build()
    sim = Simulator(circ)
    tracer = VcdTracer(circ, ["y"])
    for value in (1, 1, 1):
        sim.step_eval({"a": value})
        tracer.sample(sim)
        sim.step_commit()
    # only one change recorded (plus the time markers)
    changes = [ln for ln in tracer.dumps().splitlines()
               if ln.startswith("1")]
    assert len(changes) == 1


def test_trace_workload_helper(improved):
    wl = random_traffic(improved, n_ops=4, seed=2)
    text = trace_workload(improved.circuit, list(wl),
                          signals=["hrdata", "rvalid", "alarm_ce"],
                          setup=improved.preload_image())
    assert "$var" in text and "rvalid" in text


# ----------------------------------------------------------------------
# dossier
# ----------------------------------------------------------------------
def test_dossier_without_validation(improved):
    zone_set = improved.extract_zones()
    sheet = improved.worksheet(zone_set)
    text = build_dossier("unit", improved, zone_set, sheet,
                         target_sil=SIL.SIL2)
    assert "SAFETY DOSSIER" in text
    assert "sensible-zone census" in text
    assert "NOT RUN" in text
    assert "NOT COMPLIANT" in text  # no validation evidence


def test_dossier_with_validation(improved):
    from repro.faultinjection import run_validation
    zone_set = improved.extract_zones()
    sheet = improved.worksheet(zone_set)
    validation = run_validation(improved)
    text = build_dossier("unit", improved, zone_set, sheet,
                         validation=validation, target_sil=SIL.SIL2)
    assert "overall: PASS" in text
    assert "dossier conclusion    : COMPLIANT" in text.replace(
        "  ", " ") or "COMPLIANT" in text
