"""E6 — §5(b): workload completeness.

"the efficiency of the workload in covering the HW gates of the
gate-level netlist is measured, for instance by using a toggle count
coverage ...  If the toggle count percentage (i.e. nets/gates toggling
at least once) ... is greater than a defined value (default 99%), the
validation is successful."
"""

from conftest import report

from repro.faultinjection import measure_toggle_coverage
from repro.soc import validation_workload
from repro.zones.effects import diagnostic_only_nets


def _functional_coverage(sub):
    full = validation_workload(sub, quick=False)
    toggle = measure_toggle_coverage(
        sub.circuit, full, setup=sub.preload_image())
    diag_only = diagnostic_only_nets(sub.extract_zones())
    names = {sub.circuit.net_names[n] for n in diag_only}
    functional_misses = [n for n in toggle.untoggled
                         if n not in names]
    functional_total = toggle.total - len(diag_only)
    covered = functional_total - len(functional_misses)
    return covered / functional_total, toggle


def test_workload_toggle_coverage_improved(benchmark, improved_small):
    coverage, toggle = benchmark.pedantic(
        lambda: _functional_coverage(improved_small), rounds=1,
        iterations=1)
    report(benchmark,
           paper_threshold="99%",
           functional_coverage=f"{coverage * 100:.2f}%",
           raw_coverage=toggle.summary())
    assert coverage >= 0.99


def test_workload_toggle_coverage_baseline(benchmark, baseline_small):
    coverage, _ = benchmark.pedantic(
        lambda: _functional_coverage(baseline_small), rounds=1,
        iterations=1)
    report(benchmark, functional_coverage=f"{coverage * 100:.2f}%")
    assert coverage >= 0.99


def test_incomplete_workload_fails_threshold(benchmark, improved_small):
    """A trivial workload must be rejected by the completeness check."""
    sub = improved_small
    stimuli = [sub.idle() for _ in range(10)]

    toggle = benchmark(lambda: measure_toggle_coverage(
        sub.circuit, stimuli, setup=sub.preload_image()))
    report(benchmark, coverage=f"{toggle.coverage * 100:.2f}%")
    assert not toggle.passed
