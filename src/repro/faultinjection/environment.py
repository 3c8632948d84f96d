"""Environment Builder (paper §5, Figure 4).

"this block extracts from the FMEA all the information related to the
environment for the injection campaign and builds all the required
environment configuration files."

:class:`InjectionEnvironment` bundles everything a campaign needs —
circuit, zones, FMEA worksheet, workload, observation points, simulator
setup — and hands out its operational profile, fault lists and the
:class:`~repro.faultinjection.parallel.CampaignSpec` that managers and
supervisors are built from.  Its one :meth:`program
<InjectionEnvironment.program>` serves the profile replay and them all.
"""

from __future__ import annotations

import json
from dataclasses import replace

from ..diagnostics import DiagnosticError, DiagnosticReport
from ..fmea.worksheet import FmeaWorksheet
from ..hdl.compiled import Program
from ..hdl.netlist import Circuit
from ..hdl.simulator import MemoryImageSetup
from ..zones.extractor import ZoneSet
from .faultlist import (
    CandidateList,
    FaultListConfig,
    generate_zone_faults,
)
from .manager import CampaignConfig
from .parallel import CampaignSpec, require_setup_data
from .profiler import OperationalProfile, profile_workload

STIMULI_SCHEMA_VERSION = 1


class StimuliValidationError(DiagnosticError, ValueError):
    """The workload's stimuli don't match the circuit's input ports."""


def validate_stimuli_report(circuit: Circuit, stimuli,
                            report: DiagnosticReport,
                            source: str | None = None) -> None:
    """Cross-check stimuli keys against the circuit's primary inputs.

    Catches the two silent campaign-invalidating mistakes up front,
    before hours of fault simulation produce meaningless coverage:

    * ``E211``: an **unknown** key (driven in some cycle but not an
      input port of the circuit) would be ignored by the simulator —
      typically a typo or a stale signal name after a netlist edit;
    * ``E212``: a **missing** input (a port no cycle ever drives)
      silently holds its reset value for the whole workload.

    Appends one diagnostic per offending signal to ``report``.  Empty
    stimuli are vacuously valid.
    """
    stimuli = list(stimuli)
    known = set(circuit.inputs)
    unknown: dict[str, int] = {}
    driven: set[str] = set()
    for cycle, vector in enumerate(stimuli):
        for name in vector:
            if name in known:
                driven.add(name)
            elif name not in unknown:
                unknown[name] = cycle
    known_names = ", ".join(repr(n) for n in sorted(known))
    for name, cycle in sorted(unknown.items()):
        report.error(
            "E211",
            f"stimuli drive signal {name!r} (first driven in cycle "
            f"{cycle}) that is not a primary input of "
            f"{circuit.name!r}",
            file=source,
            hint=f"known primary inputs: {known_names}")
    missing = known - driven
    if missing and driven:
        for name in sorted(missing):
            report.error(
                "E212",
                f"primary input {name!r} of {circuit.name!r} is "
                f"never driven in any of the {len(stimuli)} stimuli "
                f"cycle(s) (it would hold its reset value for the "
                f"whole workload)",
                file=source)


def validate_stimuli(circuit: Circuit, stimuli) -> None:
    """Raise :class:`StimuliValidationError` on inconsistent stimuli.

    Thin fail-fast wrapper around :func:`validate_stimuli_report`;
    returns ``None`` when the stimuli are consistent.
    """
    report = DiagnosticReport()
    validate_stimuli_report(circuit, stimuli, report)
    report.raise_if_errors(StimuliValidationError)


def load_stimuli(path, *,
                 report: DiagnosticReport | None = None
                 ) -> list[dict] | None:
    """Read a stimuli file (``{"schema": 1, "cycles": [{sig: val}]}``).

    Structural defects are ``E210``/``E213`` diagnostics; with
    ``report=None`` they raise :class:`StimuliValidationError`,
    otherwise they are appended to the caller's report and ``None``
    is returned.  Signal-name consistency against a circuit is a
    separate step (:func:`validate_stimuli_report`).
    """
    collect = DiagnosticReport() if report is None else report
    before = len(collect.errors)
    data = None
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as err:
        collect.error("E210", f"cannot read stimuli: {err}",
                      file=str(path))
    except json.JSONDecodeError as err:
        collect.error(
            "E210", f"stimuli file is not valid JSON: {err.msg}",
            file=str(path), line=err.lineno, column=err.colno)
    cycles = None
    if data is not None:
        cycles = _check_stimuli_shape(data, str(path), collect)
    if report is None and len(collect.errors) > before:
        raise StimuliValidationError(collect)
    return cycles


def _check_stimuli_shape(data, source: str,
                         collect: DiagnosticReport
                         ) -> list[dict] | None:
    if not isinstance(data, dict):
        collect.error(
            "E210", f"stimuli root must be a JSON object, got "
                    f"{type(data).__name__}", file=source)
        return None
    schema = data.get("schema")
    if schema != STIMULI_SCHEMA_VERSION:
        collect.error(
            "E210", f"unsupported stimuli schema {schema!r} "
                    f"(current: {STIMULI_SCHEMA_VERSION})",
            file=source)
        return None
    cycles = data.get("cycles")
    if not isinstance(cycles, list):
        collect.error("E210", "field 'cycles' must be a list",
                      file=source)
        return None
    clean: list[dict] = []
    bad = False
    for i, vector in enumerate(cycles):
        if not isinstance(vector, dict):
            collect.error(
                "E213", f"cycles[{i}] must be an object mapping "
                        f"signal names to values", file=source)
            bad = True
            continue
        for name, value in vector.items():
            if not isinstance(value, int) or isinstance(value, bool):
                collect.error(
                    "E213", f"cycles[{i}].{name} must be an integer "
                            f"value, got {type(value).__name__} "
                            f"({value!r})", file=source)
                bad = True
        if not bad:
            clean.append(vector)
    return None if bad else clean


def save_stimuli(stimuli, path) -> None:
    """Write stimuli cycles in the :func:`load_stimuli` format."""
    with open(path, "w") as handle:
        json.dump({"schema": STIMULI_SCHEMA_VERSION,
                   "cycles": list(stimuli)}, handle)


class InjectionEnvironment:
    """A ready-to-run injection environment."""

    def __init__(self, circuit: Circuit, zone_set: ZoneSet,
                 worksheet: FmeaWorksheet, stimuli,
                 workload_name="workload",
                 setup: MemoryImageSetup | None = None,
                 read_strobes=None, test_windows=()):
        self.circuit = circuit
        self.zone_set = zone_set
        self.worksheet = worksheet
        self.stimuli = list(stimuli)
        self.workload_name = workload_name
        self.setup = require_setup_data(setup)
        self.read_strobes = read_strobes or {}
        self.test_windows = tuple(test_windows)
        self._profile = None
        self._program = None

    # ------------------------------------------------------------------
    def program(self) -> Program:
        """The compiled (circuit, stimuli) pair the profile replay and
        every spec's manager run on; assigning either starts anew."""
        program = self._program
        if program is None or program.circuit is not self.circuit \
                or program.stimuli is not self.stimuli:
            self._program = program = Program(self.circuit, self.stimuli)
        return program

    def profile(self, cache=None) -> OperationalProfile:
        """The (memoized) operational profile of the workload.

        Given a :class:`~repro.store.CampaignCache`, the first call is
        served from its content-addressed store (or replayed and
        recorded there) instead of replaying the workload.
        """
        if self._profile is None:
            self._profile = cache.profile(self) if cache is not None \
                else profile_workload(self.circuit, self.stimuli,
                                      setup=self.setup,
                                      read_strobes=self.read_strobes,
                                      program=self.program())
        return self._profile

    def candidates(self, config: FaultListConfig | None = None
                   ) -> CandidateList:
        return generate_zone_faults(self.zone_set, self.circuit,
                                    profile=self.profile(),
                                    config=config)

    def spec(self, config: CampaignConfig | None = None
             ) -> CampaignSpec:
        """The picklable campaign description of this environment:
        ``spec.manager()`` runs it in this process,
        ``CampaignSupervisor(spec)`` supervises it.

        The config's test windows default to the workload's (the
        caller's config is never modified), and the (memoized)
        operational profile supplies the golden activity, so the
        workload is replayed at most once, on :meth:`program`.
        """
        config = config or CampaignConfig()
        config = replace(config, test_windows=config.test_windows
                         or self.test_windows)
        return CampaignSpec.from_zone_set(
            self.circuit, self.stimuli, self.zone_set, setup=self.setup,
            config=config, activity=self.profile().activity,
            program=self.program())

    # ------------------------------------------------------------------
    def as_config_dict(self) -> dict:
        """The 'environment configuration file' view of the setup."""
        return {
            "design": self.circuit.name,
            "workload": self.workload_name,
            "cycles": len(self.stimuli),
            "zones": len(self.zone_set.zones),
            "fmea_rows": len(self.worksheet),
            "observation_points": [p.name for p in
                                   self.zone_set.functional_points()],
            "diagnostic_points": [p.name for p in
                                  self.zone_set.diagnostic_points()],
            "read_strobes": dict(self.read_strobes),
        }


def build_environment(subsystem, workload=None,
                      zone_set: ZoneSet | None = None,
                      worksheet: FmeaWorksheet | None = None,
                      quick: bool = True) -> InjectionEnvironment:
    """Wire an environment for a :class:`~repro.soc.MemorySubsystem`."""
    from ..soc.workloads import validation_workload
    if workload is None:
        workload = validation_workload(subsystem, quick=quick)
    if zone_set is None:
        zone_set = subsystem.extract_zones()
    if worksheet is None:
        worksheet = subsystem.worksheet(zone_set)
    return InjectionEnvironment(
        circuit=subsystem.circuit,
        zone_set=zone_set,
        worksheet=worksheet,
        stimuli=list(workload),
        workload_name=workload.name,
        setup=subsystem.preload_image(),
        read_strobes=subsystem.read_strobes(),
        test_windows=workload.test_windows())
