"""One campaign pass on the compiled kernel.

:func:`run_pass_compiled` is the pass loop of every campaign: it arms
the pass's faults on :class:`~repro.hdl.compiled.CompiledSimulator`
(every fault kind, bridges and memory coupling included), builds one
probe table, and hands both with the manager's packed stimulus table
to the kernel's C cycle loop
(:meth:`~repro.hdl.compiled.CompiledSimulator.run`), which calls
``observe`` in ``_SWEEP_C`` after every evaluation and returns to
Python only after a cycle in which some point got new lanes:

* a *point* is an observation point or a SENS probe and owns a
  contiguous range of *cells*; a cell is ``(address, lane stride,
  bits)``: one value row, one flop's state or one memory word;
* per lane word, a point's new lanes are the OR over its cells' bits
  of ``x ^ g``, where ``g`` is the bit's golden (lane-0) value spread
  over every lane; a diagnostic point raises on ``x & ~g`` instead
  (an alarm the golden machine did not raise);
* per-point *seen* masks mean a (point, machine) pair is reported
  once, and a SENS probe watches only the lanes of the faults in its
  zone, so a probe whose faults have all been seen costs nothing;
  Python's recording loop runs only on the points with new lanes.

Points keep the order FUNC, STATUS, net probes, DIAG, flop probes,
memory probes: it fixes the insertion order of ``effects`` and which
alarm is a fault's ``first_alarm`` when two rise in one cycle.

Its records — ``FaultResult`` fields and the toggle merge — are
bit-identical to a per-point loop over the interpreted simulator, the
differential oracle (``tests/simulator_oracle.py``) that
``tests/test_compiled_differential.py`` checks it against.  A pass
keeps no golden bookkeeping: the fault-free OBSE/DIAG activity comes
from the profile replay
(:func:`~repro.faultinjection.parallel.compute_golden_trace`).
"""

from __future__ import annotations

import math

import numpy as np

from ..hdl.compiled import CompiledSimulator
from .manager import CampaignResult, FaultResult

_FUNC, _STATUS, _PROBE, _DIAG = 0, 1, 2, 3


def _cells(array: np.ndarray, *index) -> np.ndarray:
    """The ``(address, lane stride, bits)`` cell rows of
    ``array[index]``, one per index entry.

    ``index`` spans the leading axes of the C-ordered ``array``; the
    next axis is the lane word and any after it a cell's bits.
    :func:`numpy.ravel_multi_index` raises on an entry outside the
    array, so the C loop only reads inside it.
    """
    k = len(index)
    flat = np.ravel_multi_index(index, array.shape[:k])
    rows = np.empty((len(flat), 3), dtype=np.int64)
    rows[:, 0] = array.ctypes.data + flat * array.strides[k - 1]
    rows[:, 1] = array.strides[k] // array.itemsize
    rows[:, 2] = math.prod(array.shape[k + 1:])
    return rows


def _probe_table(manager, sim, batch):
    """The pass's points in observation order, their cells and their
    initial *seen* masks.

    Returns ``(points, offsets, cells, diag, seen)``: point ``p`` is
    ``(kind, name)`` and owns rows ``offsets[p]:offsets[p + 1]`` of
    the ``(C, 3)`` cell table, and the DIAG points are
    ``range(*diag)``.  A SENS probe starts with every lane seen but
    those of the faults in its zone, the only ones it records.
    Zero-net points are dropped: they can never mismatch.
    """
    perm = sim.compiled.perm
    points: list[tuple] = []
    blocks: list[np.ndarray] = []
    seen: list[np.ndarray] = []

    def add(kind, name, cells, lanes=None):
        if len(cells):
            points.append((kind, name))
            blocks.append(cells)
            seen.append(sim._pack(0 if lanes is None
                                  else sim.full_mask & ~lanes))

    def net_cells(nets):
        return _cells(sim._vals, perm[np.asarray(nets, dtype=np.intp)])

    probes: dict[tuple, int] = {}
    for idx, fault in enumerate(batch):
        zone = manager._zones_by_name.get(fault.zone or "")
        if zone is None:
            continue
        probe = manager._zone_probe(zone, fault)
        if probe is not None:
            probes[probe] = probes.get(probe, 0) | 1 << (idx + 1)
    by_kind: dict[str, list] = {"nets": [], "flops": [], "mem": []}
    for probe, lanes in probes.items():
        by_kind[probe[0]].append((probe, lanes))

    for p in manager.functional:
        add(_FUNC, p.name, net_cells(p.nets))
    for p in manager.status:
        add(_STATUS, p.name, net_cells(p.nets))
    for (_, nets), lanes in by_kind["nets"]:
        add(_PROBE, None, net_cells(nets), lanes)
    diag_lo = len(points)
    for p in manager.diagnostic:
        add(_DIAG, p.name, net_cells(p.nets))
    diag = (diag_lo, len(points))
    for (_, flops), lanes in by_kind["flops"]:
        add(_PROBE, None,
            _cells(sim._flop_state, np.asarray(flops, dtype=np.intp)),
            lanes)
    for (_, mem, word), lanes in by_kind["mem"]:
        store = sim._mem_store[sim._resolve_mem(mem)]
        add(_PROBE, None, _cells(store, [word]), lanes)

    offsets = np.zeros(len(points) + 1, dtype=np.int64)
    np.cumsum([len(b) for b in blocks], out=offsets[1:])
    cells = np.concatenate([np.zeros((0, 3), dtype=np.int64), *blocks])
    return points, offsets, cells, diag, \
        np.array(seen, dtype=np.uint64).reshape(len(points), sim.words)


def run_pass_compiled(manager, batch, result) -> None:
    """Run one campaign pass and record its faults into ``result``.

    A :class:`~repro.hdl.simulator.CycleBudgetExceeded` raised
    mid-pass propagates before any fault record is added (the
    supervisor's hang quarantine relies on it).
    """
    cfg = manager.config
    sim = CompiledSimulator(manager.program.compiled(),
                            machines=len(batch) + 1,
                            collect_toggles=cfg.collect_toggles,
                            cycle_budget=cfg.cycle_budget)
    if manager.setup is not None:
        manager.setup(sim)
    for k, fault in enumerate(batch, start=1):
        fault.arm(sim, machine=k, t0=0)

    results = [FaultResult(fault=f) for f in batch]
    points, offsets, cells, diag, seen = _probe_table(manager, sim, batch)
    fresh = np.empty_like(seen)
    hit = np.empty(len(points), dtype=np.int64)

    def record(cycle: int, count: int) -> None:
        for p in hit[:count].tolist():
            kind, name = points[p]
            mask = sim._unpack(fresh[p])
            while mask:
                low = mask & -mask
                mask ^= low
                res = results[low.bit_length() - 2]
                if kind == _PROBE:
                    res.sens_cycle = cycle
                    continue
                res.effects.setdefault(name, cycle)
                if kind == _FUNC:
                    if res.obse_cycle is None:
                        res.obse_cycle = cycle
                elif kind == _DIAG and res.diag_cycle is None:
                    res.diag_cycle = cycle
                    res.first_alarm = name

    table = manager.program.table()
    sim.run(table, len(table), (offsets, cells, diag, seen, fresh, hit),
            record)
    result.cycles_simulated += len(table)

    if cfg.collect_toggles:
        result.merge_toggles(CampaignResult(seen0=sim._seen0,
                                            seen1=sim._seen1))

    result.results.extend(results)
