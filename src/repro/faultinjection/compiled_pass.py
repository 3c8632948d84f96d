"""One campaign pass on the compiled numpy kernel.

:func:`run_pass_compiled` is the pass loop of every campaign: it
evaluates the whole pass on
:class:`~repro.hdl.compiled.CompiledSimulator` (every fault kind,
bridges and memory coupling included) and observes it with vectorized
group reductions instead of a per-point Python loop:

* all observation points and net-shaped SENS probes are concatenated
  into one row gather; each row's golden words are gathered by its
  lane-0 bit into a same-shape buffer, and a single segmented OR
  (``reduceat``) yields the per-point golden-diff words each cycle;
* diagnostic points occupy the tail of that concatenation so their
  different semantics (``raised = v & ~golden`` instead of
  ``v ^ golden``) are one in-place slice operation;
* flop- and memory-word SENS probes get the same treatment over the
  flop-state array and the transposed memory store (one gather per
  stacked group of same-shape memories);
* per-point *seen* masks ensure the Python recording loop only ever
  touches a (point, machine) pair once; the diff rows are masked to
  the lanes their point has not seen, and a cycle with none left
  skips the reduction and the recording loop, so the steady-state
  per-cycle cost is a handful of numpy calls.

Its records — ``FaultResult`` fields and the toggle merge — are
bit-identical to a per-point loop over the interpreted simulator, the
differential oracle (``tests/simulator_oracle.py``) that
``tests/test_compiled_differential.py`` checks it against.  A pass
keeps no golden bookkeeping: the fault-free OBSE/DIAG activity comes
from the profile replay
(:func:`~repro.faultinjection.parallel.compute_golden_trace`).
"""

from __future__ import annotations

import numpy as np

from ..hdl.compiled import CompiledSimulator
from .manager import FaultResult

_U64 = np.uint64

_FUNC, _STATUS, _PROBE, _DIAG = 0, 1, 2, 3


class _Group:
    """One concatenated observation family sharing a gather axis.

    A row gathers ``width`` cells per lane word: 1 for nets and flops,
    a memory word's bits for the memory probes.  ``unseen`` holds, per gathered row, the lanes its point has not
    recorded yet (``lanes ^ seen`` of the row's point), so a cycle
    whose masked diff is all zero skips the reduction and the
    recording loop.
    """

    __slots__ = ("index", "starts", "pts", "seen", "buf", "golden",
                 "point", "lanes", "unseen")

    def __init__(self, index: list[int], starts: list[int],
                 pts: list[tuple], full: np.ndarray, width: int = 1):
        self.index = np.asarray(index, dtype=np.intp)
        self.starts = np.asarray(starts, dtype=np.intp)
        self.pts = pts                       # (kind, name, members)
        rows = len(self.index)
        self.seen = np.zeros((len(pts), len(full)), dtype=_U64)
        self.buf = np.empty((rows, len(full) * width), dtype=_U64)
        self.golden = np.empty((rows, len(full)), dtype=_U64)
        self.point = np.repeat(np.arange(len(pts), dtype=np.intp),
                               np.diff(self.starts, append=rows))
        self.lanes = np.tile(full, (rows, 1))
        self.unseen = self.lanes.copy()


def _build_groups(manager, sim, batch):
    """Partition points + SENS probes into vectorizable groups.

    Returns ``(net_group, diag_seg_lo, flop_group, mem_groups)``;
    any group may be ``None``/empty.  ``mem_groups`` holds one
    ``(store as (G * depth, W * width) words, width, group)`` entry
    per stacked memory group of ``sim``; the group's index is each
    probe's word in that view.  Zero-net points are dropped —
    they can never mismatch (and ``reduceat`` cannot represent empty
    segments).
    """
    cc = sim.compiled
    full = sim._full
    rows: list[int] = []
    starts: list[int] = []
    pts: list[tuple] = []
    perm = cc.perm

    def add_point(kind, name, nets, members=None):
        if not nets:
            return
        starts.append(len(rows))
        rows.extend(int(perm[n]) for n in nets)
        pts.append((kind, name, members))

    for p in manager.functional:
        add_point(_FUNC, p.name, list(p.nets))
    for p in manager.status:
        add_point(_STATUS, p.name, list(p.nets))

    probe_members: dict[tuple, list[int]] = {}
    for idx, fault in enumerate(batch):
        zone = manager._zones_by_name.get(fault.zone or "")
        if zone is None:
            continue
        probe = manager._zone_probe(zone, fault)
        if probe is None:
            continue
        probe_members.setdefault(probe, []).append(idx)

    flop_idx: list[int] = []
    flop_starts: list[int] = []
    flop_pts: list[tuple] = []
    mem_index = {m.name: i
                 for i, m in enumerate(manager.circuit.memories)}
    by_mem: dict[int, tuple[list[int], list[int], list[tuple]]] = {}
    for probe, members in probe_members.items():
        if probe[0] == "nets":
            add_point(_PROBE, None, list(probe[1]), members)
        elif probe[0] == "flops":
            if not probe[1]:
                continue
            flop_starts.append(len(flop_idx))
            flop_idx.extend(probe[1])
            flop_pts.append((_PROBE, None, members))
        else:                                # ("mem", name, word)
            gi, j = sim._mem_slot[mem_index[probe[1]]]
            mjs, mwords, mpts = by_mem.setdefault(gi, ([], [], []))
            mjs.append(j)
            mwords.append(probe[2])
            mpts.append((_PROBE, None, members))

    # diagnostic points go LAST: their raised-while-golden-quiet
    # semantics become one in-place masking of the tail slice
    diag_seg_lo = len(pts)
    for p in manager.diagnostic:
        add_point(_DIAG, p.name, list(p.nets))

    net_group = _Group(rows, starts, pts, full) if pts else None
    flop_group = _Group(flop_idx, flop_starts, flop_pts, full) \
        if flop_pts else None
    mem_groups = []
    for gi, (mjs, mwords, mpts) in by_mem.items():
        store = sim._mem_groups[gi].store   # (G, depth, W, width)
        G, depth, _, width = store.shape
        rows = np.asarray(mjs, dtype=np.intp) * depth + mwords
        group = _Group(rows, list(range(len(rows))), mpts, full, width)
        mem_groups.append((store.reshape(G * depth, -1), width, group))
    return net_group, diag_seg_lo, flop_group, mem_groups


def run_pass_compiled(manager, batch, result) -> None:
    """Run one campaign pass and record its faults into ``result``.

    A :class:`~repro.hdl.simulator.CycleBudgetExceeded` raised
    mid-pass propagates before any fault record is added (the
    supervisor's hang quarantine relies on it).
    """
    cfg = manager.config
    sim = CompiledSimulator(manager.compiled_circuit(),
                            machines=len(batch) + 1,
                            collect_toggles=cfg.collect_toggles,
                            cycle_budget=cfg.cycle_budget)
    if manager.setup is not None:
        manager.setup(sim)
    for k, fault in enumerate(batch, start=1):
        fault.arm(sim, machine=k, t0=0)

    results = [FaultResult(fault=f) for f in batch]
    net, diag_lo, flopg, memgs = _build_groups(manager, sim, batch)
    diag_row_lo = int(net.starts[diag_lo]) \
        if net is not None and diag_lo < len(net.pts) \
        else (len(net.index) if net is not None else 0)

    stimuli = manager.stimuli
    if cfg.max_cycles is not None:
        stimuli = stimuli[:cfg.max_cycles]

    one = _U64(1)
    golden = sim._golden_words
    vals = sim._vals

    def record(new, group):
        """Route newly-diverged (point, machine) pairs to results;
        ``new`` holds unseen lanes only."""
        group.seen |= new
        group.seen.take(group.point, 0, group.unseen, "clip")
        np.bitwise_xor(group.unseen, group.lanes, out=group.unseen)
        for p in np.nonzero(new.any(axis=1))[0]:
            kind, name, members = group.pts[p]
            mask = int.from_bytes(
                new[p].astype("<u8").tobytes(), "little")
            if kind == _PROBE:
                for idx in members:
                    if (mask >> (idx + 1)) & 1 and \
                            results[idx].sens_cycle is None:
                        results[idx].sens_cycle = cycle
                continue
            while mask:
                low = mask & -mask
                mask ^= low
                res = results[low.bit_length() - 2]
                if kind == _FUNC:
                    res.effects.setdefault(name, cycle)
                    if res.obse_cycle is None:
                        res.obse_cycle = cycle
                elif kind == _STATUS:
                    res.effects.setdefault(name, cycle)
                else:
                    res.effects.setdefault(name, cycle)
                    if res.diag_cycle is None:
                        res.diag_cycle = cycle
                        res.first_alarm = name

    for cycle, inputs in enumerate(stimuli):
        sim.step_eval(inputs)

        # each gathered row XORs with its golden words, gathered by
        # its lane-0 bit into a same-shape buffer (no broadcast)
        if net is not None:
            diff = vals.take(net.index, 0, net.buf, "clip")
            gw = golden.take(diff[:, 0] & one, 0, net.golden, "clip")
            np.bitwise_xor(diff, gw, out=diff)
            if diag_row_lo < diff.shape[0]:
                tail = diff[diag_row_lo:]
                quiet = gw[diag_row_lo:]
                np.bitwise_not(quiet, out=quiet)
                np.bitwise_and(tail, quiet, out=tail)
            np.bitwise_and(diff, net.unseen, out=diff)
            if diff.any():
                record(np.bitwise_or.reduceat(diff, net.starts, axis=0),
                       net)

        if flopg is not None:
            diff = sim._flop_state.take(flopg.index, 0, flopg.buf,
                                        "clip")
            gw = golden.take(diff[:, 0] & one, 0, flopg.golden, "clip")
            np.bitwise_xor(diff, gw, out=diff)
            np.bitwise_and(diff, flopg.unseen, out=diff)
            if diff.any():
                record(np.bitwise_or.reduceat(diff, flopg.starts,
                                              axis=0), flopg)

        for words_of, width, mg in memgs:
            # (P, W, width) probed words; a golden 1 bit XORs the
            # whole cell, padding lanes included, which ``unseen``
            # masks off with the seen ones
            cells = words_of.take(mg.index, 0, mg.buf, "clip") \
                .reshape(len(mg.index), -1, width)
            flip = np.negative(cells[:, 0, :] & one)[:, None, :]
            np.bitwise_xor(cells, flip, out=cells)
            diff = np.bitwise_or.reduce(cells, axis=2)
            np.bitwise_and(diff, mg.unseen, out=diff)
            if diff.any():
                record(diff, mg)

        sim.step_commit()
        result.cycles_simulated += 1

    if cfg.collect_toggles:
        if result.seen0 is None:
            result.seen0 = bytearray(manager.circuit.num_nets)
            result.seen1 = bytearray(manager.circuit.num_nets)
        seen0, seen1 = sim._seen0, sim._seen1
        for net_id in range(manager.circuit.num_nets):
            if seen0[net_id]:
                result.seen0[net_id] = 1
            if seen1[net_id]:
                result.seen1[net_id] = 1

    result.results.extend(results)
