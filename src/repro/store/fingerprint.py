"""Stable canonical fingerprints for campaign inputs.

A cached fault outcome may be served instead of re-simulated only if
*everything that can influence it* is unchanged.  For one fault that
influence set is smaller than the whole campaign environment:

* the raw :class:`~repro.faultinjection.manager.FaultResult` record
  (SENS/OBSE/DIAG cycles, first alarm, effects table) depends on the
  fault descriptor, the zone definition it is attributed to, the
  stimuli, the simulator setup, the observation-point list — and only
  the part of the netlist inside the fault's **support cone**: the
  fan-in closure of the fan-out closure of the fault site.  Gates
  outside that cone can change neither the faulty machine (the fault
  cannot reach them) nor any comparison against the golden machine
  (observation points outside the fan-out closure never mismatch).
* classification-time parameters — ``detection_window``,
  ``test_windows``, ``machines_per_pass`` — do **not** enter the
  fingerprint: the store holds raw records and the outcome classes are
  recomputed per run, so changing the detection window never
  invalidates the cache.
* the observation-point list enters **per fault, restricted to the
  points the fault can reach**: a point none of whose nets lie in the
  fault's fan-out closure compares faulty-vs-golden values that are
  equal by construction, so it can neither mismatch, nor raise, nor
  steal ``first_alarm`` from a reachable point (the within-group order
  of the reachable subsequence is preserved).  Adding an alarm output
  to one logic island therefore re-fingerprints only the faults that
  can observe it — the property design-space exploration leans on when
  a mitigation touches one bank of a multi-bank design.
* the simulator setup (preloaded memory images, initial flop values)
  enters per fault restricted to the memories and flops **inside the
  support cone**: state outside the cone cannot influence any net the
  record depends on, so re-encoding one bank's preload image leaves
  every other bank's fault addresses intact.

Mutating one gate therefore re-fingerprints (and re-simulates) only
the faults whose support cone contains it; faults in disjoint logic
islands keep their content address and are served from the store.

The workload's operational profile is content-addressed as well
(:func:`profile_key`): it is the campaign's one fault-free replay (the
golden trace is derived from it), so only the circuit, the stimuli,
the setup and the read strobes enter its key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from itertools import compress
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple

from ..faultinjection.faults import Fault
from ..hdl.netlist import OP_NAMES, Circuit
from ..zones.model import ObservationPoint, SensibleZone

#: Bump when the fingerprint semantics change — every digest embeds it,
#: so stores written by older layouts simply miss instead of colliding.
#: v2: per-fault observation canon restricted to reachable points.
FP_VERSION = 2


def digest(obj) -> str:
    """SHA-256 of the canonical (sorted, compact) JSON of ``obj``."""
    blob = json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def profile_key(circuit: Circuit, stimuli, setup,
                read_strobes: dict[str, str]) -> str:
    """Content address of a workload's operational profile.

    The profile is a fault-free replay, so it depends on the circuit,
    the full stimuli, the simulator setup (already snapshotted, see
    :func:`~repro.faultinjection.parallel.snapshot_setup`) and the read
    strobes — never on zones, observation points or faults.
    """
    # "kind" names the blob layout; a new layout takes a new kind, so
    # entries of the old one miss instead of parsing as corrupt
    return digest({
        "v": FP_VERSION,
        "kind": "fault_free_replay",
        "circuit": circuit.structural_hash(),
        "stimuli": _stimuli_digest(stimuli),
        "setup": _setup_canonical(setup),
        "read_strobes": sorted(read_strobes.items()),
    })


def fault_descriptor(fault: Fault) -> dict:
    """Every behavioural field of a fault, as plain JSON data."""
    desc = {"class": type(fault).__name__, "kind": fault.kind}
    for f in fields(fault):
        value = getattr(fault, f.name)
        if isinstance(value, tuple):
            value = list(value)
        desc[f.name] = value
    return desc


# ----------------------------------------------------------------------
# support cones
# ----------------------------------------------------------------------
class Cone(NamedTuple):
    """The closures of one seed set, as marks over the index's nodes."""

    #: fan-out closure of the seeds
    forward: bytearray
    #: fan-in closure of the forward closure
    support: bytearray
    #: content address of the sub-circuit inside ``support``
    fingerprint: str


class SupportIndex:
    """Support cones of one circuit, fingerprinted per seed set.

    The support of a seed set is the fan-in closure of its fan-out
    closure, both taken *through* flip-flops and memory macros: a
    flipped flop perturbs everything downstream of its ``q``; the value
    observed anywhere in that downstream region depends on the full
    fan-in of the region (including golden write streams into any
    memory the fault can touch).

    The index's nodes are the nets ``0 .. num_nets - 1`` followed by
    one node per memory macro, with integer successor and predecessor
    lists, so a closure is one walk that marks a ``bytearray``.  Each
    gate, flop, memory and input bit carries its canonical JSON
    fragment in one global sorted order; the canonical document of a
    cone is therefore a filter-and-join over those fragments, byte for
    byte the ``json.dumps`` of the cone's sorted records.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.num_nets = n = circuit.num_nets
        size = n + len(circuit.memories)
        succ: list[list[int]] = [[] for _ in range(size)]
        pred: list[list[int]] = [[] for _ in range(size)]
        for gate in circuit.gates:
            for net in gate.inputs:
                succ[net].append(gate.out)
            pred[gate.out].extend(gate.inputs)
        for flop in circuit.flops:
            for net in (flop.d, flop.en, flop.rst):
                if net is not None:
                    succ[net].append(flop.q)
                    pred[flop.q].append(net)
        for mi, mem in enumerate(circuit.memories):
            node = n + mi
            for net in (*mem.addr, *mem.wdata, mem.we):
                succ[net].append(node)
                pred[node].append(net)
            for net in mem.rdata:
                succ[node].append(net)
                pred[net].append(node)
        self._succ = succ
        self._pred = pred
        self._mem_index = {m.name: i
                           for i, m in enumerate(circuit.memories)}
        self._flop_q = {f.name: f.q for f in circuit.flops}
        self._net_index: dict[str, int] = {}
        for i, name in enumerate(circuit.net_names):
            self._net_index.setdefault(name, i)
        self._fragments = _Fragments(circuit)
        self._full_fp: str | None = None

    # ------------------------------------------------------------------
    def resolve_seed(self, name: str) -> tuple[int | None, int | None]:
        """Map a fault target name to ``(net, memory_index)``.

        Memory names win over net names (fault targets name the macro);
        flop names resolve to the flop's ``q`` net.
        """
        if name in self._mem_index:
            return None, self._mem_index[name]
        if name in self._flop_q:
            return self._flop_q[name], None
        if name in self._net_index:
            return self._net_index[name], None
        return None, None

    def cone(self, nets, mems) -> Cone:
        """Walk the closures of a resolved seed set and fingerprint its
        support cone."""
        reached, forward = self._seeded(nets, mems)
        _spread(self._succ, reached, forward)
        support = bytearray(forward)
        _spread(self._pred, reached, support)
        return Cone(forward, support, hashlib.sha256(
            self._fragments.document(support)).hexdigest())

    def _seeded(self, nets, mems) -> tuple[list[int], bytearray]:
        mark = bytearray(len(self._succ))
        reached = []
        for node in (*nets, *(self.num_nets + mi for mi in mems)):
            if not mark[node]:
                mark[node] = 1
                reached.append(node)
        return reached, mark

    def full_fingerprint(self) -> str:
        """Whole-circuit fallback (unresolvable or zone-less faults)."""
        if self._full_fp is None:
            self._full_fp = hashlib.sha256(
                self.circuit.canonical_bytes()).hexdigest()
        return self._full_fp


def _spread(adjacency: list[list[int]], reached: list[int],
            mark: bytearray) -> None:
    """Extend ``reached`` (already marked) to its closure over
    ``adjacency``, marking every node it adds."""
    for node in reached:            # visits what the loop appends
        for nxt in adjacency[node]:
            if not mark[nxt]:
                mark[nxt] = 1
                reached.append(nxt)


def _picker(indices: list[int]):
    """``seq -> (seq[i] for i in indices)`` as one C-level call."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        index = indices[0]
        return lambda seq: (seq[index],)
    return lambda seq: ()


class _Fragments:
    """The canonical JSON fragment of every record a cone document can
    hold, each kind in the order ``sorted()`` gives its records."""

    def __init__(self, circuit: Circuit):
        name_of = circuit.net_names
        quoted = [encode_basestring_ascii(name) for name in name_of]
        compact = {"separators": (",", ":")}

        def names(seq):
            return [name_of[n] for n in seq]

        gates = sorted(circuit.gates, key=lambda g: (
            name_of[g.out], OP_NAMES[g.op], names(g.inputs)))
        self.gates = ['[%s,"%s",[%s]]' % (
            quoted[g.out], OP_NAMES[g.op],
            ",".join([quoted[n] for n in g.inputs])) for g in gates]
        self.pick_gates = _picker([g.out for g in gates])

        flops = sorted(
            ((f.name, name_of[f.d], name_of[f.q],
              None if f.en is None else name_of[f.en],
              None if f.rst is None else name_of[f.rst], f.init), f.q)
            for f in circuit.flops)
        self.flops = [json.dumps(record, **compact)
                      for record, _ in flops]
        self.pick_flops = _picker([q for _, q in flops])

        mems = sorted(
            ((m.name, m.depth, m.width, names(m.addr), names(m.wdata),
              name_of[m.we], names(m.rdata)), circuit.num_nets + i)
            for i, m in enumerate(circuit.memories))
        self.memories = [json.dumps(record, **compact)
                         for record, _ in mems]
        self.pick_memories = _picker([node for _, node in mems])

        self.inputs = [
            (encode_basestring_ascii(port) + ":[",
             ["[%d,%s]" % (bit, quoted[n])
              for bit, n in enumerate(port_nets)],
             _picker(list(port_nets)))
            for port, port_nets in sorted(circuit.inputs.items())]

    def document(self, mark: bytearray) -> bytes:
        """``json.dumps(canonical, sort_keys=True, separators=(",",
        ":"))`` of the records inside ``mark``."""
        ports = []
        for key, bits, pick in self.inputs:
            chosen = ",".join(compress(bits, pick(mark)))
            if chosen:
                ports.append(key + chosen + "]")
        return "".join((
            '{"flops":[',
            ",".join(compress(self.flops, self.pick_flops(mark))),
            '],"gates":[',
            ",".join(compress(self.gates, self.pick_gates(mark))),
            '],"inputs":{', ",".join(ports),
            '},"memories":[',
            ",".join(compress(self.memories,
                              self.pick_memories(mark))),
            "]}")).encode()


# ----------------------------------------------------------------------
# the campaign-wide context
# ----------------------------------------------------------------------
class FingerprintContext:
    """Fingerprints for one campaign environment.

    Bundles the canonical hashes shared by every fault of a campaign
    (stimuli, setup, observation points) with the
    :class:`SupportIndex` producing per-fault netlist cones, and hands
    out :meth:`fault_fingerprint` — the content address under which a
    fault's raw outcome record is stored.
    """

    def __init__(self, circuit: Circuit, stimuli,
                 zones: list[SensibleZone],
                 observation_points: list[ObservationPoint],
                 setup=None, max_cycles: int | None = None):
        self.circuit = circuit
        effective = list(stimuli)
        if max_cycles is not None:
            effective = effective[:max_cycles]
        self.stimuli_fp = _stimuli_digest(effective)
        self.cycles = len(effective)
        self.setup_fp = _setup_canonical(setup)
        # only reachable after _setup_canonical accepted it: None or a
        # MemoryImageSetup snapshot (restricted per fault below)
        self._setup = setup
        # The manager partitions points into functional / status /
        # diagnostic groups; only the order *within* each group is
        # behavioural (``first_alarm`` ties break on the earlier
        # diagnostic entry).  Canonicalising the same stable partition
        # makes every entry point that interleaves the groups
        # differently produce the same address.
        from ..zones.model import ObservationKind

        def canon(point):
            return [point.name, point.kind.value,
                    [circuit.net_names[n] for n in point.nets]]

        # Per group: canonical entries paired with their nets, in group
        # order, so :meth:`_reachable_obs_fp` can take the reachable
        # subsequence per seed set without re-deriving either.
        self._obs_groups = [
            (group, [(canon(p), tuple(p.nets)) for p in points])
            for group, points in (
                ("functional", [p for p in observation_points
                                if p.kind is ObservationKind.OUTPUT]),
                ("status", [p for p in observation_points
                            if p.kind is ObservationKind.FUNCTION]),
                ("diagnostic", [p for p in observation_points
                                if p.is_diagnostic]),
            )]
        self.obs_fp = digest({group: [entry for entry, _ in entries]
                              for group, entries in self._obs_groups})
        self.support = SupportIndex(circuit)
        self._zones = {z.name: z for z in zones}
        #: (zone, fault targets) -> (resolved seed set or None, zone
        #: canon); None marks an unresolvable or empty seed set
        self._seeds: dict[tuple, tuple[tuple | None, dict | None]] = {}
        #: resolved seed set -> (support, observation, setup) digests
        self._cones: dict[tuple, tuple[str, str, str | None]] = {}
        self._setup_fps: dict[tuple, str] = {}
        if setup is not None:
            # the setup state a cone can contain: memory images by the
            # memory nodes and initial flop values by the q nets
            n = circuit.num_nets
            self._setup_mems = [
                (name, [n + i for i, m in enumerate(circuit.memories)
                        if m.name == name])
                for name in sorted(setup.mem_images)]
            q_nets: dict[str, list[int]] = {}
            for flop in circuit.flops:
                q_nets.setdefault(flop.name, []).append(flop.q)
            self._setup_flops = [(name, q_nets.get(name, []))
                                 for name in sorted(setup.flop_values)]

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec) -> "FingerprintContext":
        """Context for a picklable :class:`CampaignSpec`."""
        return cls(spec.circuit, spec.stimuli, list(spec.zones),
                   list(spec.observation_points), setup=spec.setup,
                   max_cycles=spec.config.max_cycles)

    @classmethod
    def from_manager(cls, manager) -> "FingerprintContext":
        """Context for an in-process ``FaultInjectionManager``.

        Raises ``ValueError`` when the manager's setup callable cannot
        be snapshotted (it programs fault overlays) — such a campaign
        is not content-addressable and must bypass the cache.
        """
        from ..faultinjection.parallel import snapshot_setup
        zones = list(manager.zone_set.zones) \
            if manager.zone_set is not None else []
        points = (manager.functional + manager.status
                  + manager.diagnostic)
        return cls(manager.circuit, manager.stimuli, zones, points,
                   setup=snapshot_setup(manager.circuit, manager.setup),
                   max_cycles=manager.config.max_cycles)

    # ------------------------------------------------------------------
    def environment_fingerprint(self) -> str:
        """One digest for the whole environment (run bookkeeping)."""
        return digest({
            "v": FP_VERSION,
            "circuit": self.support.full_fingerprint(),
            "stimuli": self.stimuli_fp,
            "setup": self.setup_fp,
            "obs": self.obs_fp,
            "zones": sorted(self._zones),
        })

    def fault_fingerprint(self, fault: Fault) -> str:
        support_fp, zone_canon, obs_fp, setup_fp = \
            self._zone_support(fault)
        return digest({
            "v": FP_VERSION,
            "fault": fault_descriptor(fault),
            "zone": zone_canon,
            "support": support_fp,
            "stimuli": self.stimuli_fp,
            "setup": setup_fp,
            "obs": obs_fp,
        })

    @property
    def seed_sets(self) -> int:
        """Distinct resolved seed sets whose cones were walked."""
        return len(self._cones)

    # ------------------------------------------------------------------
    def _reachable_obs_fp(self, forward: bytearray) -> str:
        """Digest of the observation points the fault can reach.

        Points with no net in the fan-out closure see faulty values
        equal to golden on every cycle, so they contribute nothing to
        the cached record; dropping them keeps a fault's address stable
        when unreachable logic gains or loses alarm outputs.  The
        reachable points stay in group order because ``first_alarm``
        tie-breaks on it (a subsequence preserves relative order).
        """
        return digest({
            group: [entry for entry, nets in entries
                    if any(forward[n] for n in nets)]
            for group, entries in self._obs_groups})

    def _restricted_setup_fp(self, support: bytearray) -> str | None:
        """Digest of the setup state inside the support cone.

        A preload image or initial flop value outside the cone drives
        no net the fault's record depends on (anything that could is in
        the backward closure by construction).
        """
        if self._setup is None:
            return self.setup_fp
        key = (tuple(name for name, nodes in self._setup_mems
                     if any(support[node] for node in nodes)),
               tuple(name for name, nets in self._setup_flops
                     if any(support[net] for net in nets)))
        fp = self._setup_fps.get(key)
        if fp is None:
            mem_names, flop_names = key
            fp = self._setup_fps[key] = digest({
                "mem_images": {name: list(self._setup.mem_images[name])
                               for name in mem_names},
                "flop_values": {name: self._setup.flop_values[name]
                                for name in flop_names},
            })
        return fp

    def _zone_support(self, fault: Fault
                      ) -> tuple[str, dict | None, str, str | None]:
        targets = _fault_targets(fault)
        seeds_key = (fault.zone, targets)
        resolved = self._seeds.get(seeds_key)
        if resolved is None:
            resolved = self._seeds[seeds_key] = self._resolve(
                fault.zone, targets)
        seed_set, zone_canon = resolved
        if seed_set is None:
            # unknown target or empty seed set: the only sound cone is
            # the whole circuit, observed everywhere with full state
            return (self.support.full_fingerprint(), zone_canon,
                    self.obs_fp, self.setup_fp)
        cone = self._cones.get(seed_set)
        if cone is None:
            walked = self.support.cone(*seed_set)
            cone = self._cones[seed_set] = (
                walked.fingerprint,
                self._reachable_obs_fp(walked.forward),
                self._restricted_setup_fp(walked.support))
        support_fp, obs_fp, setup_fp = cone
        return support_fp, zone_canon, obs_fp, setup_fp

    def _resolve(self, zone_name: str | None, targets: tuple
                 ) -> tuple[tuple | None, dict | None]:
        """The seed set ``(nets, mems)`` of a fault's targets plus its
        zone, and the zone's canonical form."""
        zone = self._zones.get(zone_name) \
            if zone_name is not None else None
        nets: set[int] = set()
        mems: set[int] = set()
        resolved = True
        for name in targets:
            net, mem = self.support.resolve_seed(name)
            if net is not None:
                nets.add(net)
            elif mem is not None:
                mems.add(mem)
            else:
                resolved = False
        zone_canon = None
        if zone is not None:
            zone_canon = _zone_canonical(zone, self.circuit)
            nets.update(zone.nets)
            for flop in zone.flops:
                net, _ = self.support.resolve_seed(flop)
                if net is not None:
                    nets.add(net)
            if zone.memory is not None:
                _, mem = self.support.resolve_seed(zone.memory)
                if mem is not None:
                    mems.add(mem)
                else:
                    resolved = False
        if not resolved or not (nets or mems):
            return None, zone_canon
        return (frozenset(nets), frozenset(mems)), zone_canon


def _fault_targets(fault: Fault) -> tuple[str, ...]:
    targets = [fault.target]
    victim = getattr(fault, "victim", None)
    if isinstance(victim, str) and victim:
        targets.append(victim)
    targets.extend(getattr(fault, "nets", ()))
    return tuple(targets)


def _zone_canonical(zone: SensibleZone, circuit: Circuit) -> dict:
    return {
        "name": zone.name,
        "kind": zone.kind.value,
        "nets": sorted(circuit.net_names[n] for n in zone.nets),
        "flops": list(zone.flops),
        "memory": zone.memory,
        "mem_words": list(zone.mem_words)
        if zone.mem_words is not None else None,
    }


#: the last stimuli digested and their digest: the profile key and the
#: fingerprint context of one campaign digest the same workload, and
#: comparing the dict copies is ~10x cheaper than encoding them again
_last_stimuli: tuple[list[dict], str] | None = None


def _stimuli_digest(stimuli) -> str:
    global _last_stimuli
    cycles = list(stimuli)
    last = _last_stimuli
    if last is not None and last[0] == cycles:
        return last[1]
    fp = digest([sorted(cycle.items()) for cycle in cycles])
    _last_stimuli = ([dict(cycle) for cycle in cycles], fp)
    return fp


def _setup_canonical(setup) -> str | None:
    """Canonical digest of a (snapshotted) simulator setup."""
    if setup is None:
        return None
    from ..faultinjection.parallel import MemoryImageSetup
    if isinstance(setup, MemoryImageSetup):
        return digest({
            "mem_images": {name: list(image) for name, image
                           in sorted(setup.mem_images.items())},
            "flop_values": dict(sorted(setup.flop_values.items())),
        })
    raise ValueError(
        f"cannot fingerprint setup {setup!r}: snapshot it with "
        f"snapshot_setup() first")
