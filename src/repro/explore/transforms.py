"""The mitigation-transform library and composable design points.

Each :class:`MitigationTransform` is a config-level netlist transform:
applying it to a bank of the scaled design
(:class:`~repro.soc.banked.BankedMemorySubsystem`) re-elaborates that
bank with one §6 protection mechanism enabled.  Transforms carry the
zone patterns whose diagnostic coverage they raise — the hook that
lets the search seed candidates from the criticality ranking: a
critical zone matches the patterns of the transforms that would
protect it.

A :class:`DesignPoint` is a set of ``(bank, transform)`` applications
over a base variant.  Its identity is canonical (applications are
sorted and deduplicated), its structural cost is measured on the
elaborated netlist (gate/flop delta against the base point), and the
cones it touches are reported exactly, by comparing per-fault store
fingerprints between the two elaborations — the same fingerprints the
campaign cache dedupes on, so "untouched" provably means "warm hit".
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch


@dataclass(frozen=True)
class MitigationTransform:
    """One config-level protection mechanism (a §6 improvement)."""

    key: str                 # the SubsystemConfig flag it sets
    title: str
    kind: str                # parity | ecc | duplication | checker |
    #                          scrubbing | software
    description: str
    #: zone-name patterns (relative to one bank) whose coverage the
    #: mechanism raises — matched against the criticality ranking
    zone_patterns: tuple[str, ...] = ()
    #: True for mechanisms that change only the diagnostic *plan*
    #: (claimed software coverage), not the netlist
    plan_only: bool = False


#: the §6 mechanisms, keyed by their config flag
TRANSFORM_LIBRARY: dict[str, MitigationTransform] = {
    t.key: t for t in (
        MitigationTransform(
            key="address_in_ecc", title="addresses folded into ECC",
            kind="ecc",
            description="fold the address into the SEC-DED code so "
                        "address-path corruption is detected as a "
                        "data error",
            zone_patterns=("memarray/*", "memctrl/latch/*",
                           "fmem/decoder/*")),
        MitigationTransform(
            key="write_buffer_parity", title="write-buffer parity",
            kind="parity",
            description="parity bits across the write-buffer data, "
                        "address and valid registers",
            zone_patterns=("fmem/wbuf/*",)),
        MitigationTransform(
            key="coder_checker", title="checker after the coder",
            kind="checker",
            description="re-decode immediately after encoding and "
                        "alarm on disagreement",
            zone_patterns=("fmem/coder/*",)),
        MitigationTransform(
            key="redundant_pipe_checker",
            title="redundant decoder-pipe checker",
            kind="duplication",
            description="double-redundant checker on the decoder "
                        "pipeline registers, with the no-error bypass",
            zone_patterns=("fmem/decoder/pipe*",)),
        MitigationTransform(
            key="distributed_syndrome",
            title="distributed syndrome checking", kind="checker",
            description="split syndrome reduction with per-slice "
                        "cross-checks (data/check/address alarms)",
            zone_patterns=("fmem/decoder/*", "critical:*")),
        MitigationTransform(
            key="sw_startup_tests", title="SW start-up tests",
            kind="software",
            description="memory-controller start-up self-tests "
                        "claimed as software diagnostic coverage",
            zone_patterns=("memctrl/*", "mce/*"),
            plan_only=True),
        MitigationTransform(
            key="scrub_parity", title="scrubber register parity",
            kind="scrubbing",
            description="parity on the repair-engine registers",
            zone_patterns=("fmem/scrub/*",)),
    )
}


def transforms_for_zone(zone_name: str) -> list[MitigationTransform]:
    """Transforms whose patterns cover a (bank-local) zone name."""
    local = zone_name
    if "/" in local and local.split("/", 1)[0].startswith("bank"):
        local = local.split("/", 1)[1]
    for head in ("block:", ):
        if local.startswith(head):
            local = local[len(head):]
            if local.startswith("bank") and "/" in local:
                local = local.split("/", 1)[1]
    out = []
    for t in TRANSFORM_LIBRARY.values():
        if any(fnmatch(local, pat) for pat in t.zone_patterns):
            out.append(t)
    return out


@dataclass(frozen=True)
class DesignPoint:
    """A named point of the design space: base variant + transforms.

    ``applied`` is a canonical (sorted, deduplicated) tuple of
    ``(bank, transform_key)`` pairs; ``bank`` is an index into the
    banked design.  Two points composed in different orders compare
    equal — design-point identity is the *set* of applications.
    """

    variant: str = "baseline"
    banks: int = 2
    applied: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        canonical = tuple(sorted(set(self.applied)))
        if canonical != self.applied:
            object.__setattr__(self, "applied", canonical)
        for bank, key in self.applied:
            if key not in TRANSFORM_LIBRARY:
                raise ValueError(f"unknown transform {key!r}")
            if not 0 <= bank < self.banks:
                raise ValueError(f"bank {bank} out of range")

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        if not self.applied:
            return self.variant
        steps = "+".join(f"b{bank}:{key}"
                         for bank, key in self.applied)
        return f"{self.variant}+{steps}"

    def with_transform(self, bank: int, key: str) -> "DesignPoint":
        return DesignPoint(variant=self.variant, banks=self.banks,
                           applied=self.applied + ((bank, key),))

    def bank_flags(self) -> list[dict]:
        """Per-bank flag overrides, the `CampaignRequest` encoding."""
        flags: list[dict] = [{} for _ in range(self.banks)]
        for bank, key in self.applied:
            flags[bank][key] = True
        return flags

    def transforms_on(self, bank: int) -> list[MitigationTransform]:
        return [TRANSFORM_LIBRARY[key] for b, key in self.applied
                if b == bank]

    def build(self):
        """Elaborate this point into a banked subsystem."""
        from ..service.core import make_subsystem
        return make_subsystem(self.variant, banks=self.banks,
                              bank_flags=self.bank_flags())

    def request(self, **kw):
        """The campaign request that evaluates this point."""
        from ..service.core import CampaignRequest
        return CampaignRequest(variant=self.variant, banks=self.banks,
                               bank_flags=self.bank_flags(), **kw)

    def to_dict(self) -> dict:
        return {"variant": self.variant, "banks": self.banks,
                "applied": [list(pair) for pair in self.applied]}

    @classmethod
    def from_dict(cls, data: dict) -> "DesignPoint":
        return cls(variant=data["variant"], banks=data["banks"],
                   applied=tuple((int(b), k)
                                 for b, k in data["applied"]))


# ----------------------------------------------------------------------
# structural cost and touched cones
# ----------------------------------------------------------------------
@dataclass
class StructuralCost:
    """Gate/flop tally of a point and its delta against the base."""

    gates: int
    flops: int
    gate_delta: int = 0
    flop_delta: int = 0

    @property
    def scalar(self) -> int:
        """The single cost number the Pareto walk minimises.

        Flops are weighted 4× gates: a register costs roughly that
        much more area/power than a 2-input gate in the technologies
        the paper targets, and it is the unit the §6 trade-offs are
        argued in (parity *registers*, redundant *pipe* stages).
        """
        return self.gate_delta + 4 * self.flop_delta


def structural_cost(tally: tuple[int, int],
                    base_tally: tuple[int, int]) -> StructuralCost:
    """A point's cost from its and its base's (gates, flops) tallies,
    measured on the elaborated netlists, not estimated."""
    gates, flops = tally
    return StructuralCost(gates=gates, flops=flops,
                          gate_delta=gates - base_tally[0],
                          flop_delta=flops - base_tally[1])


def touched_zones(env_a, env_b) -> tuple[set[str], set[str], int]:
    """Compare two environments' per-fault store fingerprints.

    Returns ``(touched, untouched, shared_faults)``: the zones whose
    faults would miss the cache when moving from environment *a* to
    *b*, the zones provably served warm, and how many fault names the
    two fault lists share.  A zone with any changed, added or removed
    fault counts as touched.  These are the exact fingerprints the
    campaign cache keys on, so the "untouched" set is a proof of
    warm-hit reuse, not an estimate.
    """
    from ..store.fingerprint import FingerprintContext

    def fingerprints(env):
        # key on (name, offset) — the collapser's identity — because
        # fault *names* alone collide (same-flop SEUs at two instants)
        faults = env.candidates().faults
        ctx = FingerprintContext.from_spec(env.spec(), faults)
        return {(f.name, getattr(f, "offset", None)):
                (ctx.fault_fingerprint(f), f.zone or "?")
                for f in faults}

    fp_a, fp_b = fingerprints(env_a), fingerprints(env_b)
    touched: set[str] = set()
    untouched: set[str] = set()
    shared = 0
    for name, (fp, zone) in fp_b.items():
        if name in fp_a:
            shared += 1
            if fp_a[name][0] == fp:
                untouched.add(zone)
            else:
                touched.add(zone)
        else:
            touched.add(zone)
    for name, (fp, zone) in fp_a.items():
        if name not in fp_b:
            touched.add(zone)
    untouched -= touched
    return touched, untouched, shared
