"""Unit and robustness tests for the content-addressed campaign store.

Covers the fingerprint semantics (what invalidates a cached outcome
and — just as important — what must *not*), the blob store's corruption
handling, crash-safe resume after SIGKILL, and two campaigns sharing
one store directory concurrently.
"""

import copy
import json
import os
import random
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.faultinjection import (
    CampaignConfig,
    CampaignSpec,
    CampaignSupervisor,
    InjectionEnvironment,
    MemoryImageSetup,
    build_environment,
)
from repro.hdl.netlist import OP_OR, OP_XOR
from repro.soc import MemorySubsystem, SubsystemConfig
from repro.store import (
    BlobStore,
    CampaignCache,
    CorruptBlobError,
    FingerprintContext,
    diff_runs,
    gc_store,
    store_stats,
)
from repro.store import db as db_module
from repro.store.db import StoreDB
from repro.store.fingerprint import _stimuli_json, digest, \
    fault_descriptor, profile_key

from .campaign_oracle import run_interpreted

REPO = Path(__file__).parent.parent
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}


@pytest.fixture(scope="module")
def env():
    sub = MemorySubsystem(SubsystemConfig.small_improved())
    return build_environment(sub, quick=True)


@pytest.fixture(scope="module")
def candidates(env):
    return env.candidates()


@pytest.fixture(scope="module")
def serial(env, candidates):
    return run_interpreted(env.spec(CampaignConfig()).manager(), candidates)


def _fault_rows(campaign):
    return [(res.fault.name, res.sens_cycle, res.obse_cycle,
             res.diag_cycle, res.first_alarm, res.effects)
            for res in campaign.results]


def _cached_run(env, candidates, cache, **kw):
    return CampaignSupervisor(env.spec(), cache=cache, **kw).run(candidates)


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def test_digest_is_canonical():
    assert digest({"b": 1, "a": [2, 3]}) == digest({"a": [2, 3], "b": 1})
    assert digest({"a": 1}) != digest({"a": 2})


def test_fault_descriptor_covers_fields(candidates):
    fault = candidates.faults[0]
    desc = fault_descriptor(fault)
    assert desc["class"] == type(fault).__name__
    assert desc["target"] == fault.target
    assert desc["zone"] == fault.zone


def test_fingerprints_are_deterministic(env, candidates):
    ctx_a = FingerprintContext.from_spec(env.spec())
    ctx_b = FingerprintContext.from_spec(env.spec())
    for fault in candidates.faults:
        assert ctx_a.fault_fingerprint(fault) == \
            ctx_b.fault_fingerprint(fault)


def test_classification_params_do_not_invalidate(env, candidates):
    """detection_window / test_windows / machines_per_pass are applied
    at classification time — the store holds raw records, so changing
    them must keep every content address (and every cache hit)."""
    base = FingerprintContext.from_spec(env.spec())
    tweaked = FingerprintContext.from_spec(env.spec(CampaignConfig(
        detection_window=3, machines_per_pass=7,
        test_windows=((1, 2),))))
    for fault in candidates.faults:
        assert base.fault_fingerprint(fault) == \
            tweaked.fault_fingerprint(fault)


def test_fingerprints_do_not_depend_on_the_sweep(env, candidates):
    """A context sweeps the cones of the faults it is built with at
    once; a fault's address is the same whether it shared that sweep
    with the whole fault list, with a random subset, or was swept
    alone."""
    spec, faults = env.spec(), candidates.faults
    whole = FingerprintContext.from_spec(spec, faults)
    expected = [whole.fault_fingerprint(f) for f in faults]
    assert whole.seed_sets == 36
    for fault, fp in zip(faults, expected):
        alone = FingerprintContext.from_spec(spec, [fault])
        assert alone.fault_fingerprint(fault) == fp
    rng = random.Random(11)
    for _ in range(3):
        subset = rng.sample(faults, rng.randrange(1, len(faults)))
        ctx = FingerprintContext.from_spec(spec, subset)
        assert [ctx.fault_fingerprint(f) for f in faults] == expected
    undeclared = FingerprintContext.from_spec(spec)
    assert [undeclared.fault_fingerprint(f) for f in faults] == expected


def test_stimuli_change_invalidates(env, candidates):
    base = FingerprintContext.from_spec(env.spec())
    spec = env.spec()
    spec.stimuli[5] = dict(spec.stimuli[5], haddr=3)
    changed = FingerprintContext.from_spec(spec)
    fault = candidates.faults[0]
    assert base.fault_fingerprint(fault) != \
        changed.fault_fingerprint(fault)



@pytest.mark.parametrize("cycles", [
    [],
    [{}, {}],
    [{"b": 1, "a": 0}, {"a": 2, "b": 3}, {"b": 4, "a": 5}],
    [{"x": -7, "y": 2 ** 70}, {"x": 0, "y": -(2 ** 65)}],
    [{"en": True, "d": 1}, {"en": 1, "d": 0}, {"en": False, "d": 1}],
    [{"a": 1.0}, {"a": None}, {"a": "1"}, {"a": [1, 2]}, {"a": 1}],
    [{"50%": 1, "q\"": 2, "\u00e9\n": 3}, {"50%": 4, "q\"": 5,
                                           "\u00e9\n": 6}],
    [{1: 2, 0: 3}, {"a": 1}, {2: 1}],
], ids=["none", "empty", "orders", "big", "bools", "non-ints",
        "escaped-keys", "non-str-keys"])
def test_stimuli_bytes_equal_their_json_encoding(cycles):
    """The per-key-set template gives :func:`digest`'s bytes for every
    cycle, and falls back to ``json.dumps`` for what it cannot spell."""
    assert _stimuli_json(cycles) == json.dumps(
        [sorted(cycle.items()) for cycle in cycles], sort_keys=True,
        separators=(",", ":"))

def _mutate_one_gate(spec):
    """Flip one OR gate to XOR; return (mutated spec, gate out name)."""
    spec = copy.deepcopy(spec)
    for gate in spec.circuit.gates:
        name = spec.circuit.net_names[gate.out]
        if gate.op == OP_OR and "coder_check" in name:
            gate.op = OP_XOR
            return spec, name
    raise AssertionError("no OR gate in the checker to mutate")


def test_gate_mutation_invalidates_only_its_cones(env, candidates):
    base = FingerprintContext.from_spec(env.spec())
    mutated, _ = _mutate_one_gate(env.spec())
    after = FingerprintContext.from_spec(mutated)
    changed = sum(
        base.fault_fingerprint(f) != after.fault_fingerprint(f)
        for f in candidates.faults)
    # the mutated gate sits in some cones but not all: partial
    # invalidation, not a wholesale flush
    assert 0 < changed < len(candidates.faults)


# ----------------------------------------------------------------------
# blob store
# ----------------------------------------------------------------------
def test_blob_round_trip(tmp_path):
    blobs = BlobStore(tmp_path)
    digest_a = blobs.put(b"payload one")
    assert blobs.get(digest_a) == b"payload one"
    assert blobs.has(digest_a)
    assert blobs.put(b"payload one") == digest_a     # idempotent
    assert len(blobs) == 1
    assert blobs.total_bytes() == len(b"payload one")
    with pytest.raises(KeyError):
        blobs.get("0" * 64)


def test_corrupt_blob_is_detected(tmp_path):
    blobs = BlobStore(tmp_path)
    key = blobs.put(b"trusted bytes")
    blobs.path_for(key).write_bytes(b"tampered!")
    with pytest.raises(CorruptBlobError):
        blobs.get(key)
    assert blobs.get(key, verify=False) == b"tampered!"


# ----------------------------------------------------------------------
# corruption never crashes a campaign
# ----------------------------------------------------------------------
def test_corrupt_profile_blob_recomputes(env, candidates, serial,
                                         tmp_path):
    with CampaignCache(tmp_path / "store") as cache:
        cache.profile(env)
        _cached_run(env, candidates, cache, workers=1)
        run = cache.db.runs(limit=1)[0]
        assert run["golden_blob"] is None
        cache.blobs.path_for(run["profile_blob"]).write_bytes(b"junk")

    with CampaignCache(tmp_path / "store") as cache:
        cache.profile(env)
        campaign = _cached_run(env, candidates, cache, workers=1)
        assert cache.stats.corrupt == 1
        assert cache.stats.profile_misses == 1  # replayed once
        assert cache.stats.simulated == 0       # outcomes still hit
        assert _fault_rows(campaign) == _fault_rows(serial)


def test_corrupt_outcome_row_is_resimulated(env, candidates, serial,
                                            tmp_path):
    with CampaignCache(tmp_path / "store") as cache:
        _cached_run(env, candidates, cache, workers=1)

    db_path = tmp_path / "store" / "store.db"
    with sqlite3.connect(db_path) as conn:
        conn.execute(
            "UPDATE outcomes SET effects='not json' WHERE fault_fp ="
            " (SELECT fault_fp FROM outcomes LIMIT 1)")

    with CampaignCache(tmp_path / "store") as cache:
        campaign = _cached_run(env, candidates, cache, workers=1)
        assert cache.stats.misses == 1          # only the broken row
        assert cache.stats.simulated == 1
        assert cache.stats.hits == len(candidates.faults) - 1
        assert _fault_rows(campaign) == _fault_rows(serial)


# ----------------------------------------------------------------------
# concurrent writers
# ----------------------------------------------------------------------
def test_two_concurrent_campaigns_share_one_store(tmp_path, serial,
                                                  env, candidates):
    """Two CLI campaigns writing the same store at once must both
    finish; INSERT OR IGNORE + WAL make the duplicate writes benign."""
    store = tmp_path / "store"
    cmd = [sys.executable, "-m", "repro.cli", "campaign",
           "--variant", "small-improved", "--store", str(store)]
    procs = [subprocess.Popen(cmd, cwd=tmp_path, env=ENV,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT)
             for _ in range(2)]
    outs = [p.communicate(timeout=300)[0].decode() for p in procs]
    assert all(p.returncode == 0 for p in procs), outs
    with CampaignCache(store) as cache:
        assert cache.db.outcome_count() == len(candidates.faults)
        assert len(cache.db.runs(status="done")) == 2
        # the shared store is coherent: a third run is all hits and
        # still bit-identical to the serial reference
        campaign = _cached_run(env, candidates, cache, workers=1)
        assert cache.stats.hits == len(candidates.faults)
        assert cache.stats.simulated == 0
        assert _fault_rows(campaign) == _fault_rows(serial)


def test_opening_a_fresh_store_waits_out_a_held_write_lock(tmp_path,
                                                           monkeypatch):
    """A sibling holding the write lock makes SQLite fail the WAL
    switch of a fresh store at once; the open retries and completes
    once the lock is released (here: during the first backoff)."""
    path = tmp_path / "store.db"
    holder = sqlite3.connect(path, isolation_level=None)
    holder.execute("BEGIN IMMEDIATE")
    sleeps = []

    def release_then_sleep(seconds):
        sleeps.append(seconds)
        if holder.in_transaction:
            holder.rollback()
    monkeypatch.setattr(db_module.time, "sleep", release_then_sleep)
    db = StoreDB(path)
    try:
        assert sleeps
        assert db._conn.execute("PRAGMA journal_mode").fetchone() == \
            ("wal",)
        assert db.outcome_count() == 0
    finally:
        db.close()
        holder.close()


# ----------------------------------------------------------------------
# crash-safe resume
# ----------------------------------------------------------------------
def test_resume_after_sigkill(tmp_path, env, candidates, serial):
    """SIGKILL a campaign mid-flight; the completed chunks must be
    reusable and the resumed run bit-identical to the reference."""
    store = tmp_path / "store"
    cmd = [sys.executable, "-m", "repro.cli", "campaign",
           "--variant", "small-improved", "--store", str(store),
           "--progress", "--machines-per-pass", "16"]
    proc = subprocess.Popen(cmd, cwd=tmp_path, env=ENV,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    try:
        deadline = time.time() + 120
        while time.time() < deadline:
            line = proc.stdout.readline().decode()
            if "faults simulated" in line:
                break
        else:
            raise AssertionError("no progress line before timeout")
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.wait(timeout=30)

    with CampaignCache(store) as cache:
        persisted = cache.db.outcome_count()
        assert 0 < persisted < len(candidates.faults)
        runs = cache.db.runs()
        assert runs and runs[0]["status"] == "running"   # the marker

        campaign = _cached_run(env, candidates, cache, workers=1)
        assert cache.stats.hits == persisted
        assert cache.stats.simulated == \
            len(candidates.faults) - persisted
        assert _fault_rows(campaign) == _fault_rows(serial)


# ----------------------------------------------------------------------
# queries and garbage collection
# ----------------------------------------------------------------------
def test_store_stats_and_gc(tmp_path, env, candidates):
    with CampaignCache(tmp_path / "store") as cache:
        for _ in range(2):
            cache.profile(env)
            _cached_run(env, candidates, cache, workers=1)
        stats = store_stats(cache)
        assert stats.runs == 2 and stats.done_runs == 2
        assert stats.outcomes == len(candidates.faults)
        assert stats.blobs == 1 and stats.blob_bytes > 0

        diff = diff_runs(cache)
        assert diff.run_a["run_id"] < diff.run_b["run_id"]
        assert diff.changed_faults == []
        assert diff.affected_zones() == []
        assert diff.dc_delta == 0.0

        # drop the older run; the newer one keeps every outcome alive
        result = gc_store(cache, keep_runs=1)
        assert result.runs_removed == 1
        assert result.outcomes_removed == 0
        assert len(cache.db.runs()) == 1

        # dropping all runs sweeps the outcomes and the profile blob
        result = gc_store(cache, keep_runs=0)
        assert result.outcomes_removed == len(candidates.faults)
        assert result.blobs_removed == 1
        assert result.bytes_reclaimed > 0
        assert cache.db.outcome_count() == 0
        assert len(cache.blobs) == 0


def test_diff_requires_two_runs(tmp_path, env, candidates):
    with CampaignCache(tmp_path / "store") as cache:
        _cached_run(env, candidates, cache, workers=1)
        with pytest.raises(ValueError, match="two completed runs"):
            diff_runs(cache)


# ----------------------------------------------------------------------
# uncacheable campaigns bypass the store
# ----------------------------------------------------------------------
def test_toggle_collection_bypasses_store(env, candidates, tmp_path):
    with CampaignCache(tmp_path / "store") as cache:
        spec = env.spec(CampaignConfig(collect_toggles=True))
        supervisor = CampaignSupervisor(spec, workers=1, cache=cache)
        campaign = supervisor.run(candidates)
        assert cache.stats.uncacheable == len(candidates.faults)
        assert cache.stats.hits == cache.stats.misses == 0
        assert cache.db.outcome_count() == 0
        assert campaign.results           # the campaign itself still ran


def _overlay(env):
    """A setup that programs a fault overlay on top of ``env``'s preload."""
    def overlay(sim):
        env.setup(sim)
        sim.stick_net(0, 1)
    return overlay


def test_overlay_spec_is_rejected_at_construction(env):
    # a callable setup, such as one that programs a fault overlay, has no
    # content address: a campaign spec refuses it by type when built, so
    # no campaign can run outside the store with one
    with pytest.raises(TypeError, match="MemoryImageSetup"):
        CampaignSpec(circuit=env.circuit, stimuli=list(env.stimuli),
                     zones=list(env.zone_set.zones),
                     observation_points=list(
                         env.zone_set.observation_points),
                     setup=_overlay(env))


def test_overlay_environment_is_rejected_at_construction(env):
    # the environment refuses it too, so no operational profile is ever
    # replayed without a store key
    with pytest.raises(TypeError, match="MemoryImageSetup"):
        InjectionEnvironment(env.circuit, env.zone_set, env.worksheet,
                             env.stimuli, setup=_overlay(env))


# ----------------------------------------------------------------------
# the operational profile is served from the store
# ----------------------------------------------------------------------
def _with(env, **inputs):
    """A copy of ``env`` with some workload inputs replaced."""
    other = copy.copy(env)
    other._profile = None
    for name, value in inputs.items():
        setattr(other, name, value)
    return other


def _profile_bytes(profile) -> str:
    """Order-sensitive serialization: equal means bit-identical."""
    return json.dumps(profile.to_dict())


def _profile_key(env) -> str:
    return profile_key(env.circuit, env.stimuli, env.setup,
                       env.read_strobes)


def test_profile_is_served_from_the_store(env, tmp_path):
    with CampaignCache(tmp_path / "store") as cache:
        cold = cache.profile(env)
        assert (cache.stats.profile_hits,
                cache.stats.profile_misses) == (0, 1)
    with CampaignCache(tmp_path / "store") as cache:
        warm = cache.profile(env)
        # an equal setup built anew is the same workload
        rebuilt = cache.profile(_with(env, setup=copy.deepcopy(env.setup)))
        assert (cache.stats.profile_hits,
                cache.stats.profile_misses) == (2, 0)
    assert _profile_bytes(cold) == _profile_bytes(warm) \
        == _profile_bytes(rebuilt) == _profile_bytes(env.profile())


def test_profile_stored_with_output_toggles_is_a_hit(env, tmp_path):
    """A profile stored while it still carried per-port
    ``output_toggles`` is served as is: the key is ignored."""
    legacy = dict(env.profile().to_dict(),
                  output_toggles={"hrdata": [3, 7]})
    with CampaignCache(tmp_path / "store") as cache:
        cache.db.put_golden(_profile_key(env), cache.blobs.put(
            json.dumps(legacy).encode()))
    with CampaignCache(tmp_path / "store") as cache:
        served = cache.profile(env)
        assert (cache.stats.profile_hits,
                cache.stats.profile_misses) == (1, 0)
        assert cache.stats.corrupt == 0
    assert _profile_bytes(served) == _profile_bytes(env.profile())


def _changed_stimuli(env):
    stimuli = list(env.stimuli)
    stimuli[5] = dict(stimuli[5], haddr=3)
    return _with(env, stimuli=stimuli)


def _changed_read_strobe(env):
    return _with(env, read_strobes={})


def _changed_preload(env):
    images = {name: list(image) for name, image
              in env.setup.mem_images.items()}
    images["memarray/array"][0] ^= 1
    return _with(env, setup=MemoryImageSetup(
        mem_images=images, flop_values=dict(env.setup.flop_values)))


def _changed_gate(env):
    circuit = copy.deepcopy(env.circuit)
    gate = next(g for g in circuit.gates if g.op == OP_OR
                and "coder_check" in circuit.net_names[g.out])
    gate.op = OP_XOR
    return _with(env, circuit=circuit)


@pytest.mark.parametrize("change", [
    _changed_stimuli, _changed_read_strobe, _changed_preload,
    _changed_gate], ids=["stimuli", "read-strobe", "preload", "gate"])
def test_changed_workload_input_misses_the_profile(env, tmp_path,
                                                   change):
    changed = change(env)
    assert _profile_key(changed) != _profile_key(env)
    with CampaignCache(tmp_path / "store") as cache:
        cache.profile(env)
        profile = cache.profile(changed)
        assert (cache.stats.profile_hits,
                cache.stats.profile_misses) == (0, 2)
    assert _profile_bytes(profile) == _profile_bytes(changed.profile())


def _truncate(cache, key):
    path = cache.blobs.path_for(cache.db.get_golden(key))
    path.write_bytes(path.read_bytes()[:100])


def _repoint(payload):
    def damage(cache, key):
        cache.db.put_golden(key, cache.blobs.put(payload))
    return damage


@pytest.mark.parametrize("damage", [
    _truncate, _repoint(b"not json"), _repoint(b'{"length": 3}')],
    ids=["truncated", "unparsable", "wrong-shape"])
def test_damaged_profile_blob_is_recomputed(env, tmp_path, damage):
    store = tmp_path / "store"
    with CampaignCache(store) as cache:
        reference = cache.profile(env)
        damage(cache, _profile_key(env))
    with CampaignCache(store) as cache:
        again = cache.profile(env)
        assert cache.stats.corrupt == 1
        assert cache.stats.profile_misses == 1
    assert _profile_bytes(again) == _profile_bytes(reference)
    with CampaignCache(store) as cache:     # the rewrite is readable
        cache.profile(env)
        assert cache.stats.profile_hits == 1
        assert cache.stats.corrupt == 0


def test_profile_written_without_net_activity_is_a_clean_miss(
        env, candidates, serial, tmp_path, monkeypatch):
    """A store from before the profile recorded per-net activity: its
    entry (kind "operational_profile", no first-event arrays) is not
    looked up, so the campaign replays once and counts no corruption."""
    from repro.faultinjection import parallel, profiler
    from repro.store.fingerprint import FP_VERSION, _setup_canonical, \
        _stimuli_digest
    legacy = env.profile().to_dict()
    del legacy["first_change"], legacy["first_one"]
    legacy_key = digest({
        "v": FP_VERSION, "kind": "operational_profile",
        "circuit": env.circuit.structural_hash(),
        "stimuli": _stimuli_digest(env.stimuli),
        "setup": _setup_canonical(env.circuit, env.setup),
        "read_strobes": sorted(env.read_strobes.items())})
    store = tmp_path / "store"
    with CampaignCache(store) as cache:
        cache.db.put_golden(legacy_key, cache.blobs.put(
            json.dumps(legacy).encode()))

    replays = []
    real = profiler.profile_workload

    def counted(*args, **kw):
        replays.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(profiler, "profile_workload", counted)
    monkeypatch.setattr(parallel, "profile_workload", counted)
    fresh = _with(env)
    with CampaignCache(store) as cache:
        fresh.profile(cache)
        campaign = _cached_run(fresh, candidates, cache, workers=1)
        assert len(replays) == 1
        assert (cache.stats.profile_hits,
                cache.stats.profile_misses) == (0, 1)
        assert cache.stats.corrupt == 0
        assert sorted(key for key, _ in cache.db.golden_rows()) == \
            sorted([legacy_key, _profile_key(env)])
    assert _fault_rows(campaign) == _fault_rows(serial)
    assert campaign.coverage.obse == serial.coverage.obse
    assert campaign.coverage.diag == serial.coverage.diag
