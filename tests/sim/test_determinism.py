"""Determinism regression suite (the engine refactor's safety net).

Two simulations built from the same :class:`SimulationConfig` (same
seed) must be *byte-identical*: every field of the resulting
:class:`RunResult` — including the full latency sample list, the
deadlock-victim order, and every counter — must match exactly.  This is
what makes aggressive scheduling refactors in the engine safe to land,
and it is the foundation of the parallel campaign runner's
serial-equivalence guarantee (a worker process replays the same config
and must reach the same result).

The matrix covers every flow-control mechanism of the paper: wormhole
(DP), scouting SR(K) (TP conservative), PCS (MB-m), TP aggressive, and
plain dimension-order — plus a dynamic-fault scenario and a
deadlock-recovery scenario, which exercise the teardown/kill machinery.

Every pinned config additionally runs with the quiescence fast-forward
forced on and forced off: the two paths must produce byte-identical
RunResults (the event-horizon jump may only skip cycles that are
provably no-ops), including under a chaos hook and composed through
``parallel.run_configs``.

The event-driven engine core (``SimulationConfig.event_engine``,
DESIGN.md §11) gets the same treatment crossed with the fast-forward
switch: every pinned config runs with the ready-set scheduler forced on
and forced off at each fast-forward setting, and the four paths must be
byte-identical — the brute-force scans are the oracle the event paths
are measured against.

The SoA flit-transport kernel is retired (DESIGN.md §12): the object
walk is the only data phase.  Its old ``REPRO_DATA_KERNEL`` on/off
override must stay inert at every (event engine, fast-forward) setting,
and the retired ``Engine.kernel_cycles`` counter must never advance.
"""

import dataclasses
import random

import pytest

from repro.faults.chaos import ChaosController
from repro.faults.injection import DynamicFaultSchedule
from repro.sim.config import (
    FaultConfig,
    RecoveryConfig,
    ResilienceConfig,
    SimulationConfig,
)
from repro.sim.parallel import run_configs
from repro.sim.simulator import NetworkSimulator


def run_twice(cfg: SimulationConfig):
    return NetworkSimulator(cfg).run(), NetworkSimulator(cfg).run()


def run_ff_pair(cfg: SimulationConfig):
    """The same config with fast-forward forced on and forced off."""
    on = NetworkSimulator(cfg.with_(fast_forward=True)).run()
    off = NetworkSimulator(cfg.with_(fast_forward=False)).run()
    return on, off


def run_ev_pair(cfg: SimulationConfig, fast_forward: bool = True):
    """The same config with the event engine forced on and forced off."""
    on = NetworkSimulator(
        cfg.with_(event_engine=True, fast_forward=fast_forward)
    ).run()
    off = NetworkSimulator(
        cfg.with_(event_engine=False, fast_forward=fast_forward)
    ).run()
    return on, off


def run_dk_pair(monkeypatch, cfg: SimulationConfig,
                event_engine: bool = True, fast_forward: bool = True):
    """The same config with the retired kernel override set on and off.

    Returns both RunResults and the retired kernel counter of each run.
    """
    cfg = cfg.with_(event_engine=event_engine, fast_forward=fast_forward)
    runs = []
    for flag in ("1", "0"):
        monkeypatch.setenv("REPRO_DATA_KERNEL", flag)
        sim = NetworkSimulator(cfg)
        runs.append((sim.run(), sim.engine.kernel_cycles))
    (on, on_kc), (off, off_kc) = runs
    return on, off, (on_kc, off_kc)


def assert_identical(a, b):
    """Field-by-field equality, reported per field for diagnosis."""
    da = dataclasses.asdict(a)
    db = dataclasses.asdict(b)
    assert set(da) == set(db)
    for name in da:
        assert da[name] == db[name], (
            f"RunResult.{name} differs between identical-config runs: "
            f"{da[name]!r} != {db[name]!r}"
        )


PROTOCOL_MATRIX = [
    # (id, protocol, protocol_params)
    ("wr-dp", "dp", {}),
    ("pcs-mb", "mb", {}),
    ("tp-aggressive", "tp", {"k_unsafe": 0}),
    ("sr-tp-conservative", "tp", {"k_unsafe": 3}),
    ("det", "det", {}),
]


def _protocol_cfg(protocol, params):
    return SimulationConfig(
        k=6, n=2, protocol=protocol, protocol_params=params,
        offered_load=0.10, message_length=8,
        warmup_cycles=150, measure_cycles=600, drain_cycles=2000,
        seed=17,
    )


def _static_fault_cfg():
    return SimulationConfig(
        k=6, n=2, protocol="tp", offered_load=0.08, message_length=8,
        warmup_cycles=150, measure_cycles=600, drain_cycles=2000,
        seed=9, faults=FaultConfig(static_node_faults=3),
    )


def _dynamic_fault_cfg():
    return SimulationConfig(
        k=6, n=2, protocol="tp", offered_load=0.08, message_length=8,
        warmup_cycles=150, measure_cycles=800, drain_cycles=4000,
        seed=19,
        faults=FaultConfig(dynamic_faults=4, dynamic_start=150),
        recovery=RecoveryConfig(tail_ack=True, retransmit=True),
    )


def _hardware_ack_cfg():
    return SimulationConfig(
        k=6, n=2, protocol="tp", protocol_params={"k_unsafe": 3},
        offered_load=0.10, message_length=8, hardware_acks=True,
        warmup_cycles=150, measure_cycles=600, drain_cycles=2000,
        seed=21,
    )


def _deadlock_recovery_cfg():
    return SimulationConfig(
        k=6, n=2, protocol="det", protocol_params={"dateline": False},
        offered_load=0.30, message_length=16,
        warmup_cycles=100, measure_cycles=800, drain_cycles=8000,
        seed=3, watchdog_cycles=120, max_header_wait=6000,
    )


def _low_load_idle_cfg():
    # Mostly-quiescent run: the fast-forward path dominates here.
    return SimulationConfig(
        k=6, n=2, protocol="tp", offered_load=0.005, message_length=8,
        warmup_cycles=300, measure_cycles=2500, drain_cycles=2000,
        seed=5,
    )


def _audited_cfg():
    # Invariant-audit ticks are part of the event horizon.
    return SimulationConfig(
        k=5, n=2, protocol="tp", offered_load=0.02, message_length=8,
        warmup_cycles=150, measure_cycles=900, drain_cycles=2000,
        seed=13,
        resilience=ResilienceConfig(audit_invariants=True, audit_every=25),
    )


def _reconfig_cfg():
    # Online reconfiguration: accumulating dynamic link faults push
    # recovery pressure over the threshold, so the controller's
    # monitor/drain/commit cycle (and its event horizon) is exercised.
    return SimulationConfig(
        k=6, n=2, protocol="tp", offered_load=0.08, message_length=8,
        warmup_cycles=150, measure_cycles=800, drain_cycles=4000,
        seed=9, watchdog_cycles=120, max_header_wait=6000,
        faults=FaultConfig(dynamic_faults=8, dynamic_start=150),
        resilience=ResilienceConfig(
            audit_invariants=True, audit_every=20,
            reconfig=True, reconfig_check_every=16,
            reconfig_window=256, reconfig_threshold=2,
            reconfig_drain_timeout=120, reconfig_cooldown=300,
            reconfig_unsafe_radius=2,
        ),
    )


def _reconfig_idle_cfg():
    # Reconfiguration armed but never triggered on a mostly-quiescent
    # network: the controller's monitor ticks join the event horizon
    # and must not break the quiescence skip.
    return SimulationConfig(
        k=6, n=2, protocol="tp", offered_load=0.005, message_length=8,
        warmup_cycles=300, measure_cycles=2500, drain_cycles=2000,
        seed=5,
        resilience=ResilienceConfig(
            audit_invariants=True, audit_every=50, reconfig=True,
        ),
    )


#: Workload-catalog matrix (EXPERIMENTS.md): every traffic pattern must
#: honor the injection-process fast-forward contract, including bursty
#: dwell draws and the hotspot/bursty combination.  Low load so the
#: quiescence skip path genuinely engages for each pattern.
TRAFFIC_MATRIX = [
    # (id, traffic, traffic_params)
    ("hotspot", "hotspot", {"hotspot_fraction": 0.4, "hotspot_count": 2}),
    ("transpose", "transpose", {}),
    ("complement", "complement", {}),
    ("tornado", "tornado", {}),
    ("bursty", "bursty", {"burst_on": 24, "burst_off": 96}),
    ("hotspot-bursty", "hotspot",
     {"hotspot_fraction": 0.4, "burst_on": 24, "burst_off": 96,
      "burst_off_load": 0.1}),
]


def _traffic_cfg(traffic, params):
    return SimulationConfig(
        k=6, n=2, protocol="tp", offered_load=0.02, message_length=8,
        traffic=traffic, traffic_params=params,
        warmup_cycles=200, measure_cycles=1500, drain_cycles=2000,
        seed=23,
    )


#: Every pinned configuration of this suite, by id; the fast-forward
#: equivalence test runs each with the skip path forced on and off.
PINNED_CONFIGS = {
    **{
        f"proto-{pid}": (lambda p=proto, kw=params: _protocol_cfg(p, kw))
        for pid, proto, params in PROTOCOL_MATRIX
    },
    **{
        f"traffic-{tid}": (lambda t=traffic, kw=params: _traffic_cfg(t, kw))
        for tid, traffic, params in TRAFFIC_MATRIX
    },
    "static-faults": _static_fault_cfg,
    "dynamic-faults": _dynamic_fault_cfg,
    "hardware-acks": _hardware_ack_cfg,
    "deadlock-recovery": _deadlock_recovery_cfg,
    "low-load-idle": _low_load_idle_cfg,
    "audited": _audited_cfg,
    "reconfig": _reconfig_cfg,
    "reconfig-idle": _reconfig_idle_cfg,
}


@pytest.mark.parametrize(
    "protocol,params",
    [m[1:] for m in PROTOCOL_MATRIX],
    ids=[m[0] for m in PROTOCOL_MATRIX],
)
def test_protocol_determinism(protocol, params):
    cfg = _protocol_cfg(protocol, params)
    a, b = run_twice(cfg)
    assert a.delivered > 0
    assert_identical(a, b)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seed_sensitivity_and_stability(seed):
    """Each seed is stable; different seeds genuinely differ."""
    base = SimulationConfig(
        k=5, n=2, protocol="tp", offered_load=0.08, message_length=8,
        warmup_cycles=100, measure_cycles=500, drain_cycles=1500,
    )
    a, b = run_twice(base.with_(seed=seed))
    assert_identical(a, b)
    other = NetworkSimulator(base.with_(seed=seed + 10)).run()
    assert (a.latency_mean, a.delivered) != (
        other.latency_mean, other.delivered
    )


def test_static_fault_determinism():
    cfg = _static_fault_cfg()
    a, b = run_twice(cfg)
    assert a.delivered > 0
    assert_identical(a, b)


def test_dynamic_fault_determinism():
    """Dynamic faults drive kill-flit teardown and retransmission."""
    cfg = _dynamic_fault_cfg()
    a, b = run_twice(cfg)
    assert a.delivered > 0
    assert a.teardown_counts.get("fault", 0) > 0, (
        "scenario must actually exercise fault teardown"
    )
    assert_identical(a, b)


def test_reconfig_determinism():
    """Online reconfiguration (drain, ejection order, commit cycle)
    must replay exactly, and the pinned scenario must actually
    reconfigure — otherwise its matrix entries prove nothing."""
    cfg = _reconfig_cfg()
    a, b = run_twice(cfg)
    assert a.delivered > 0
    assert a.reconfigurations > 0, (
        "scenario must actually commit a reconfiguration"
    )
    assert_identical(a, b)


def test_reconfig_idle_never_triggers():
    """The idle pinned config arms the controller without firing it."""
    result = NetworkSimulator(_reconfig_idle_cfg()).run()
    assert result.reconfigurations == 0
    assert result.reconfig_downtime == 0


def test_hardware_ack_determinism():
    """The dedicated-ack wires use a separate active set in the engine."""
    cfg = _hardware_ack_cfg()
    a, b = run_twice(cfg)
    assert a.delivered > 0
    assert_identical(a, b)


def test_deadlock_recovery_determinism():
    """Victim selection and ejection order must replay exactly."""
    cfg = _deadlock_recovery_cfg()
    a, b = run_twice(cfg)
    assert a.deadlock_recoveries > 0, (
        "gridlock scenario must actually trigger recovery"
    )
    assert a.deadlock_victims == b.deadlock_victims
    assert_identical(a, b)


# ======================================================================
# Quiescence fast-forward: forced on vs forced off must be identical.
# ======================================================================
@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_fast_forward_on_off_identical(name):
    """The event-horizon jump may only skip provably no-op cycles."""
    on, off = run_ff_pair(PINNED_CONFIGS[name]())
    assert_identical(on, off)


def test_fast_forward_actually_skips_cycles():
    """The low-load pinned config must exercise the skip path."""
    sim = NetworkSimulator(_low_load_idle_cfg().with_(fast_forward=True))
    sim.run()
    assert sim.engine.fast_forwarded_cycles > 0


@pytest.mark.parametrize(
    "traffic,params",
    [m[1:] for m in TRAFFIC_MATRIX],
    ids=[m[0] for m in TRAFFIC_MATRIX],
)
def test_traffic_patterns_exercise_skip_path(traffic, params):
    """Each catalog pattern's pinned config must genuinely fast-forward
    (otherwise its on/off equivalence test proves nothing)."""
    sim = NetworkSimulator(
        _traffic_cfg(traffic, params).with_(fast_forward=True)
    )
    result = sim.run()
    assert result.delivered > 0
    assert sim.engine.fast_forwarded_cycles > 0


def _chaos_hooked_run(fast_forward: bool, event_engine: bool = True):
    """One chaos-hooked simulation; returns (RunResult, controller)."""
    cfg = SimulationConfig(
        k=6, n=2, protocol="tp", offered_load=0.05, message_length=8,
        warmup_cycles=100, measure_cycles=600, drain_cycles=3000,
        seed=7, watchdog_cycles=120, max_header_wait=6000,
        resilience=ResilienceConfig(audit_invariants=True, audit_every=20),
        fast_forward=fast_forward, event_engine=event_engine,
    )
    sim = NetworkSimulator(cfg)
    engine = sim.engine
    engine.dynamic_schedule = DynamicFaultSchedule()
    controller = ChaosController(
        engine.dynamic_schedule,
        random.Random(4242),
        burst_cycles=[250, 450],
        burst_size=2,
        node_fault_fraction=0.25,
    )
    result = sim.run(on_cycle=controller)
    return result, controller


def test_chaos_hook_fast_forward_identical():
    """The chaos hook declares its next event; skipping must not change
    which bursts fire, where, or what they hit."""
    on_result, on_ctrl = _chaos_hooked_run(True)
    off_result, off_ctrl = _chaos_hooked_run(False)
    assert on_ctrl.faults_injected == off_ctrl.faults_injected
    assert on_ctrl.triggers_hit == off_ctrl.triggers_hit
    assert on_ctrl.faults_injected > 0, (
        "scenario must actually inject chaos faults"
    )
    assert_identical(on_result, off_result)


def test_undeclared_hook_disables_fast_forward():
    """A hook without next_event_cycle sees every single cycle."""
    cfg = _low_load_idle_cfg().with_(fast_forward=True)
    sim = NetworkSimulator(cfg)
    seen = []
    sim.run(on_cycle=lambda engine: seen.append(engine.cycle))
    assert seen == list(range(1, cfg.total_cycles + 1))
    assert sim.engine.fast_forwarded_cycles == 0


def test_parallel_run_configs_fast_forward_composition():
    """parallel.run_configs composes with fast-forward: a parallel
    fast-forwarded campaign equals a serial cycle-by-cycle one."""
    base = SimulationConfig(
        k=5, n=2, protocol="tp", offered_load=0.03, message_length=8,
        warmup_cycles=100, measure_cycles=500, drain_cycles=1500,
    )
    seeds = (1, 2, 3)
    on = run_configs(
        [base.with_(seed=s, fast_forward=True) for s in seeds], jobs=2
    )
    off = run_configs(
        [base.with_(seed=s, fast_forward=False) for s in seeds], jobs=1
    )
    for a, b in zip(on, off):
        assert_identical(a, b)


def test_parallel_run_configs_reconfig_composition():
    """Reconfiguration-enabled runs survive the same parallel/serial,
    fast-forward on/off cross — workers rebuild the controller from the
    config and must replay the drain/commit sequence exactly."""
    base = _reconfig_cfg()
    seeds = (9, 19)
    on = run_configs(
        [base.with_(seed=s, fast_forward=True) for s in seeds], jobs=2
    )
    off = run_configs(
        [base.with_(seed=s, fast_forward=False) for s in seeds], jobs=1
    )
    assert any(r.reconfigurations > 0 for r in on)
    for a, b in zip(on, off):
        assert_identical(a, b)


# ======================================================================
# Event-driven engine core: ready-set scheduling forced on vs the
# brute-force scans, crossed with the fast-forward switch (DESIGN.md
# §11 — this matrix is the rewrite's acceptance bar).
# ======================================================================
@pytest.mark.parametrize("ff", [True, False], ids=["ff-on", "ff-off"])
@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_event_engine_on_off_identical(name, ff):
    """The ready sets may only skip work the full scans prove no-op."""
    on, off = run_ev_pair(PINNED_CONFIGS[name](), fast_forward=ff)
    assert_identical(on, off)


def test_event_engine_actually_parks_and_quiets():
    """A loaded run must exercise every ready-set layer — otherwise the
    on/off matrix proves nothing about the skip paths."""
    cfg = _protocol_cfg("tp", {"k_unsafe": 0}).with_(
        offered_load=0.25, event_engine=True
    )
    sim = NetworkSimulator(cfg)
    engine = sim.engine
    saw_parked = saw_quiet = False
    seen_attn = []
    # The launch phase consumes the attention set, so sample it on
    # entry (after the earlier phases added terminal/ejected sources).
    orig_traffic = engine._phase_traffic

    def spy_traffic():
        if engine._launch_attn:
            seen_attn.append(engine.cycle)
        orig_traffic()

    engine._phase_traffic = spy_traffic
    for _ in range(cfg.total_cycles):
        engine.step()
        saw_parked = saw_parked or any(
            m.parked for m in engine.pending.values()
        )
        saw_quiet = saw_quiet or any(
            m.dm_quiet for m in engine.active.values()
        )
    saw_attn = bool(seen_attn)
    assert saw_parked, "no routing header ever parked"
    assert saw_quiet, "no message ever went data-movement quiet"
    assert saw_attn, "the launch attention set never armed"


def test_chaos_hook_event_engine_identical():
    """Chaos-driven fault bursts (teardown, kill flits, retransmits)
    must hit the same victims on the event and brute-force paths."""
    on_result, on_ctrl = _chaos_hooked_run(True, event_engine=True)
    off_result, off_ctrl = _chaos_hooked_run(True, event_engine=False)
    assert on_ctrl.faults_injected == off_ctrl.faults_injected
    assert on_ctrl.triggers_hit == off_ctrl.triggers_hit
    assert on_ctrl.faults_injected > 0
    assert_identical(on_result, off_result)


def test_parallel_run_configs_event_engine_composition():
    """Workers replaying event-engine configs must equal a serial
    brute-force campaign (the parallel runner's serial-equivalence
    guarantee composed with the ready-set scheduler)."""
    base = SimulationConfig(
        k=5, n=2, protocol="tp", offered_load=0.08, message_length=8,
        warmup_cycles=100, measure_cycles=500, drain_cycles=1500,
    )
    seeds = (1, 2, 3)
    on = run_configs(
        [base.with_(seed=s, event_engine=True) for s in seeds], jobs=2
    )
    off = run_configs(
        [base.with_(seed=s, event_engine=False) for s in seeds], jobs=1
    )
    for a, b in zip(on, off):
        assert_identical(a, b)


def test_parallel_run_configs_event_engine_reconfig_composition():
    """The hardest composition: reconfiguration drain/commit epochs,
    dynamic faults, and audit ticks under the event engine across
    parallel workers."""
    base = _reconfig_cfg()
    seeds = (9, 19)
    on = run_configs(
        [base.with_(seed=s, event_engine=True) for s in seeds], jobs=2
    )
    off = run_configs(
        [base.with_(seed=s, event_engine=False) for s in seeds], jobs=1
    )
    assert any(r.reconfigurations > 0 for r in on)
    for a, b in zip(on, off):
        assert_identical(a, b)


# ======================================================================
# Retired SoA data kernel: its on/off override is inert at every
# (event engine, fast-forward) setting (DESIGN.md §12).
# ======================================================================
@pytest.mark.parametrize("ff", [True, False], ids=["ff-on", "ff-off"])
@pytest.mark.parametrize("ev", [True, False], ids=["ev-on", "ev-off"])
@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_data_kernel_on_off_identical(monkeypatch, name, ev, ff):
    """The object walk is the only data phase: every pinned config must
    produce a byte-identical RunResult with the old kernel override on
    and off, at every scheduler setting, and no kernel cycle may run."""
    on, off, kernel_cycles = run_dk_pair(
        monkeypatch, PINNED_CONFIGS[name](), event_engine=ev,
        fast_forward=ff,
    )
    assert kernel_cycles == (0, 0), "a retired kernel data phase ran"
    assert_identical(on, off)
