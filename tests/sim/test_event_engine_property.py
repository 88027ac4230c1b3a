"""Property tests for the event-driven engine core (DESIGN.md §11).

Three families, pinned with hypothesis:

* **ready-set membership** — the event engine's claim is that every
  item it leaves out of a ready set (a ``dm_quiet`` message, a
  ``parked`` header, an unattended injection queue) would have been a
  no-op under the brute-force scans.  The brute-force engine
  (``event_engine=False``) *is* that scan, so the two engines are run
  in lockstep over hypothesis-chosen workloads with random dynamic
  faults (the state mutations: epoch bumps, teardowns, kill flits) and
  their full observable state is compared after every cycle.  A
  message wrongly resting in a ready set diverges the very next cycle.
* **chaos-gridlock lockstep** — a pinned teardown-heavy scenario
  drives the same engine pair through deadlock-recovery victim
  ejection, chaos teardown bursts and reconfiguration epoch bumps,
  the paths where a missed wake or un-quiet notification is likeliest.
* **sorted-set order** — the incrementally maintained
  :class:`_SortedIntSet` (which replaced the per-cycle
  ``sorted(self._busy_queues)`` in the launch phase) must present
  exactly the ascending snapshot a fresh ``sorted()`` would, after any
  interleaving of adds and discards.

The CI hypothesis profile (tests/conftest.py) disables deadlines and
derandomizes example selection.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.chaos import ChaosController
from repro.faults.injection import DynamicFaultSchedule
from repro.sim.config import (
    FaultConfig,
    ResilienceConfig,
    SimulationConfig,
)
from repro.sim.engine import _SortedIntSet
from repro.sim.simulator import NetworkSimulator


# ======================================================================
# _SortedIntSet: incremental order == fresh sorted() (launch-order pin)
# ======================================================================
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 40)),
        max_size=200,
    ),
)
@settings(max_examples=200)
def test_sorted_int_set_matches_sorted(ops):
    s = _SortedIntSet()
    model = set()
    for i, (is_add, value) in enumerate(ops):
        if is_add:
            s.add(value)
            model.add(value)
        else:
            s.discard(value)
            model.discard(value)
        assert (value in s) == (value in model)
        assert len(s) == len(model)
        assert bool(s) == bool(model)
        if i % 7 == 0:  # snapshot mid-sequence, not only at the end
            assert s.snapshot() == sorted(model)
    assert s.snapshot() == sorted(model)
    assert list(s) == sorted(model)


def test_sorted_int_set_snapshot_stable_against_mutation():
    """The launch loop iterates a snapshot while rescheduling nodes:
    later adds/discards must not mutate the list it is walking."""
    s = _SortedIntSet()
    for v in (5, 1, 9):
        s.add(v)
    snap = s.snapshot()
    assert snap == [1, 5, 9]
    s.add(3)
    s.discard(5)
    assert snap == [1, 5, 9]
    assert s.snapshot() == [1, 3, 9]


# ======================================================================
# Ready-set membership vs the brute-force scans, in lockstep
# ======================================================================
def _msg_state(msg):
    return (
        msg.status.name,
        msg.header_phase.name,
        msg.header_router,
        msg.tp_mode.name,
        msg.at_source,
        msg.head_link,
        msg.tail_idx,
        tuple(msg.buffered),
        tuple(msg.crossed),
        tuple(msg.released),
        msg.ejected,
        msg.wait_cycles,
        msg.consecutive_waits,
        msg.retries,
        msg.teardown,
    )


def _engine_state(engine):
    return {
        "active": {
            mid: _msg_state(m) for mid, m in engine.active.items()
        },
        "pending": sorted(engine.pending),
        "busy": engine._busy_queues.snapshot(),
        "delivered": engine.delivered_messages,
        "dropped": engine.dropped_messages,
        "killed": engine.killed_messages,
        "accepted": engine.accepted_messages,
        "moved": engine.data_flits_moved,
        # header_decisions is deliberately absent: the event engine's
        # parked shortcut skips pure re-decides the brute-force scan
        # repeats, so the call count differs while the outcomes match.
        "ejected": engine.flits_ejected,
        "recoveries": engine.deadlock_recoveries,
    }


@given(
    protocol=st.sampled_from(["dp", "mb", "tp", "det"]),
    load=st.sampled_from([0.05, 0.12, 0.22, 0.32]),
    seed=st.integers(0, 30),
    dynamic_faults=st.integers(0, 3),
)
@settings(max_examples=30)
def test_ready_sets_match_brute_force_lockstep(
    protocol, load, seed, dynamic_faults
):
    """Cycle-for-cycle, the event engine equals the brute-force scan.

    Any ready-set membership error — a quiet message whose pipeline
    could move, a parked header whose decision changed without a wake,
    an unattended launchable queue — shows up as a state divergence on
    the first cycle the brute-force engine acts on the skipped item.
    """
    cfg = SimulationConfig(
        k=5, n=2, protocol=protocol,
        protocol_params={"k_unsafe": 3} if protocol == "tp" else {},
        offered_load=load, message_length=6,
        warmup_cycles=30, measure_cycles=150, drain_cycles=0,
        seed=seed, watchdog_cycles=150, max_header_wait=4000,
        faults=FaultConfig(
            dynamic_faults=dynamic_faults, dynamic_start=20
        ),
    )
    ev = NetworkSimulator(cfg.with_(event_engine=True)).engine
    bf = NetworkSimulator(cfg.with_(event_engine=False)).engine
    for cycle in range(1, cfg.total_cycles + 200):
        ev.step()
        bf.step()
        assert _engine_state(ev) == _engine_state(bf), (
            f"event/brute-force divergence at cycle {cycle} "
            f"(protocol={protocol}, load={load}, seed={seed}, "
            f"dyn={dynamic_faults})"
        )
    # That the skip paths genuinely engage (so this comparison proves
    # membership, not vacuity) is pinned separately by
    # test_determinism.test_event_engine_actually_parks_and_quiets —
    # an uncongested low-load example here may legitimately never park.


# ======================================================================
# Event engine vs the brute-force scans under maximum lifecycle pressure
# ======================================================================
def _gridlock_reconfig_cfg(event_engine: bool) -> SimulationConfig:
    """Deadlock-prone gridlock with chaos faults and reconfiguration.

    Dimension-order routing without the dateline gridlocks at this
    load, so the watchdog fires and deadlock recovery ejects victims;
    chaos bursts tear paths down mid-flight; the recovery pressure
    then pushes the reconfiguration controller through its
    drain/commit cycle, bumping restriction epochs.  Every message
    lifecycle edge — launch, teardown, victim ejection, a
    reconfig-frozen header re-deciding — runs in one scenario.
    """
    return SimulationConfig(
        k=6, n=2, protocol="det", protocol_params={"dateline": False},
        offered_load=0.30, message_length=16,
        warmup_cycles=100, measure_cycles=800, drain_cycles=0,
        seed=3, watchdog_cycles=120, max_header_wait=6000,
        event_engine=event_engine,
        resilience=ResilienceConfig(
            reconfig=True, reconfig_check_every=16,
            reconfig_window=256, reconfig_threshold=2,
            reconfig_drain_timeout=120, reconfig_cooldown=300,
            reconfig_unsafe_radius=1,
        ),
    )


def test_event_engine_lockstep_chaos_gridlock():
    """The event engine and the brute-force scans stay state-identical
    through victim ejection, chaos teardown bursts, and
    reconfiguration epoch bumps."""
    sims = []
    for ev in (True, False):
        sim = NetworkSimulator(_gridlock_reconfig_cfg(ev))
        sim.engine.dynamic_schedule = DynamicFaultSchedule()
        controller = ChaosController(
            sim.engine.dynamic_schedule,
            random.Random(77),
            burst_cycles=[300, 500],
            burst_size=2,
            node_fault_fraction=0.5,
        )
        sims.append((sim, controller))
    (ev_sim, ev_chaos), (bf_sim, bf_chaos) = sims
    total = ev_sim.config.total_cycles
    for cycle in range(1, total + 1):
        for sim, chaos in sims:
            sim.engine.step()
            chaos(sim.engine)
            sim.reconfig(sim.engine)
        assert _engine_state(ev_sim.engine) == _engine_state(
            bf_sim.engine
        ), f"event/brute-force divergence at cycle {cycle}"
    # Drain phase: traffic off, circular waits stop resolving through
    # fresh aborts, the watchdog expires, and deadlock recovery ejects
    # victims — teardown under maximum pressure.
    for sim, _ in sims:
        sim.reconfig.finalize(sim.engine)
        sim.engine.traffic_enabled = False
    for cycle in range(4000):
        if not ev_sim.engine.active and not any(ev_sim.engine.queues):
            break
        for sim, _ in sims:
            sim.engine.step()
        assert _engine_state(ev_sim.engine) == _engine_state(
            bf_sim.engine
        ), f"event/brute-force divergence during drain cycle {cycle}"
    # The scenario must actually exercise the hard paths — otherwise
    # the lockstep proves nothing about them.
    assert ev_sim.engine.deadlock_recoveries > 0, (
        "gridlock never triggered deadlock-recovery victim ejection"
    )
    assert ev_chaos.faults_injected > 0, (
        "chaos bursts never landed a fault"
    )
    assert ev_sim.engine.reconfigurations > 0, (
        "recovery pressure never committed a reconfiguration"
    )
    assert ev_sim.engine.teardown_counts.get("fault", 0) > 0, (
        "chaos faults never tore a path down"
    )
    assert ev_chaos.faults_injected == bf_chaos.faults_injected
    assert ev_sim.engine.reconfigurations == bf_sim.engine.reconfigurations
    assert not ev_sim.engine.active and not bf_sim.engine.active
