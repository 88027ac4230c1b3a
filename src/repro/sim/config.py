"""Simulation configuration (the paper's Section 6.0 parameters).

The defaults mirror the paper's evaluation setup where practical: a
torus (16-ary 2-cube in the paper), 32-flit messages with a one-flit
routing header, uniformly distributed destinations, and congestion
control limiting each injection channel to eight buffered messages.
The benchmark harness scales the radix and run length down by default
so the full figure suite regenerates in laptop wall-clock time, and
restores the paper-scale parameters under ``REPRO_PAPER_SCALE=1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional


@dataclass
class FaultConfig:
    """Static and dynamic fault injection for one run."""

    #: Static node faults placed randomly before the run.
    static_node_faults: int = 0
    #: Reject placements that disconnect the healthy network.
    keep_connected: bool = True
    #: Dynamic faults injected at random cycles during measurement.
    dynamic_faults: int = 0
    #: Dynamic fault kind: "link" (Figure 16's scenario) or "node".
    dynamic_kind: str = "link"
    #: Cycle window [start, stop) in which dynamic faults may strike;
    #: ``None`` stop defaults to the full run length.
    dynamic_start: int = 0
    dynamic_stop: Optional[int] = None


@dataclass
class RecoveryConfig:
    """Distributed recovery and reliable-delivery options (Section 2.4)."""

    #: Hold every path until the tail reaches the destination, then tear
    #: it down with a destination-to-source tail acknowledgment
    #: ("with TAck" in Figure 17).
    tail_ack: bool = False
    #: Retransmit messages interrupted by dynamic faults (only
    #: meaningful with ``tail_ack``, which keeps the source copy).
    retransmit: bool = False
    #: Maximum retransmissions per original message.
    max_retransmits: int = 2
    #: Source-level retries after a failed path construction (the
    #: "re-try from the source" of Section 4.0).
    max_source_retries: int = 2


@dataclass
class ResilienceConfig:
    """Deadlock diagnosis/recovery and runtime auditing knobs.

    On watchdog expiry the engine builds the message wait-for graph
    (:mod:`repro.sim.postmortem`), then — unless ``deadlock_strict`` —
    ejects a victim message through the kill-flit teardown path so the
    network resumes.  The invariant auditor
    (:mod:`repro.sim.invariants`) cross-checks flit conservation, VC
    state legality, buffer bounds, and reservation ownership every
    ``audit_every`` cycles when enabled.
    """

    #: Raise :class:`~repro.sim.engine.DeadlockError` (with the rendered
    #: wait-for diagnosis) on watchdog expiry instead of recovering.
    deadlock_strict: bool = False
    #: Safety valve: give up (raise) after this many victim ejections
    #: in one run — a network needing more is systemically wedged.
    max_deadlock_recoveries: int = 256
    #: Per-original-message cap on deadlock-recovery ejections: a
    #: message (counted across its retry clones) ejected this many
    #: times is no longer an eligible victim, and when *only* capped
    #: candidates remain the run fails hard instead of livelocking
    #: recovery on the same pathological cycle.  The natural retry
    #: budget (``RecoveryConfig.max_source_retries``) bounds ejections
    #: per origin well below the default, so default behavior is
    #: unchanged.
    max_victim_ejections: int = 16
    #: Run the runtime invariant auditor during :meth:`Engine.step`.
    audit_invariants: bool = False
    #: Audit every N cycles (1 = every cycle; audits are O(network)).
    audit_every: int = 64

    # ------------------------------------------------------------------
    # Online dynamic reconfiguration (repro.reconfig, DESIGN.md §10).
    # ------------------------------------------------------------------
    #: Arm the :class:`~repro.reconfig.ReconfigController`: when faults
    #: accumulate and recovery pressure crosses the threshold, the
    #: network is drained and a new routing-restriction epoch committed.
    reconfig: bool = False
    #: Controller monitor tick period (cycles); also its declared
    #: fast-forward event horizon.
    reconfig_check_every: int = 64
    #: Sliding window (cycles) over which recovery pressure is summed.
    reconfig_window: int = 512
    #: Pressure score (weighted recovery-event deltas) that triggers a
    #: reconfiguration once the fault epoch has moved.
    reconfig_threshold: int = 4
    #: Max cycles to wait for in-flight messages to finish during the
    #: drain phase before stragglers are forcibly ejected.
    reconfig_drain_timeout: int = 400
    #: Cycles after a commit before the controller may trigger again.
    reconfig_cooldown: int = 1024
    #: Unsafe-ball radius committed at reconfiguration (the lever that
    #: switches TP to its conservative phase earlier around pockets).
    reconfig_unsafe_radius: int = 2
    #: Restrict inbound channels of near-dead-end pockets (iterative
    #: pruning, see :func:`repro.reconfig.restrictions.compute_plan`).
    reconfig_prune_dead_ends: bool = True

    def __post_init__(self) -> None:
        if self.audit_every < 1:
            raise ValueError("audit_every must be >= 1")
        if self.max_deadlock_recoveries < 0:
            raise ValueError("max_deadlock_recoveries must be >= 0")
        if self.max_victim_ejections < 1:
            raise ValueError("max_victim_ejections must be >= 1")
        if self.reconfig_check_every < 1:
            raise ValueError("reconfig_check_every must be >= 1")
        if self.reconfig_window < self.reconfig_check_every:
            raise ValueError(
                "reconfig_window must be >= reconfig_check_every"
            )
        if self.reconfig_threshold < 1:
            raise ValueError("reconfig_threshold must be >= 1")
        if self.reconfig_drain_timeout < 1:
            raise ValueError("reconfig_drain_timeout must be >= 1")
        if self.reconfig_cooldown < 0:
            raise ValueError("reconfig_cooldown must be >= 0")
        if self.reconfig_unsafe_radius < 1:
            raise ValueError("reconfig_unsafe_radius must be >= 1")


@dataclass
class SimulationConfig:
    """Everything needed to build and run one simulation."""

    # Topology (paper: 16-ary 2-cube).
    k: int = 8
    n: int = 2

    # Router resources.
    num_adaptive_vcs: int = 1
    buffer_depth: int = 2
    #: Implement positive/negative acknowledgment flits as dedicated
    #: control signals on the physical channel instead of multiplexed
    #: control-channel flits (the paper's Section 7.0 future-work
    #: proposal: "adding a few control signals to the physical channel,
    #: modifying the physical flow control accordingly (the logical
    #: behavior remains unchanged)").  Acknowledgments then stop
    #: competing with headers and data for link bandwidth.
    hardware_acks: bool = False

    # Workload (paper: 32-flit messages, 1-flit header, uniform).
    message_length: int = 32
    #: Destination-pattern name — see :mod:`repro.sim.traffic` and the
    #: workload catalog in EXPERIMENTS.md: "uniform", "hotspot",
    #: "transpose", "complement", "tornado", "nearest", "bursty".
    traffic: str = "uniform"
    #: Pattern knobs (DESIGN.md §9): ``hotspot_fraction`` /
    #: ``hotspot_count`` / ``hotspot_nodes`` for hotspot traffic;
    #: ``burst_on`` / ``burst_off`` / ``burst_off_load`` switch any
    #: pattern to on-off (MMBP) injection timing.
    traffic_params: Dict[str, Any] = field(default_factory=dict)
    #: Offered load in data flits per node per cycle (time-averaged —
    #: bursty injection concentrates it into ON windows).
    offered_load: float = 0.1
    injection_queue_limit: int = 8

    # Protocol selection: "dp", "mb", "tp", or "det" (the validation
    # dimension-order protocol), with constructor kwargs.
    protocol: str = "tp"
    protocol_params: Dict[str, Any] = field(default_factory=dict)

    # Run control.
    warmup_cycles: int = 1000
    measure_cycles: int = 4000
    #: Event-horizon fast-forward: when the network is quiescent
    #: (nothing in flight anywhere), jump the clock to just before the
    #: next cycle at which state can change — the next possible
    #: injection, armed dynamic fault, invariant-audit tick, or hook
    #: event.  Results are cycle-for-cycle and RNG-stream identical to
    #: the cycle-by-cycle path (pinned by tests/sim/test_determinism.py);
    #: disable only when instrumenting every cycle with a hook that does
    #: not declare its next event (see DESIGN.md §8).
    fast_forward: bool = True
    #: Event-driven engine core (DESIGN.md §11): per-cycle work is
    #: proportional to *events* — headers that can decide, flits that
    #: can move, injection queues with something to launch — instead of
    #: scanning every live message and busy queue each cycle.  Blocked
    #: routing headers park until a wake condition (a virtual-channel
    #: release at their router, a fault-epoch change, or their timed
    #: retry) can change the decision; messages whose data pipeline
    #: cannot move stay skipped until a state-change notification
    #: re-arms them.  Results are cycle-for-cycle identical to the
    #: brute-force scans (pinned by tests/sim/test_determinism.py across
    #: the on/off matrix); the switch exists as the equivalence oracle.
    event_engine: bool = True
    #: After measurement, keep cycling (no new traffic) until in-flight
    #: messages finish, up to this many extra cycles.
    drain_cycles: int = 4000
    seed: int = 1

    # Safety valves.
    #: A header that exceeds ``hop_cap_base + hop_cap_factor * distance``
    #: hops is declared livelocked and aborted to recovery.
    hop_cap_base: int = 64
    hop_cap_factor: int = 8
    #: Cycles without any network activity before declaring deadlock.
    watchdog_cycles: int = 2000
    #: A header blocked (WAIT) this many consecutive cycles is handed
    #: to the recovery mechanism (path torn down, retried from the
    #: source) — the paper's escape hatch for blocked/deadlocked
    #: configurations.  Far above any legitimate congestion wait.
    max_header_wait: int = 1200

    faults: FaultConfig = field(default_factory=FaultConfig)
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    def __post_init__(self) -> None:
        if self.message_length < 1:
            raise ValueError("message_length must be >= 1")
        if not 0.0 <= self.offered_load <= 1.0:
            raise ValueError("offered_load must be in [0, 1] flits/node/cycle")
        if self.injection_queue_limit < 1:
            raise ValueError("injection_queue_limit must be >= 1")
        if self.buffer_depth < 1:
            raise ValueError("buffer_depth must be >= 1")

    @property
    def total_cycles(self) -> int:
        return self.warmup_cycles + self.measure_cycles

    def with_(self, **overrides) -> "SimulationConfig":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **overrides)


def paper_scale(config: SimulationConfig) -> SimulationConfig:
    """Rescale a config to the paper's full 16-ary 2-cube setup."""
    return config.with_(
        k=16,
        warmup_cycles=2000,
        measure_cycles=10_000,
        drain_cycles=10_000,
    )
