"""The benchmark's workloads, each built from the benchmark seed.

A workload is a fixed list of jobs; one job is one simulation driven
through a public entry point (``NetworkSimulator(cfg).run()``,
``faults.chaos.run_storm_one`` or ``faults.chaos.run_one``).  The
runner executes the jobs one after another in a single process — a
closed loop with one caller, which starts the next simulation when the
previous one returns.  See README.md for why each workload exists and
which layer metrics it is meant to move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.faults.chaos import (
    STORM_SCENARIOS,
    ChaosSpec,
    StormSpec,
    run_one,
    run_storm_one,
)
from repro.sim.config import FaultConfig, SimulationConfig
from repro.sim.simulator import NetworkSimulator


@dataclass(frozen=True)
class Job:
    """One simulation of a workload."""

    label: str
    run: Callable[[], Optional[object]]
    #: Fault-count and scenario facts the simulator's config does not
    #: carry (chaos bursts are scheduled live by a hook).
    info: Dict[str, object]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: Callable[[int], List[Job]]


def _simulate(cfg: SimulationConfig) -> Callable[[], None]:
    def run() -> None:
        NetworkSimulator(cfg).run()
    return run


def _uniform_saturated(seed: int) -> List[Job]:
    cfg = SimulationConfig(
        k=8, n=2, protocol="tp", protocol_params={"k_unsafe": 0},
        message_length=32, offered_load=0.28,
        warmup_cycles=1000, measure_cycles=4000, seed=seed,
    )
    return [Job("tp-aggressive", _simulate(cfg), {})]


#: Fault networks per faulted-detour repetition.  One random 10-fault
#: placement decides most of the detour cost and the latency tail, so
#: a single network per seed made host time and latency swing with the
#: placement.  Sixteen short runs average the placement out better than
#: four long ones: over seeds 1-20 the work per repetition varied by
#: 2.6% (coefficient of variation) instead of 4.1%, with as many
#: measured messages.
FAULT_NETWORKS = 16


def _faulted_detour(seed: int) -> List[Job]:
    jobs = []
    for i in range(FAULT_NETWORKS):
        common = dict(
            k=8, n=2, message_length=8, offered_load=0.10,
            warmup_cycles=200, measure_cycles=150, seed=seed * 1000 + i,
            faults=FaultConfig(static_node_faults=10),
        )
        tp = SimulationConfig(
            protocol="tp", protocol_params={"k_unsafe": 3}, **common
        )
        mb = SimulationConfig(protocol="mb", **common)
        jobs += [
            Job(f"net{i}/tp-conservative", _simulate(tp), {}),
            Job(f"net{i}/mb-m", _simulate(mb), {}),
        ]
    return jobs


#: Storm seeds per fault-storm repetition, ``STORMS * seed`` onwards.
#: How long a storm takes to settle varies a lot with its seed; four
#: storms per repetition average that out.
STORMS = 4

#: ``det-naive`` gridlock seeds.  Fixed, not derived from the benchmark
#: seed: these two wedge into real cyclic deadlocks (3 and 5 recoveries),
#: so deadlock diagnosis and victim ejection run on every seed.
GRIDLOCK_SEEDS = (2, 3)


def _fault_storm(seed: int) -> List[Job]:
    storm = StormSpec()
    chaos = ChaosSpec()
    scenario = STORM_SCENARIOS["gridlock"]
    storm_info = {
        "scenario": "gridlock",
        "chaos_faults": scenario.bursts * scenario.burst_size,
    }
    jobs = [
        Job(
            f"gridlock/{arm}/s{s}",
            (lambda s=s, arm=arm: run_storm_one(storm, "gridlock", s, arm)),
            storm_info,
        )
        for s in range(STORMS * seed, STORMS * (seed + 1))
        for arm in ("tp-only", "reconfig")
    ]
    jobs += [
        Job(
            f"det-naive/s{s}",
            (lambda s=s: run_one(chaos, s, "det-naive")),
            {"scenario": "det-naive",
             "chaos_faults": chaos.bursts * chaos.burst_size},
        )
        for s in GRIDLOCK_SEEDS
    ]
    return jobs


def _low_load_long(seed: int) -> List[Job]:
    cfg = SimulationConfig(
        k=8, n=2, protocol="tp", protocol_params={"k_unsafe": 0},
        message_length=32, offered_load=0.002,
        warmup_cycles=10_000, measure_cycles=530_000, seed=seed,
    )
    return [Job("tp-idle", _simulate(cfg), {})]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "uniform-saturated",
            "Fig. 12 knee: TP aggressive, uniform, 32-flit messages at "
            "0.28 flits/node/cycle, no faults; data movement and "
            "network.channel carry the run",
            _uniform_saturated,
        ),
        Workload(
            "faulted-detour",
            "Figs. 13/14 head-to-head: TP conservative then MB-m on each of "
            "16 random 10-node-fault networks, 8-flit messages at 0.10; "
            "routing decide, RouteCache and control tokens carry the run",
            _faulted_detour,
        ),
        Workload(
            "fault-storm",
            "gridlock storm (tp-only and reconfig arms) plus det-naive "
            "deadlocks: dynamic faults, auditor, postmortem, reconfig "
            "commits, RouteCache invalidation",
            _fault_storm,
        ),
        Workload(
            "low-load-long",
            "TP at 0.002 over 540k cycles: fast-forward skips most "
            "cycles, so traffic gap sampling and per-cycle fixed cost "
            "dominate; bypasses every data-phase change",
            _low_load_long,
        ),
    )
}
