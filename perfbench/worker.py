"""One benchmark worker: repeats a workload in a single process.

``run.py`` starts one worker per fixed ``PYTHONHASHSEED`` and
aggregates their output.  A worker repeats the workload for its share
of ``--seconds``, times the reference loop (``reference.py``) just
before each simulation, checks every simulation and every
repetition's digest, and prints one JSON object as its last line.

    PYTHONHASHSEED=1 python3 perfbench/worker.py \\
        --workload low-load-long --seed 1 --seconds 2 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import sys
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
from probe import Probe, Tracer  # noqa: E402
from repro.sim.engine import DeadlockError  # noqa: E402
from repro.sim.invariants import InvariantError, audit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Share of a repetition's simulation time spent timing the reference
#: loop: one pass before the first simulation, then, before each later
#: one and after the last, as many as keep the share.
REF_SHARE = 0.05

#: Fewest repetitions a worker runs, however long they take.
MIN_REPS = 2

#: Engine counters folded into the repetition digest.
COUNTERS = (
    "cycle", "fast_forwarded_cycles", "offered_messages",
    "accepted_messages", "rejected_messages", "delivered_messages",
    "dropped_messages", "killed_messages", "retransmissions",
    "source_retries", "killed_flits", "control_flits_sent",
    "data_flits_moved", "flits_ejected", "header_decisions",
    "kernel_cycles", "deadlock_recoveries", "victim_cap_hits",
    "reconfigurations", "reconfig_downtime_cycles",
)


@dataclass
class Rep:
    """One repetition of a workload, reduced to numbers so that no
    simulator outlives its repetition (retained heaps slow later ones
    down through the garbage collector)."""

    wall_s: float
    #: Construction time of each simulation, in job order.
    setup_s: List[float]
    #: Reference-loop timings, taken between the simulations.
    ref_s: List[float]
    events: int
    cycles: int
    digest: str
    n_sims: int
    failures: List[str]
    traced: bool = False
    simulated: Dict[str, float] = field(default_factory=dict)
    fingerprint: List[dict] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)


# ======================================================================
# One repetition
# ======================================================================
def sim_state(job, cap, record) -> dict:
    """Deterministic outputs of one simulation (the digest input)."""
    engine = cap.sim.engine
    counters = {name: getattr(engine, name) for name in COUNTERS}
    counters["in_flight"] = len(engine.messages)
    counters["fault_epoch"] = engine.faults.epoch
    counters["audits"] = (
        engine.auditor.checks_run if engine.auditor is not None else 0
    )
    return {
        "job": job.label,
        "result": asdict(cap.result) if cap.result is not None else None,
        "record": asdict(record) if is_dataclass(record) else None,
        "counters": counters,
    }


def check_sim(job, cap, record) -> List[str]:
    """Correctness checks of one finished simulation."""
    engine = cap.sim.engine
    problems = []
    error = getattr(record, "error", None)
    if error is not None:
        problems.append(error.splitlines()[0])
    if cap.result is None:
        problems.append("run() returned no result")
    in_flight = len(engine.messages)
    settled = (
        engine.delivered_messages + engine.dropped_messages
        + engine.killed_messages + in_flight
    )
    if settled != engine.accepted_messages:
        problems.append(
            f"unaccounted messages: delivered {engine.delivered_messages} "
            f"+ dropped {engine.dropped_messages} + killed "
            f"{engine.killed_messages} + in flight {in_flight} != "
            f"accepted {engine.accepted_messages}"
        )
    if not engine.network_drained() or any(engine.queues) or in_flight:
        problems.append(
            f"network not drained: {in_flight} messages in flight, "
            f"{sum(map(len, engine.queues))} in injection queues"
        )
    violations = len(audit(engine))
    if engine.auditor is not None:
        violations += engine.auditor.violations_found
    if violations:
        problems.append(f"{violations} invariant violations")
    return [f"{job.label}: {p}" for p in problems]


def run_rep(workload, seed: int, tracer: Optional[Tracer] = None) -> Rep:
    jobs = workload.jobs(seed)
    records: List[object] = []
    failures: List[str] = []
    ref_s: List[float] = []
    wall = 0.0

    def time_reference() -> None:
        """Time the reference loop until it has had its share."""
        while not ref_s or sum(ref_s) < REF_SHARE * wall:
            ref_s.append(reference.sample())

    gc.collect()
    with Probe(tracer) as probe:
        for job in jobs:
            time_reference()
            t0 = perf_counter()
            try:
                records.append(job.run())
            except (DeadlockError, InvariantError) as exc:
                first = str(exc).splitlines()[0] if str(exc) else ""
                failures.append(f"{job.label}: {type(exc).__name__}: {first}")
                records.append(None)
            wall += perf_counter() - t0
        time_reference()
    sims = probe.sims
    if len(sims) != len(jobs):
        failures.append(
            f"{len(jobs)} jobs built {len(sims)} simulators; expected one each"
        )
        sims = []
    states = [
        sim_state(job, cap, rec) for job, cap, rec in zip(jobs, sims, records)
    ]
    digest = hashlib.sha256(
        json.dumps(states, sort_keys=True, default=repr).encode()
    ).hexdigest()
    for job, cap, rec in zip(jobs, sims, records):
        failures.extend(check_sim(job, cap, rec))
    setup = [cap.init_s for cap in sims]
    engines = [cap.sim.engine for cap in sims]
    rep = Rep(
        wall_s=wall - sum(setup),
        setup_s=setup,
        ref_s=ref_s,
        events=sum(
            e.data_flits_moved + e.flits_ejected + e.header_decisions
            for e in engines
        ),
        cycles=sum(e.cycle for e in engines),
        digest=digest,
        n_sims=len(sims),
        failures=failures,
        traced=tracer is not None,
    )
    if sims and not failures:
        rep.simulated = simulated_metrics(sims)
        rep.fingerprint = sim_fingerprints(jobs, sims)
        if tracer is not None:
            rep.layers = layer_metrics(tracer, rep, sims)
    return rep


# ======================================================================
# Metrics
# ======================================================================
def nearest_rank(sorted_values: List[int], q: float) -> int:
    """The ``q`` quantile by the nearest-rank rule."""
    rank = math.ceil(round(q * len(sorted_values), 9))
    return sorted_values[max(rank, 1) - 1]


def simulated_metrics(sims) -> Dict[str, float]:
    """Simulated-time metrics of a repetition, pooled over its
    simulations (deterministic for a seed)."""
    latencies = sorted(lat for cap in sims for lat in cap.result.latencies)
    engines = [cap.sim.engine for cap in sims]
    flits = sum(e.measured_delivered_flits for e in engines)
    node_cycles = sum(
        e.measure_window_cycles() * e.topology.num_nodes for e in engines
    )
    accepted = sum(e.accepted_messages for e in engines)
    delivered = sum(e.delivered_messages for e in engines)
    return {
        "sim_latency_p50_cycles": nearest_rank(latencies, 0.50),
        "sim_latency_p99_cycles": nearest_rank(latencies, 0.99),
        "sim_throughput": flits / node_cycles,
        "msg_delivered_ratio": delivered / accepted,
        "latency_samples": len(latencies),
        "msg_fail_ratio": (accepted - delivered) / accepted,
    }


def layer_metrics(tracer, rep: Rep, caps) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    totals = tracer.layer_totals()
    counts = tracer.counts

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    def self_us(name: str) -> float:
        return totals.get(name, {}).get("self_ns", 0) / 1e3

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    engines = [cap.sim.engine for cap in caps]
    steps = calls("engine.step")
    decides = calls("routing.decide")
    samples = tracer.samples
    return {
        "engine.step_calls": steps,
        "engine.step_self_us": ratio(self_us("engine.step"), steps),
        "engine.us_per_event": ratio(
            totals.get("engine.step", {}).get("incl_ns", 0) / 1e3, rep.events
        ),
        "engine.kernel_cycle_share": ratio(
            sum(e.kernel_cycles for e in engines), steps
        ),
        "engine.ff_cycle_share": ratio(
            sum(e.fast_forwarded_cycles for e in engines), rep.cycles
        ),
        "engine.control_flits_per_msg": ratio(
            sum(e.control_flits_sent for e in engines),
            sum(e.accepted_messages for e in engines),
        ),
        "engine.deadlock_recoveries": sum(
            e.deadlock_recoveries for e in engines
        ),
        "traffic.arrivals_us": self_us("traffic.arrivals"),
        "traffic.skip_calls": calls("traffic.skip"),
        "traffic.destination_us": self_us("traffic.destination"),
        "routing.decide_calls": decides,
        "routing.decide_us": self_us("routing.decide"),
        "routing.decide_progress_ratio": ratio(
            counts["routing.reserve_decisions"], decides
        ),
        "routing.cache_calls": calls("routing.cache"),
        "routing.cache_us": self_us("routing.cache"),
        "channel.free_adaptive_us": self_us("channel.free_adaptive"),
        "channel.reserve_calls": counts["channel.reserve"],
        "channel.release_calls": counts["channel.release"],
        "channel.vc_occupancy_mean": ratio(
            sum(s[0] for s in samples), len(samples)
        ),
        "faults.fail_calls": calls("faults.fail"),
        "faults.fail_us": self_us("faults.fail"),
        "faults.epoch_bumps": sum(
            cap.sim.faults.epoch - cap.epoch0 for cap in caps
        ),
        "chaos.hook_us": self_us("chaos.hook"),
        "invariants.audit_calls": calls("invariants.audit"),
        "invariants.audit_us": self_us("invariants.audit"),
        "invariants.violations": sum(
            e.auditor.violations_found for e in engines
            if e.auditor is not None
        ),
        "postmortem.diagnose_calls": calls("postmortem.diagnose"),
        "postmortem.diagnose_us": self_us("postmortem.diagnose"),
        "reconfig.hook_us": self_us("reconfig.hook"),
        "reconfig.commits": sum(e.reconfigurations for e in engines),
        "reconfig.downtime_cycles": sum(
            e.reconfig_downtime_cycles for e in engines
        ),
        "simulator.init_us": totals.get("simulator.init", {}).get(
            "incl_ns", 0) / 1e3,
        "stats.summarize_us": self_us("stats.summarize"),
    }


# ======================================================================
# Provenance
# ======================================================================
def sim_fingerprints(jobs, caps) -> List[dict]:
    """What was simulated: compare refuses runs where this differs."""
    out = []
    for job, cap in zip(jobs, caps):
        cfg = cap.sim.config
        out.append({
            "job": job.label,
            "protocol": cfg.protocol,
            "protocol_params": dict(cfg.protocol_params),
            "k": cfg.k,
            "n": cfg.n,
            "message_length": cfg.message_length,
            "offered_load": cfg.offered_load,
            "traffic": cfg.traffic,
            "warmup_cycles": cfg.warmup_cycles,
            "measure_cycles": cfg.measure_cycles,
            "drain_cycles": cfg.drain_cycles,
            "static_node_faults": cfg.faults.static_node_faults,
            "dynamic_faults": cfg.faults.dynamic_faults,
            "seed": cfg.seed,
            **job.info,
        })
    return out


# ======================================================================
# Worker loop
# ======================================================================
def run_worker(name: str, seed: int, seconds: float, trace: bool,
               spans: Optional[Path]) -> dict:
    """Repeat the workload for about ``seconds``; with ``trace``,
    alternate traced and untraced repetitions (at least one of each).

    A repetition is not started when, at the pace of the ones before
    it, it would end more than half a repetition past ``seconds``; at
    least ``MIN_REPS`` run."""
    workload = WORKLOADS[name]
    reps: List[Rep] = []
    failures: List[str] = []
    first_tracer: Optional[Tracer] = None
    start = perf_counter()
    while True:
        n_traced = sum(r.traced for r in reps)
        tracer = Tracer() if trace and 2 * n_traced <= len(reps) else None
        rep = run_rep(workload, seed, tracer)
        reps.append(rep)
        failures.extend(rep.failures)
        if rep.digest != reps[0].digest:
            failures.append(
                "repetition digest differs from the first repetition: "
                "deterministic outputs changed between identical runs"
            )
        if first_tracer is None and tracer is not None:
            first_tracer = tracer
        if failures:
            break
        n_traced += rep.traced
        elapsed = perf_counter() - start
        pace = elapsed / len(reps)
        if len(reps) >= MIN_REPS and elapsed + pace / 2 >= seconds and (
            not trace or 0 < n_traced < len(reps)
        ):
            break
    out = {
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "attempted": sum(r.n_sims for r in reps),
        "failures": failures,
        "digest": reps[0].digest,
        "simulated": reps[0].simulated,
        "fingerprint": reps[0].fingerprint,
        "reps": [
            {"traced": r.traced, "wall_s": r.wall_s, "setup_s": r.setup_s,
             "ref_s": r.ref_s, "events": r.events, "cycles": r.cycles,
             "layers": r.layers}
            for r in reps
        ],
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
    }
    if spans is not None and first_tracer is not None and not failures:
        first_tracer.write(spans)
        samples = first_tracer.samples
        if samples:
            out["samples_mean"] = {
                key: sum(s[i] for s in samples) / len(samples)
                for i, key in enumerate(("vc_occupancy", "in_flight",
                                         "queued"))
            }
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="write the first traced repetition's spans here")
    args = parser.parse_args(argv)
    result = run_worker(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.spans)
    print(json.dumps(result, default=repr))
    return 0


if __name__ == "__main__":
    sys.exit(main())
