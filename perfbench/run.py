#!/usr/bin/env python3
"""Benchmark of the TP/MB-m network simulator, end to end and by layer.

    python3 perfbench/run.py --workload uniform-saturated --seed 1 \\
        --seconds 25 --trace 0

Runs one workload (or ``all``; see workloads.py and README.md).  The
repetitions run in one worker process at a time (``worker.py``), one
simulation after another.  Each worker has its own fixed
``PYTHONHASHSEED``, so every run samples the same string-hash layouts.
Host time is the median over all repetitions, reported both raw and
in units of the reference loop (``reference.py``) timed alongside, which
cancels the shared host's drift in speed.  Every simulation is checked
(message accounting, drained network, zero invariant violations, no
deadlock/invariant error) and every repetition, in every worker, must
reproduce one digest of the deterministic outputs; any failure exits
nonzero.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced repetitions and prints the per-layer metrics
derived from the spans (probe.py) plus the tracing overhead.  The last
line of standard output is one JSON object.  A result file with the
workload fingerprint and machine provenance goes to ``perfbench/out/``
for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Settings that change what the program does; the benchmark measures
#: the default program only.
REFUSED_ENV = (
    "REPRO_QUICK", "REPRO_PAPER_SCALE", "REPRO_JOBS", "REPRO_DATA_KERNEL",
)
#: One worker per hash seed, one after another; ``--seconds`` is split
#: evenly among them.  Fixed seeds keep the string-hash layout the same
#: in every run, and let the digest check cover hash-order independence.
HASH_SEEDS = (1, 2)
#: Wall-clock headroom of one run beyond ``--seconds``, all workers
#: together: a worker overshoots its share by up to one repetition.  A
#: worker still running at the deadline is stopped and left out, which
#: is a timeout, not a failed check: the metrics come from the workers
#: that finished, and only a run where none finished exits (code 3)
#: without a result.
RUN_HEADROOM_S = 150

def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the simulator's source tree (stands in for the
    commit where the checkout is not a git repository)."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu,
        "nproc": nproc,
    }


# ======================================================================
# Orchestration
# ======================================================================
def run_workers(name: str, seed: int, seconds: float,
                trace: bool) -> Tuple[List[dict], List[str], List[str]]:
    """One worker per hash seed, one after another.  Returns the
    finished workers, the failed checks and the timeouts."""
    workers: List[dict] = []
    failures: List[str] = []
    timeouts: List[str] = []
    budget = seconds + RUN_HEADROOM_S
    deadline = time.monotonic() + budget
    for i, hash_seed in enumerate(HASH_SEEDS):
        cmd = [
            sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", name, "--seed", str(seed),
            "--seconds", repr(seconds / len(HASH_SEEDS)),
            "--trace", str(int(trace)),
        ]
        if trace and i == 0:
            spans = OUT_DIR / f"{name}-seed{seed}.spans.tsv.gz"
            cmd += ["--spans", str(spans)]
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        try:
            proc = subprocess.run(
                cmd, env=env, stdout=subprocess.PIPE, text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            timeouts.append(
                f"worker PYTHONHASHSEED={hash_seed} stopped at the "
                f"{budget:.0f} s deadline; {len(workers)} of "
                f"{len(HASH_SEEDS)} workers finished"
            )
            break
        if proc.returncode != 0:
            failures.append(
                f"worker PYTHONHASHSEED={hash_seed} exited {proc.returncode}"
            )
            break
        worker = json.loads(proc.stdout.strip().splitlines()[-1])
        workers.append(worker)
        failures.extend(worker["failures"])
        if failures:
            break
    if len({w["digest"] for w in workers}) > 1:
        failures.append(
            "deterministic outputs differ between hash seeds"
        )
    return workers, failures, timeouts


def _median(workers: List[dict], traced: bool, value) -> float:
    """Median of ``value(rep)`` over the traced or untraced
    repetitions of every worker."""
    return statistics.median(
        value(r) for w in workers for r in w["reps"] if r["traced"] == traced
    )


def host_metrics(workers: List[dict]) -> Dict[str, float]:
    """Host-time metrics of the untraced repetitions, raw and in units
    of the reference loop (``reference.py``).  A repetition's unit is
    the median of the reference passes timed between its simulations,
    so each repetition is scaled by the host's speed at that moment.
    ``setup_s`` must be in seconds: it is construction time in
    reference units, converted at ``reference.NOMINAL_S`` per unit."""
    reps = [r for w in workers for r in w["reps"] if not r["traced"]]
    for r in reps:
        r["ref_unit"] = statistics.median(r["ref_s"])
    return {
        "wall_ref": _median(workers, False,
                            lambda r: r["wall_s"] / r["ref_unit"]),
        "events_per_ref": _median(
            workers, False, lambda r: r["events"] / r["wall_s"] * r["ref_unit"]
        ),
        "sim_cycles_per_ref": _median(
            workers, False, lambda r: r["cycles"] / r["wall_s"] * r["ref_unit"]
        ),
        "setup_s": reference.NOMINAL_S * _median(
            workers, False, lambda r: sum(r["setup_s"]) / r["ref_unit"]
        ),
        "peak_rss_mib": max(w["peak_rss_mib"] for w in workers),
        "wall_s": _median(workers, False, lambda r: r["wall_s"]),
        "events_per_s": _median(workers, False,
                                lambda r: r["events"] / r["wall_s"]),
        "sim_cycles_per_s": _median(workers, False,
                                    lambda r: r["cycles"] / r["wall_s"]),
        "setup_raw_s": _median(workers, False, lambda r: sum(r["setup_s"])),
        "ref_s": statistics.median(t for r in reps for t in r["ref_s"]),
    }


def per_layer_metrics(workers: List[dict],
                      names: List[str]) -> Dict[str, float]:
    metrics = {
        key: _median(workers, True, lambda r: r["layers"][key])
        for key in names if key != "trace.overhead_ratio"
    }
    metrics["trace.overhead_ratio"] = (
        _median(workers, True, lambda r: r["wall_s"])
        / _median(workers, False, lambda r: r["wall_s"])
    )
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 names: List[str]) -> Tuple[Dict[str, float], dict]:
    """Run one workload; returns the metrics called ``names`` and the
    result-file payload."""
    workers, failures, timeouts = run_workers(name, seed, seconds, trace)
    metrics: Dict[str, float] = {}
    host: Dict[str, float] = {}
    if workers and not failures:
        host = host_metrics(workers)
        if trace:
            metrics = per_layer_metrics(workers, names)
        else:
            measured = {**host, **workers[0]["simulated"]}
            metrics = {key: measured[key] for key in names}
    first = workers[0] if workers else {}
    payload = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "fingerprint": {
            "workload": name, "seed": seed,
            "sims": first.get("fingerprint"),
        },
        "provenance": {
            "commit": git_commit(),
            "source_sha256": source_digest(),
            "hash_seeds": list(HASH_SEEDS),
            "reference_sha256": reference.digest(),
            "seconds": seconds,
            **machine(),
        },
        "attempted": sum(w["attempted"] for w in workers) or 1,
        "failures": failures,
        "timeouts": timeouts,
        "metrics": metrics,
        "host": host,
        "simulated": first.get("simulated"),
        "workers": workers,
    }
    return metrics, payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    refused = [var for var in REFUSED_ENV if var in os.environ]
    if refused:
        print(
            f"perfbench: refusing to run with {', '.join(refused)} set; "
            "the benchmark measures the default program, so unset them",
            file=sys.stderr,
        )
        return 2
    if not (ROOT / "src" / "repro").is_dir() or not (
        ROOT / "BENCHMARK.json"
    ).is_file():
        print(
            f"perfbench: src/repro or BENCHMARK.json missing under {ROOT}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in bench["per_layer" if args.trace else "end_to_end"]
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_metrics: Dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        metrics, payload = run_workload(
            name, args.seed, args.seconds, bool(args.trace), list(units)
        )
        attempted += payload["attempted"]
        failed += min(len(payload["failures"]), payload["attempted"])
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        (OUT_DIR / f"{stem}.json").write_text(
            json.dumps(payload, indent=1, default=repr)
        )
        for problem in payload["failures"]:
            print(f"FAIL {name}: {problem}", file=sys.stderr)
        for problem in payload["timeouts"]:
            print(f"TIMEOUT {name}: {problem}", file=sys.stderr)
        if not payload["workers"] and not payload["failures"]:
            print(f"perfbench: {name} timed out before any worker "
                  "finished; no result", file=sys.stderr)
            return 3
        print(f"== {name} (seed {args.seed})")
        for key, value in metrics.items():
            print(f"  {key:<32} {value:>16.6g} {units[key]}")
        if metrics and not args.trace:
            extra = {**payload["host"], **payload["simulated"]}
            for key, value in extra.items():
                if key not in metrics:
                    print(f"  {key:<32} {value:>16.6g} (not gated)")
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in metrics.items():
            out_metrics[prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
