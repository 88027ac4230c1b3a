"""Compare two ``BENCH_engine.json`` snapshots workload by workload.

Usage::

    python benchmarks/compare_bench.py BASELINE.json CURRENT.json \
        [--threshold 0.05]

Prints a per-workload table of simulated cycles per second (baseline,
current, and the relative delta) and exits nonzero when any workload
present in both files regressed by more than ``--threshold`` (default
5%).  Speedups never fail; workloads present on only one side are
reported but ignored for the verdict, so adding or retiring a workload
does not break the comparison.

``--key`` selects which numeric field is compared (default
``cycles_per_sec``).  ``--key events_per_sec`` compares interpreter
cost per simulation event (flit hops + ejections + header decisions)
instead — unlike cycles/s it is insensitive to how much of the
horizon the quiescence fast-forward skipped, so it isolates hot-path
cost from scheduling-efficiency changes.  Saturation snapshots from
``repro.experiments.saturation`` share the same shape, so
``--key knee_throughput`` diffs two ``BENCH_saturation.json`` files.
``--events`` is shorthand for ``--key events_per_sec``.

Two snapshots taken at different scales are not comparable (a k=5
QUICK run simulates ~1.8x the cycles/s of a k=8 reduced one), so the
script refuses them: when the files' ``scale``, ``k`` or ``n`` differ
it names the field and exits 2 without comparing anything.

CI gates with ``--workloads tp-high,dp-high --threshold 0.25`` against
a baseline it builds on the same runner from the base commit at the
same scale — a saturated workload losing more than a quarter of its
cycles/s is an engine regression, not runner noise.  Run it locally
against a baseline produced on the same machine to validate an engine
optimisation.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional

#: Snapshot fields that must agree for two snapshots to be comparable.
SCALE_FIELDS = ("scale", "k", "n")


def rows_by_workload(report: dict) -> dict:
    """Map workload name -> row for one snapshot."""
    return {row["workload"]: row for row in report["workloads"]}


def scale_mismatches(baseline: dict, current: dict) -> List[str]:
    """The :data:`SCALE_FIELDS` whose values differ between snapshots.

    A field absent from both snapshots agrees; absent from one only,
    it differs.
    """
    return [
        name for name in SCALE_FIELDS
        if baseline.get(name) != current.get(name)
    ]


def compare(baseline: dict, current: dict, threshold: float,
            key: str = "cycles_per_sec",
            workloads: Optional[List[str]] = None):
    """Per-workload comparison rows plus the list of regressions.

    Returns ``(rows, regressions)``; each row is a dict with the
    workload name, both ``key`` figures (``None`` when the workload
    is missing on that side), and ``delta`` (relative change, ``None``
    unless present on both sides).  ``regressions`` lists the names
    whose figure dropped by more than ``threshold``.  ``workloads``
    restricts the comparison (and therefore the verdict) to the named
    subset — the CI perf gate uses it to assert only on the saturated
    workloads, whose throughput is dominated by engine work rather
    than scheduling noise.
    """
    names = set(baseline) | set(current)
    if workloads is not None:
        names &= set(workloads)
    rows: List[dict] = []
    regressions: List[str] = []
    for name in sorted(names):
        base = baseline.get(name)
        cur = current.get(name)
        base_cps: Optional[float] = base and base.get(key)
        cur_cps: Optional[float] = cur and cur.get(key)
        delta: Optional[float] = None
        if base_cps and cur_cps:
            delta = (cur_cps - base_cps) / base_cps
            if delta < -threshold:
                regressions.append(name)
        rows.append({
            "workload": name,
            "baseline": base_cps,
            "current": cur_cps,
            "delta": delta,
        })
    return rows, regressions


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return f"{'-':>12}"
    # Saturation keys are O(0.1) flits/node/cycle; cycles/sec are large.
    if abs(value) < 100:
        return f"{value:>12,.4f}"
    return f"{value:>12,.0f}"


def render(rows: List[dict], regressions: List[str],
           threshold: float) -> str:
    header = (
        f"{'workload':<20} {'baseline':>12} {'current':>12} {'delta':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        base = _fmt(row["baseline"])
        cur = _fmt(row["current"])
        if row["delta"] is None:
            delta = f"{'-':>8}"
        else:
            mark = " *" if row["workload"] in regressions else ""
            delta = f"{row['delta']:>+8.1%}{mark}"
        lines.append(f"{row['workload']:<20} {base} {cur} {delta}")
    lines.append("-" * len(header))
    if regressions:
        lines.append(
            f"FAIL: {len(regressions)} workload(s) regressed more than "
            f"{threshold:.0%}: {', '.join(regressions)}"
        )
    else:
        lines.append(f"PASS: no workload regressed more than {threshold:.0%}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_engine.json files (cycles/sec)."
    )
    parser.add_argument("baseline", type=pathlib.Path,
                        help="baseline BENCH_engine.json")
    parser.add_argument("current", type=pathlib.Path,
                        help="current BENCH_engine.json")
    parser.add_argument(
        "--threshold", type=float, default=0.05,
        help="max tolerated relative throughput drop (default: 0.05)",
    )
    parser.add_argument(
        "--key", default="cycles_per_sec",
        help=(
            "numeric row field to compare (default: cycles_per_sec; "
            "use knee_throughput for BENCH_saturation.json)"
        ),
    )
    parser.add_argument(
        "--events", action="store_true",
        help=(
            "shorthand for --key events_per_sec: compare per-event "
            "interpreter cost (flit hops + ejections + header "
            "decisions per wall second) instead of cycles/s"
        ),
    )
    parser.add_argument(
        "--workloads", default=None,
        help=(
            "comma-separated workload names to compare; everything "
            "else is excluded from the table and the verdict "
            "(CI gates only the saturated workloads this way)"
        ),
    )
    args = parser.parse_args(argv)
    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())
    mismatched = scale_mismatches(baseline, current)
    if mismatched:
        for name in mismatched:
            print(
                f"refusing to compare: {name} differs "
                f"(baseline {baseline.get(name)!r}, "
                f"current {current.get(name)!r})",
                file=sys.stderr,
            )
        return 2
    key = "events_per_sec" if args.events else args.key
    workloads = (
        [w for w in args.workloads.split(",") if w]
        if args.workloads else None
    )
    rows, regressions = compare(
        rows_by_workload(baseline), rows_by_workload(current),
        args.threshold, key=key, workloads=workloads,
    )
    print(render(rows, regressions, args.threshold))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
