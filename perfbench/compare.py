#!/usr/bin/env python3
"""Compare two sets of benchmark result files, like for like only.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are result files written by ``run.py`` or directories of
them (copy ``perfbench/out/`` aside after each side's runs).  Files
pair up by workload, seed and trace mode.  The comparison is refused
(exit 2) when a pair differs in its workload fingerprint (what was
simulated: k, n, message length, horizon, load, faults, seeds), in the
machine it ran on (CPU model, ``nproc``, Python) or in the measurement
settings (hash seeds, reference loop, ``--seconds``); the commit may
differ, that is the point.  For every workload the median of each
metric over the paired seeds is compared; an end-to-end metric worse
than BASE by more than its ``BENCHMARK.json`` bound is a regression
(exit 1).  Simulated outcomes must match exactly per seed
(exit 1 otherwise): a change that only speeds the simulator up must
not move them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Provenance that must match: the machine and the measurement settings.
SETUP_KEYS = ("cpu_model", "nproc", "python", "implementation",
              "hash_seeds", "reference_sha256", "seconds")

Key = Tuple[str, int, int]


def load(path: Path) -> Dict[Key, dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = {}
    for f in files:
        data = json.loads(f.read_text())
        if "fingerprint" in data and "metrics" in data:
            out[(data["workload"], data["seed"], data["trace"])] = data
    return out


def refusals(base: dict, head: dict) -> List[str]:
    """Why a BASE/HEAD pair may not be compared (empty: comparable)."""
    why = []
    if base["fingerprint"] != head["fingerprint"]:
        why.append("workload fingerprints differ")
    for key in SETUP_KEYS:
        b, h = base["provenance"].get(key), head["provenance"].get(key)
        if b != h:
            why.append(f"{key} differs: {b!r} vs {h!r}")
    if base["failures"] or head["failures"]:
        why.append("a side has failed checks")
    return why


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK_JSON.read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    base, head = load(args.base), load(args.head)
    pairs = sorted(set(base) & set(head))
    if not pairs:
        print("compare: no (workload, seed, trace) pair on both sides",
              file=sys.stderr)
        return 2
    refused = False
    for key in pairs:
        for reason in refusals(base[key], head[key]):
            print(f"REFUSED {key[0]} seed {key[1]} trace {key[2]}: {reason}",
                  file=sys.stderr)
            refused = True
    if refused:
        return 2

    regressed = changed = False
    for workload, trace in sorted({(k[0], k[2]) for k in pairs}):
        keys = [k for k in pairs if k[0] == workload and k[2] == trace]
        print(f"== {workload} (trace {trace}, {len(keys)} seeds)")
        for key in keys:
            if base[key]["simulated"] != head[key]["simulated"]:
                print(f"  simulated outcomes CHANGED for seed {key[1]}")
                changed = True
        for name in base[keys[0]]["metrics"]:
            if name not in spec:
                continue
            b = statistics.median(base[k]["metrics"][name] for k in keys)
            h = statistics.median(head[k]["metrics"][name] for k in keys)
            worse = (h - b) if spec[name]["better"] == "lower" else (b - h)
            share = worse / abs(b) if b else 0.0
            bound = spec[name].get("bound")
            verdict = ""
            if bound is not None:
                verdict = "REGRESSION" if share > bound else "ok"
                regressed |= share > bound
            print(f"  {name:<32} base {b:>14.6g} head {h:>14.6g} "
                  f"worse by {share:+8.2%} {verdict}")
    return 1 if regressed or changed else 0


if __name__ == "__main__":
    sys.exit(main())
