"""The simulator has no numpy dependency.

numpy is a dev extra only because the repo benchmark's reference
workload uses it.  A fresh interpreter builds and runs a small
simulation through the public package and must never have imported
numpy; running in a subprocess keeps modules other tests imported out
of the check.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROGRAM = """
import sys
from repro import NetworkSimulator, SimulationConfig
result = NetworkSimulator(SimulationConfig(
    k=4, n=2, protocol="tp", offered_load=0.1, message_length=8,
    warmup_cycles=50, measure_cycles=200, drain_cycles=500,
)).run()
assert result.delivered > 0, "the simulation delivered nothing"
print("numpy" in sys.modules)
"""


def test_simulation_never_imports_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False", (
        "numpy was imported while building and running a simulation"
    )
