"""The traced benchmark's hooks still fit the program.

``perfbench/layers.py`` wraps hot-path names (``Engine.schedule``,
``Simulator._route``, ``Message.__init__``, every method of the L1 and
directory classes, ...) from outside.  A rename on the hot path breaks
its ``install()``, and with it the traced benchmark run; this test fails
first.  It only reads ``perfbench``.  It runs in a subprocess because
``install()`` patches classes process-wide.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_SCRIPT = textwrap.dedent(
    """
    import json, sys
    sys.path.insert(0, sys.argv[1])
    import layers
    from repro.sim.engine import Engine
    from repro.sim.simulator import run_simulation
    from repro.workloads.base import make_workload

    before = dict(vars(Engine))
    trace = layers.LayerTrace()
    trace.install()
    try:
        run_simulation(make_workload("synth", threads=2, seed=1, scale=0.05),
                       "chats")
    finally:
        trace.uninstall()
    restored = all(vars(Engine)[k] is v for k, v in before.items())
    calls = {layer: row["calls"] for layer, row in trace.table().items()}
    print(json.dumps({"calls": calls, "restored": restored}))
    """
)


def test_layer_trace_installs_runs_and_uninstalls():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), REPRO_BACKEND="python")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(REPO / "perfbench")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["restored"]
    for layer in ("engine", "core", "l1", "dir", "net", "cache", "memory"):
        assert out["calls"][layer] > 0, layer
