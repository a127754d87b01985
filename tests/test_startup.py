"""Import-surface guard for the start-up path.

A warm ``repro report`` only reads results from the store and renders
figures, so importing the CLI and serving a warm batch must not load the
machine model.  The checks compare module sets in a fresh interpreter,
never timings, so they hold on any host.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
import repro.obs

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules that only a simulation (or a trace/forensics export) runs.
SIMULATION_ONLY = (
    "repro.sim.simulator",
    "repro.sim.engine",
    "repro.mem.l1controller",
    "repro.mem.directory",
    "repro.net.network",
    "repro.obs.events",
    "repro.obs.ledger",
    "repro.obs.attribution",
    "repro.analysis.forensics",
    "concurrent.futures.process",
)

#: Modules that only a legacy-cache migration runs.
MIGRATION_ONLY = ("repro.store.legacy", "repro.store.migrate")

_POPULATE = textwrap.dedent(
    """
    from repro.experiments import figures

    figures.run_figure("fig4")
    """
)

_WARM = textwrap.dedent(
    """
    import json
    import sys

    watched = sys.argv[1:]
    import repro.__main__  # noqa: F401

    after_import = [m for m in watched if m in sys.modules]

    from repro.experiments import figures, runner
    from repro.experiments.registry import experiment_configs

    runner.run_many(experiment_configs("fig4"), progress=lambda *a: None)
    figures.run_figure("fig4")
    figures.run_figure("fig4", use_store=False)
    print(json.dumps({
        "after_import": after_import,
        "after_warm": [m for m in watched if m in sys.modules],
        "simulations": runner.counters().simulations,
    }))
    """
)


def _env(cache_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_CACHE_DIR=str(cache_dir),
        REPRO_SCALE="0.05",
        REPRO_THREADS="2",
        REPRO_SEED="1",
        REPRO_WORKERS="1",
    )
    return env


def _python(script: str, args, env) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory) -> Path:
    cache = tmp_path_factory.mktemp("startup") / "cache"
    _python(_POPULATE, [], _env(cache))
    return cache


def test_warm_report_loads_no_simulation_module(warm_store):
    out = json.loads(
        _python(_WARM, SIMULATION_ONLY, _env(warm_store)).splitlines()[-1]
    )
    assert out["simulations"] == 0, "the store was not warm"
    assert out["after_import"] == []
    assert out["after_warm"] == []


def test_warm_report_on_sharded_store_loads_no_migration_module(warm_store):
    out = json.loads(
        _python(_WARM, MIGRATION_ONLY, _env(warm_store)).splitlines()[-1]
    )
    assert out["simulations"] == 0, "the store was not warm"
    assert out["after_warm"] == []


@pytest.mark.parametrize("package", [repro, repro.obs], ids=lambda p: p.__name__)
def test_every_export_resolves_and_is_listed(package):
    assert len(set(package.__all__)) == len(package.__all__)
    listed = dir(package)
    for name in package.__all__:
        assert getattr(package, name) is not None
        assert name in listed
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= set(namespace)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name  # noqa: B018
    assert not hasattr(repro.obs, "no_such_name")
