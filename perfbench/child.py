"""Child process of ``run.py`` (one at a time, never a pool).

``child.py setup WORKLOAD SEED``
    One cold set-up: start the interpreter, import the CLI module
    (``repro.__main__``, what ``python -m repro`` pays) and build the
    workload's cell list.
``child.py report [--trace]``
    One warm ``repro report`` over the main six-system sweep: import the
    CLI module, ``run_many`` the 66 cells (all store hits) and render
    Figs. 4, 5 and 7 through ``run_figure``.  ``--trace`` installs the
    layer wrappers after the import.

``run.py`` passes ``PYTHONPATH`` and the ``REPRO_*`` settings (cache
directory, scale, seed) in the environment.  The last line of stdout
is one JSON object for ``run.py`` to check.
"""

import hashlib
import json
import sys
import time

t0 = time.perf_counter()
import repro.__main__  # noqa: E402,F401  (the startup layer, timed)
from repro import accel  # noqa: E402
from repro.experiments import runner  # noqa: E402

import_s = time.perf_counter() - t0

import cells  # noqa: E402


def setup(workload: str, seed: int) -> dict:
    return {"import_s": import_s, "cells": len(cells.build(workload, seed))}


def report(traced: bool) -> dict:
    from repro.experiments import figures

    trace = None
    if traced:
        import layers

        trace = layers.LayerTrace()
        trace.install()
    try:
        results = runner.run_many(cells.report_cells(), workers=1)
        renderings = [
            figures.run_figure(fid).rendering for fid in cells.REPORT_FIGURES
        ]
    finally:
        if trace is not None:
            trace.uninstall()
    counters = runner.counters()
    store = runner.result_store()
    return {
        "import_s": import_s,
        "backend": accel.resolved_backend(),
        "simulations": counters.simulations,
        "disk_hits": counters.disk_hits,
        "cells": len(results),
        "counts": cells.exact_counts(results),
        "store": {**store.counters.to_dict(), "kind": store.kind},
        "figures": [
            hashlib.sha256(text.encode("utf-8")).hexdigest()
            for text in renderings
        ],
        "layers": trace.table() if trace is not None else None,
    }


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        out = setup(sys.argv[2], int(sys.argv[3]))
    elif mode == "report":
        out = report("--trace" in sys.argv[2:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out, sort_keys=True))
