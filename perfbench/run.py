#!/usr/bin/env python3
"""perfbench — the repository's benchmark of both end-to-end paths.

Usage (from the repository root)::

    python3 perfbench/run.py --workload atpg-stream --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload report-lots --seed 1 --trace 1 --out runs.jsonl
    python3 perfbench/compare.py before.jsonl after.jsonl

``--trace 0`` measures the end-to-end metrics with the benchmark's
per-layer probes off; ``--trace 1`` is the separate traced run that
reports the per-layer metrics.  ``--seconds`` is the length of the
closed-loop capacity phase of an untraced serving run (``sustained_rps``);
the traced run's open-loop ``low`` and ``high`` phases have fixed request
counts instead, and ``train-flow`` does a fixed amount of work.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; progress,
the host/provenance block and the Fig. 9 line go to standard error, and
``--out`` appends the whole record (result + provenance) as one JSONL line
for ``compare.py``.  A failed correctness check prints ``"correct": false``
and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
T0 = time.perf_counter()
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _log(msg: str) -> None:
    print(f"[perfbench {time.perf_counter() - T0:5.1f}s] {msg}", file=sys.stderr, flush=True)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=8.0,
                   help="closed-loop capacity phase of an untraced serving run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: seconds-sized designs and loads, for the smoke test")
    p.add_argument("--out", default=None, metavar="FILE.jsonl",
                   help="append the result and its provenance to this file")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _log(f"no repro sources under {ROOT / 'src'}; run from a repository checkout")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]  # no cache dirs, worker counts or chaos plans
    # Before numpy loads, here and in every server spawned: the models'
    # matrices are too small for BLAS threads to help (one thread fits as
    # fast on an idle 2-vCPU host), but with one other busy process on the
    # host, two spinning BLAS threads made a fit 2-20x slower and the
    # benchmark's numbers a measure of its neighbours.
    os.environ.update({v: "1" for v in BLAS_THREAD_VARS})

    from benchstats import host_info
    from flowstages import CheckFailed
    from servebench import run_serving
    from trainflow import run_train_flow
    from workloads import END_TO_END, PER_LAYER, WORKLOADS, ServingWorkload, smoke_variant

    if args.workload not in WORKLOADS:
        _log(f"unknown workload {args.workload!r} (have: {', '.join(WORKLOADS)})")
        return 2
    w = WORKLOADS[args.workload]
    if args.size == "smoke":
        w = smoke_variant(w)
    traced = bool(args.trace)
    work = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        runner = run_serving if isinstance(w, ServingWorkload) else run_train_flow
        values, attempted, failed, info = runner(w, args.seed, args.seconds, traced,
                                                 ROOT, work, _log)
    except CheckFailed as exc:
        _log(f"CORRECTNESS CHECK FAILED: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    table = [(n, u) for n, u, *_ in (PER_LAYER if traced else END_TO_END)]
    missing = [n for n, _ in table if n not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {
        "correct": True,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": float(values[n]), "unit": u} for n, u in table},
    }
    provenance = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "size": args.size,
        "wall_s": time.perf_counter() - t0, "host": host_info(ROOT), "blas_threads": 1,
        **{k: v for k, v in info.items() if k != "spans"},
    }
    _log("provenance " + json.dumps(provenance, sort_keys=True))
    if args.out:
        record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
                  "result": result, "provenance": provenance, "spans": info.get("spans", {})}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
