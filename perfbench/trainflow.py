"""The ``train-flow`` workload: design → injected datasets → fitted model."""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Tuple

from repro.core.augment import augmentation_configs
from repro.core.io import save_framework
from repro.experiments.benchmarks import benchmark
from repro.obs import SpanTracer
from repro.runtime import derive_seed, sample_set_fingerprint

from benchstats import median, peak_rss_mb
from flowstages import FlowSettings, run_flow
from layerprobe import probe_layers
from servebench import (
    ServerProcess,
    build_pool,
    phase_latencies,
    quality,
    serve_layer_metrics,
    serve_replay,
)
from workloads import FlowWorkload

__all__ = ["run_train_flow"]


def serve_setup_s(w: FlowWorkload, root: Path, work: Path, fw_path: Path, k: int) -> float:
    """``repro serve --framework`` on the flow's model: spawn until listening."""
    server = ServerProcess(root, [*w.serve_design.cli_args(), "--framework", str(fw_path)],
                           work, f"flow{k}")
    try:
        return server.start()
    finally:
        server.stop()


def _layer_probe(w: FlowWorkload, flow, seed: int, fw_path: Path, tracer, log) -> Dict[str, float]:
    """Traced runs: the flow's layers, plus diagnosis and serving replayed
    in-process on the flow's Syn-1 design and model: the flow leaves both
    idle, but every workload reports every metric."""
    design = flow.designs[0]
    chips = build_pool(design, w.mode, w.probe_pool, seed, False, w.name)
    m = dict(flow.layer)
    m.update(phase_latencies(flow.single_chunk_ms, flow.multi_chunk_ms))
    m.update(probe_layers(design, w.mode, flow.framework, chips, 1, tracer, log))
    ms_per_chip, replay = serve_replay(design, design.config.name, w.mode, fw_path, chips)
    m.update(serve_layer_metrics([replay]))
    m["serve.core_ms_per_chip"] = ms_per_chip
    m.update({k: v for k, v in quality(replay.docs, chips).items() if k.startswith("core.")})
    return m


def run_train_flow(w: FlowWorkload, seed: int, seconds: float, traced: bool,
                   root: Path, work: Path, log) -> Tuple[Dict[str, float], int, int, Dict]:
    """One run of the design → model flow → (metrics, attempted, failed, info).

    The flow does a fixed amount of work whatever ``seconds`` says, so that
    its stage times compare from run to run.
    """
    spec = benchmark(w.benchmark, w.scale)
    kwargs = dict(n_chains=spec.n_chains, chains_per_channel=spec.chains_per_channel,
                  max_patterns=spec.max_patterns)
    points = [(spec.generator, cfg, kwargs) for cfg in augmentation_configs(w.n_random)]
    tracer = SpanTracer()
    flow = run_flow(
        points,
        FlowSettings(mode=w.mode, n_per_design=w.n_train,
                     dataset_seed=derive_seed(seed, w.name, "train"), epochs=w.epochs,
                     n_multi=w.n_multi, prepare_repeats=w.prepare_repeats,
                     passes=w.dataset_repeats, fits=w.fit_repeats),
        tracer, traced, log,
    )
    fw_path = work / "model.npz"
    save_framework(flow.framework, fw_path)
    setups = [serve_setup_s(w, root, work, fw_path, k) for k in range(w.setup_repeats)]
    log(f"serve setup {median(setups):.2f}s (median of {len(setups)})")
    n = flow.n_samples
    if traced:
        m = _layer_probe(w, flow, seed, fw_path, tracer, log)
    else:
        m = {
            "setup_s": median(setups),
            "sustained_rps": n / (min(flow.dataset_s) + min(flow.fit_s)),
            "offline_chips_per_s": n / min(flow.direct_s),
            "accuracy": flow.fit_stats[-1]["tier_train_accuracy"],
            "peak_rss_mb": peak_rss_mb(),
            "prepare_s": min(flow.prepare_s),
            "dataset_samples_per_s": n / min(flow.dataset_s),
            "fit_s": min(flow.fit_s),
        }
    digest = hashlib.sha256()
    for s in flow.sets:
        digest.update(sample_set_fingerprint(s).encode())
    info = {
        "design_gates": [d.nl.n_gates for d in flow.designs],
        "design_patterns": [d.patterns.n_patterns for d in flow.designs],
        "training_samples": n,
        "dataset_passes": len(flow.dataset_s),
        "fits": len(flow.fit_s),
        "inputs_digest": digest.hexdigest(),
        "spans": tracer.export() if traced else {},
    }
    attempted = (len(flow.single_chunk_ms) + len(flow.multi_chunk_ms)
                 + flow.n_chunks * len(flow.dataset_s) + len(flow.fit_s))
    return m, attempted, 0, info
