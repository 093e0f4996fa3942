"""The design → dataset → model flow, timed stage by stage.

Every workload runs it: ``train-flow`` on the default-suite augmentation
matrix (that *is* the workload), the serving workloads on the served
design to train the model the server loads.  Stages go through the
library's public entry points (``DatasetRuntime``, ``build_dataset_chunk``,
``M3DDiagnosisFramework.fit``), and the run's :class:`SpanTracer` is handed
to the runtime and to ``fit`` so their own spans nest under the
benchmark's.  Every stage runs a fixed number of times, so two runs do
the same work whatever the host's load, and its time is the best of them:
the work is identical, and a shared host only ever adds time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import M3DDiagnosisFramework
from repro.data import DesignConfig
from repro.data.datasets import SampleSet, build_dataset_chunk, chunk_seed
from repro.m3d.defects import DefectSampler
from repro.obs import SpanTracer
from repro.runtime import (
    DEFAULT_CHUNK_SIZE,
    DatasetRequest,
    DatasetRuntime,
    chunk_plan,
    sample_set_fingerprint,
)
from repro.tester.injection import InjectionCampaign

from benchstats import median

__all__ = ["FlowResult", "FlowSettings", "run_flow"]

MIV_FRACTION = 0.15


class CheckFailed(RuntimeError):
    """A correctness gate of the benchmark did not hold."""


@dataclass(frozen=True)
class FlowSettings:
    mode: str
    n_per_design: int
    dataset_seed: int
    epochs: int
    n_multi: int = 0
    prepare_repeats: int = 1
    #: Dataset passes (runtime build + direct build each); at least 2, so
    #: the fingerprints are compared across repeats.
    passes: int = 2
    fits: int = 1


@dataclass
class FlowResult:
    designs: List = field(default_factory=list)
    sets: List[SampleSet] = field(default_factory=list)
    framework: Optional[M3DDiagnosisFramework] = None
    fit_stats: List[Dict[str, float]] = field(default_factory=list)
    prepare_s: List[float] = field(default_factory=list)
    dataset_s: List[float] = field(default_factory=list)
    direct_s: List[float] = field(default_factory=list)
    fit_s: List[float] = field(default_factory=list)
    #: Per-chunk wall of direct ``build_dataset_chunk`` calls.
    single_chunk_ms: List[float] = field(default_factory=list)
    multi_chunk_ms: List[float] = field(default_factory=list)
    n_chunks: int = 0
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return sum(len(s) for s in self.sets)


def _request(settings: FlowSettings, i: int) -> DatasetRequest:
    # build_training_sets' convention: design i uses master seed + i.
    return DatasetRequest(settings.mode, settings.n_per_design,
                          settings.dataset_seed + i, "single", MIV_FRACTION)


def _fingerprints(sets: Sequence[SampleSet]) -> List[str]:
    return [sample_set_fingerprint(s) for s in sets]


def _direct_build(designs, result: FlowResult, s: FlowSettings, tracer):
    """The training sets from direct chunk calls (no runtime)."""
    sets = []
    for i, design in enumerate(designs):
        req = _request(s, i)
        items = []
        for chunk_index, chunk_n in chunk_plan(req.n_samples, DEFAULT_CHUNK_SIZE):
            t0 = time.perf_counter()
            with tracer.span("chunk"):
                chunk = build_dataset_chunk(design, req.mode, chunk_index, chunk_n,
                                            req.seed, req.kind, req.miv_fraction)
            result.single_chunk_ms.append((time.perf_counter() - t0) * 1e3)
            items.extend(chunk)
        sets.append(SampleSet(design=design, mode=req.mode, items=items))
    return sets


def _multi_build(designs, result: FlowResult, s: FlowSettings, tracer) -> None:
    for i, design in enumerate(designs):
        for chunk_index, chunk_n in chunk_plan(s.n_multi, DEFAULT_CHUNK_SIZE):
            t0 = time.perf_counter()
            with tracer.span("chunk"):
                build_dataset_chunk(design, s.mode, chunk_index, chunk_n,
                                    s.dataset_seed + 500 + i, "multi")
            result.multi_chunk_ms.append((time.perf_counter() - t0) * 1e3)


class _CountingSampler(DefectSampler):
    """A defect sampler that counts injections (draws) it hands out."""

    draws = 0

    def sample_single(self, miv_fraction: float = 0.0):
        self.draws += 1
        return super().sample_single(miv_fraction)


def _injection_probe(designs, s: FlowSettings, sets, tracer) -> Dict[str, float]:
    """tester.inject_*: the injection campaign alone, per training chunk."""
    inject_s = 0.0
    draws = 0
    failing = 0
    for i, design in enumerate(designs):
        req = _request(s, i)
        obsmap = design.obsmap(req.mode)
        for chunk_index, chunk_n in chunk_plan(req.n_samples, DEFAULT_CHUNK_SIZE):
            sampler = _CountingSampler(
                design.nl, design.mivs,
                seed=chunk_seed(design, req.mode, req.kind, req.seed, chunk_index),
            )
            campaign = InjectionCampaign(design.machine, design.good, obsmap, sampler)
            t0 = time.perf_counter()
            with tracer.span("inject"):
                raw = campaign.single_fault_samples(chunk_n, miv_fraction=req.miv_fraction)
            inject_s += time.perf_counter() - t0
            draws += sampler.draws
            failing += len(raw)
    kept = sum(len(x) for x in sets)
    return {
        "tester.inject_ms_per_sample": inject_s * 1e3 / max(1, failing),
        "tester.inject_yield": kept / max(1, draws),
    }


def _span_sum(spans: Dict[str, dict], suffix: str) -> Tuple[float, int]:
    seconds, calls = 0.0, 0
    for path, rec in spans.items():
        if path == suffix or path.endswith("." + suffix):
            seconds += float(rec["seconds"])
            calls += int(rec["calls"])
    return seconds, calls


def run_flow(
    points: Sequence[Tuple[object, DesignConfig, Dict[str, object]]],
    s: FlowSettings,
    tracer: SpanTracer,
    traced: bool,
    log=print,
) -> FlowResult:
    """Prepare ``points``, build their training sets, fit one framework.

    Raises :class:`CheckFailed` when the runtime's sets differ from the
    direct chunk builds or from an earlier pass (fingerprints), or when a
    repeated fit does not reproduce the first.
    """
    out = FlowResult()

    def prepare():
        rt = DatasetRuntime(workers=1, tracer=tracer)
        t0 = time.perf_counter()
        with tracer.span("prepare"):
            designs = rt.prepare_many(points)
        out.prepare_s.append(time.perf_counter() - t0)
        return designs

    def dataset_pass() -> List[str]:
        rt = DatasetRuntime(workers=1, tracer=tracer)
        orders = [(d, _request(s, i)) for i, d in enumerate(out.designs)]
        t0 = time.perf_counter()
        with tracer.span("dataset"):
            out.sets = rt.build_datasets(orders)
        out.dataset_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        with tracer.span("direct"):
            direct = _direct_build(out.designs, out, s, tracer)
        out.direct_s.append(time.perf_counter() - t0)
        if s.n_multi:
            with tracer.span("multi"):
                _multi_build(out.designs, out, s, tracer)
        prints = _fingerprints(out.sets)
        if prints != _fingerprints(direct):
            raise CheckFailed("DatasetRuntime sets differ from direct chunk builds")
        return prints

    def fit() -> Tuple[float, float]:
        fw = M3DDiagnosisFramework(epochs=s.epochs, seed=0)
        t0 = time.perf_counter()
        with tracer.span("fit"):
            stats = fw.fit(out.sets, tracer=tracer)
        out.fit_s.append(time.perf_counter() - t0)
        out.fit_stats.append(stats)
        out.framework = fw
        return stats["tp_threshold"], stats["tier_train_accuracy"]

    with tracer.span("flow"):
        out.designs = prepare()
        # Repeats alternate (pass, fit, pass, fit, ...; then the remaining
        # prepares), so a slow spell of a shared host lands on a minority
        # of each stage's samples instead of on all of them.
        prints: List[List[str]] = []
        models: List[Tuple[float, float]] = []
        for k in range(max(s.passes, s.fits)):
            if k < s.passes:
                prints.append(dataset_pass())
            if k < s.fits:
                models.append(fit())
        for _ in range(s.prepare_repeats - 1):
            prepare()
        if any(p != prints[0] for p in prints):
            raise CheckFailed("dataset fingerprints differ across repeats")
        if any(m != models[0] for m in models):
            raise CheckFailed("a repeated fit on the same sets gave another model")
        out.n_chunks = sum(
            len(chunk_plan(s.n_per_design, DEFAULT_CHUNK_SIZE)) for _ in out.designs
        )
        log(f"{len(points)} design point(s): prepare {min(out.prepare_s):.2f}s "
            f"x{s.prepare_repeats}; {out.n_samples} training samples, runtime "
            f"{min(out.dataset_s):.2f}s / direct {min(out.direct_s):.2f}s "
            f"x{s.passes}; fit {min(out.fit_s):.2f}s x{s.fits}")

        if traced:
            out.layer.update(_layer_metrics(out, s, tracer))
    return out


def _layer_metrics(out: FlowResult, s: FlowSettings, tracer: SpanTracer) -> Dict[str, float]:
    """Per-layer numbers of the flow (traced runs only)."""
    from repro.runtime.pool import shutdown_pools

    m: Dict[str, float] = {}
    with tracer.span("probe"):
        m.update(_injection_probe(out.designs, s, out.sets, tracer))
        rt2 = DatasetRuntime(workers=2, tracer=tracer)
        orders = [(d, _request(s, i)) for i, d in enumerate(out.designs)]
        try:
            t0 = time.perf_counter()
            with tracer.span("pool2"):
                pooled = rt2.build_datasets(orders)
            pool_s = time.perf_counter() - t0
        finally:
            shutdown_pools()
        if _fingerprints(pooled) != _fingerprints(out.sets):
            raise CheckFailed("workers=2 sets differ from the serial build")
    m["runtime.pool2_speedup"] = min(out.dataset_s) / pool_s
    m["runtime.serial_overhead_ms_per_unit"] = (
        (min(out.dataset_s) - min(out.direct_s)) * 1e3 / max(1, out.n_chunks)
    )
    spans = tracer.export()
    chunk_s, chunk_calls = _span_sum(
        {p: r for p, r in spans.items() if p.startswith("flow.dataset.")}, "chunk")
    m["data.chunk_ms"] = chunk_s * 1e3 / max(1, chunk_calls)
    for stage in ("generate", "partition", "scan", "atpg", "goodsim", "graph", "drc"):
        seconds, _ = _span_sum(spans, f"design.{stage}")
        m[f"datagen.{stage}_s"] = seconds / max(1, s.prepare_repeats)
    m["datagen.patterns"] = median([d.patterns.n_patterns for d in out.designs])
    m["datagen.fault_coverage"] = median([d.atpg.fault_coverage for d in out.designs])
    for stage in ("tier", "miv", "threshold", "classifier"):
        m[f"nn.fit_{stage}_s"] = median(
            [st.get(f"fit_{stage}_s", 0.0) for st in out.fit_stats])
    return m
