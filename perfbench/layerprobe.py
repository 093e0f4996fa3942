"""Per-layer numbers from the benchmark's own calls into each layer.

The traced run replays the offline diagnosis path on a workload's chips —
``tester`` parse → ``diagnosis`` effect-cause (when the workload has no
attached report) → ``core`` back-trace and sub-graph → ``core.policy``
prune/reorder with its three ``nn`` forwards — with a
:class:`repro.obs.SpanTracer` span around every call, and probes the
layers a workload leaves idle on the same chips, so every workload reports
every layer.  The same replay without spans gives the tracing overhead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.backtrace import backtrace
from repro.diagnosis import EffectCauseDiagnoser
from repro.diagnosis.report import DiagnosisReport
from repro.obs import SpanTracer
from repro.tester.datalog import loads_datalog

from benchstats import median, percentile, spread

__all__ = ["Chip", "probe_layers"]

#: Paper Table IX: ATPG diagnosis costs 45-190x the GNN inference.
PAPER_ATPG_OVER_GNN = (45.0, 190.0)
ANOMALY_BATCHES = (1, 16, 64)
ANOMALY_REPEATS = 9


@dataclass
class Chip:
    """One failing chip of a workload's pool."""

    name: str
    kind: str
    faults: tuple
    text: str
    #: The ATPG report the chip is submitted with (None: server computes).
    report: Optional[DiagnosisReport] = None


def _ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1e3


def _batches(items: Sequence, size: int) -> List[Sequence]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def new_diagnoser(design, mode: str) -> EffectCauseDiagnoser:
    return EffectCauseDiagnoser(design.nl, design.obsmap(mode), design.patterns,
                                mivs=design.mivs, sim=design.sim)


def _replay(design, mode, fw, chips, batch, diag, tracer: Optional[SpanTracer],
            rec: Optional[Dict[str, List[float]]]) -> float:
    """The offline path over ``chips``; with a tracer, layer by layer."""
    obsmap = design.obsmap(mode)
    t_all = time.perf_counter()
    for group in _batches(chips, batch):
        if tracer is None:
            logs = [loads_datalog(c.text, obsmap)[1] for c in group]
            reports = [c.report if c.report is not None else diag.diagnose(log)
                       for c, log in zip(group, logs)]
            fw.diagnose_batch(design, mode, logs, reports)
            continue
        reports, graphs = [], []
        for c in group:
            t0 = time.perf_counter()
            with tracer.span("tester.parse"):
                _, log = loads_datalog(c.text, obsmap)
            rec["parse"].append(_ms(t0))
            if c.report is None:
                t0 = time.perf_counter()
                with tracer.span("diagnosis.atpg"):
                    report = diag.diagnose(log)
                rec["atpg"].append(_ms(t0))
            else:
                report = c.report
            t0 = time.perf_counter()
            with tracer.span("core.backtrace"):
                mask = backtrace(design.het, obsmap, log)
            rec["backtrace"].append(_ms(t0))
            rec["backtrace_nodes"].append(float(mask.sum()))
            if mask.any():
                t0 = time.perf_counter()
                with tracer.span("core.subgraph"):
                    graph = design.extractor.subgraph(mask)
                rec["subgraph"].append(_ms(t0))
                rec["subgraph_nodes"].append(float(graph.n_nodes))
                reports.append(report)
                graphs.append(graph)
        if graphs:
            t0 = time.perf_counter()
            with tracer.span("core.policy"):
                fw.policy_for(design).apply_batch(reports, graphs)
            rec["apply"].append(_ms(t0))
            rec["apply_graphs"].append(float(len(graphs)))
            rec["graph_batches"].append(graphs)
    return time.perf_counter() - t_all


def _forwards(fw, graph_batches, tracer: SpanTracer) -> Dict[str, float]:
    """Per-graph ms of each model's forward, at the replayed batch sizes."""
    tot = {"tier": 0.0, "miv": 0.0, "classifier": 0.0}
    n = {"tier": 0, "miv": 0, "classifier": 0}
    for graphs in graph_batches:
        t0 = time.perf_counter()
        with tracer.span("nn.miv"):
            fw.miv_pinpointer.predict_faulty_mivs_batch(graphs)
        tot["miv"] += _ms(t0)
        n["miv"] += len(graphs)
        t0 = time.perf_counter()
        with tracer.span("nn.tier"):
            proba = fw.tier_predictor.predict_proba(graphs)
        tot["tier"] += _ms(t0)
        n["tier"] += len(graphs)
        confident = [g for g, p in zip(graphs, proba.max(axis=1)) if p > fw.tp_threshold]
        if confident and fw.classifier is not None:
            t0 = time.perf_counter()
            with tracer.span("nn.classifier"):
                fw.classifier.should_prune_batch(confident)
            tot["classifier"] += _ms(t0)
            n["classifier"] += len(confident)
    return {k: tot[k] / max(1, n[k]) for k in tot}


def _batch_anomaly(fw, graphs, tracer: SpanTracer) -> Dict[str, float]:
    """Tier-predictor forward per graph at b1/b16/b64, repeated."""
    pool = [graphs[i % len(graphs)] for i in range(64)]
    out: Dict[str, float] = {}
    per: Dict[int, List[float]] = {}
    for b in ANOMALY_BATCHES:
        per[b] = []
        for _ in range(ANOMALY_REPEATS):
            t0 = time.perf_counter()
            with tracer.span(f"nn.anomaly.b{b}"):
                for group in _batches(pool, b):
                    fw.tier_predictor.predict_proba(group)
            per[b].append(_ms(t0) / len(pool))
        out[f"nn.forward_ms_per_graph.b{b}"] = median(per[b])
        out[f"nn.forward_spread.b{b}"] = spread(per[b])
    out["nn.forward_b64_over_b16"] = (
        out["nn.forward_ms_per_graph.b64"] / out["nn.forward_ms_per_graph.b16"])
    return out


def probe_layers(design, mode: str, fw, chips: Sequence[Chip], batch: int,
                 tracer: SpanTracer, log=print) -> Dict[str, float]:
    """Every in-process per-layer metric on ``chips`` at ``batch``.

    When the chips carry reports (the workload's path has no effect-cause),
    the ``diagnosis.*`` numbers come from a separate probe that computes
    the reports anyway: the cost the path avoids.
    """
    m: Dict[str, float] = {}
    with tracer.span("layers"):
        # diagnosis: cold cone cache, then warm; suspects and report sizes.
        obsmap = design.obsmap(mode)
        logs = [loads_datalog(c.text, obsmap)[1] for c in chips]
        diag = new_diagnoser(design, mode)
        t0 = time.perf_counter()
        with tracer.span("diagnosis.cold"):
            for lg in logs:
                diag.diagnose(lg)
        cold = time.perf_counter() - t0
        atpg_ms, suspect_ms, suspects, cands = [], [], [], []
        for c, lg in zip(chips, logs):
            t0 = time.perf_counter()
            with tracer.span("diagnosis.suspects"):
                sus = diag.suspect_nets(lg)
            suspect_ms.append(_ms(t0))
            suspects.append(len(sus))
            t0 = time.perf_counter()
            with tracer.span("diagnosis.warm"):
                report = diag.diagnose(lg)
            atpg_ms.append(_ms(t0))
            cands.append(len((c.report if c.report is not None else report).candidates))
        m["diagnosis.cold_over_warm"] = cold / (sum(atpg_ms) / 1e3)
        m["diagnosis.atpg_ms.p50"] = median(atpg_ms)
        m["diagnosis.atpg_ms.p90"] = percentile(atpg_ms, 90)
        m["diagnosis.suspect_ms"] = median(suspect_ms)
        m["diagnosis.suspects_per_chip"] = float(np.mean(suspects))
        m["diagnosis.candidates_per_report"] = float(np.mean(cands))

        # The workload's own offline path, without and with layer spans.
        untraced = _replay(design, mode, fw, chips, batch, diag, None, None)
        rec: Dict[str, list] = {k: [] for k in (
            "parse", "atpg", "backtrace", "backtrace_nodes", "subgraph",
            "subgraph_nodes", "apply", "apply_graphs", "graph_batches")}
        with tracer.span("replay"):
            traced = _replay(design, mode, fw, chips, batch, diag, tracer, rec)
        m["trace.overhead_frac"] = traced / untraced - 1.0
        m["tester.parse_ms"] = median(rec["parse"])
        m["core.backtrace_ms"] = median(rec["backtrace"])
        m["core.backtrace_nodes"] = median(rec["backtrace_nodes"])
        m["core.subgraph_ms"] = median(rec["subgraph"])
        m["core.subgraph_nodes"] = median(rec["subgraph_nodes"])

        fwd = _forwards(fw, rec["graph_batches"], tracer)
        for model, ms in fwd.items():
            m[f"nn.{model}_forward_ms_per_graph"] = ms
        forward_ms = sum(
            fwd["miv"] * g + fwd["tier"] * g + fwd["classifier"] * g
            for g in rec["apply_graphs"])
        n_graphs = sum(rec["apply_graphs"])
        m["core.update_ms_per_chip"] = (sum(rec["apply"]) - forward_ms) / n_graphs
        all_graphs = [g for gs in rec["graph_batches"] for g in gs]
        m.update(_batch_anomaly(fw, all_graphs, tracer))

    t_atpg = m["diagnosis.atpg_ms.p50"]
    t_gnn = fwd["miv"] + fwd["tier"] + fwd["classifier"]
    m["fig9.period_ms"] = max(t_atpg, t_gnn) + m["core.update_ms_per_chip"]
    m["fig9.atpg_over_gnn"] = t_atpg / t_gnn
    lo, hi = PAPER_ATPG_OVER_GNN
    log(f"fig9: T_ATPG {t_atpg:.2f}ms  T_GNN {t_gnn:.3f}ms  "
        f"T_update {m['core.update_ms_per_chip']:.3f}ms  "
        f"period {m['fig9.period_ms']:.2f}ms  ATPG/GNN {m['fig9.atpg_over_gnn']:.1f}x "
        f"(paper Table IX: {lo:.0f}-{hi:.0f}x)")
    b16 = m["nn.forward_ms_per_graph.b16"]
    b64 = m["nn.forward_ms_per_graph.b64"]
    log(f"gnn batch: b1 {m['nn.forward_ms_per_graph.b1']:.4f}  b16 {b16:.4f}  "
        f"b64 {b64:.4f} ms/graph (spreads {m['nn.forward_spread.b1']:.2f}/"
        f"{m['nn.forward_spread.b16']:.2f}/{m['nn.forward_spread.b64']:.2f}); "
        f"b64 {'slower' if b64 > b16 else 'not slower'} than b16")
    return m
