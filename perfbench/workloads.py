"""Workload definitions, their rationale, and the metric tables.

Every number that defines what a run measures lives here, frozen, so two
commits measured with the same benchmark code see the same load.  Each
workload records beside its definition why it exists: which layers it
stresses, and which it leaves idle so that a change to those shows no move.

Two end-to-end paths of the system are covered:

* *served diagnosis* — tester datalog → effect-cause ATPG report →
  back-trace → features → three GCN forwards → prune/reorder policy,
  through ``repro serve --http`` (``atpg-stream``, ``report-lots``);
* *design → model* — prepare (generate, partition, scan, TDF ATPG,
  good-sim, graph, DRC) → injected datasets → ``fit`` (``train-flow``).

The metric names are shared by all workloads; where a serving notion has no
direct counterpart on ``train-flow`` the table below says what it measures
there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple, Union

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "FlowWorkload",
    "ServedDesign",
    "ServingWorkload",
    "WORKLOADS",
    "smoke_variant",
]


@dataclass(frozen=True)
class ServedDesign:
    """The design ``repro serve --gates G --seed S`` prepares.

    :meth:`spec` and :data:`PREPARE_KWARGS` mirror the CLI's recipe, so the
    benchmark's in-process copy (chips, reports, offline reference) is the
    same design the server holds.
    """

    # At 500 gates effect-cause ATPG is still ~90% of the in-process
    # per-chip service time (p50 ~8 ms against ~0.9 ms of GCN forwards and
    # update); 950 gates would cut the request rates a run can hold to ⅓.
    gates: int = 500
    seed: int = 7
    config: str = "Syn-1"
    mode: str = "bypass"

    def spec(self):
        from repro.netlist import GeneratorSpec

        return GeneratorSpec(
            f"serve-{self.config.lower()}", "aes_like", self.gates,
            max(16, self.gates // 8), 16, 16, seed=self.seed,
        )

    def cli_args(self) -> List[str]:
        return [
            "--gates", str(self.gates), "--seed", str(self.seed),
            "--configs", self.config, "--mode", self.mode,
        ]


#: ``repro serve``'s fixed prepare knobs (see ``_cmd_serve``).
PREPARE_KWARGS = dict(n_chains=4, chains_per_channel=2, max_patterns=128)


@dataclass(frozen=True)
class ServingWorkload:
    """An open-loop HTTP workload against one ``repro serve`` subprocess.

    Attributes:
        lot_size: Chips per POST (1 = one JSON submission, >1 = a JSONL lot).
        attach_reports: Whether submissions carry the ATPG report.
        pool: ``(dataset kind, unique chips)`` making up the workload's
            fixed chip pool; each phase draws from it evenly.
        rates: Requests/s of the open-loop ``low`` and ``high`` phases.
        latency_limit_ms: A request of the closed-loop capacity phase that
            takes longer does not count toward ``sustained_rps``.
        offline_repeats: Timed in-process passes over the whole pool for
            ``offline_chips_per_s`` (best of them).
        min_requests: Requests of each open-loop phase (p90 needs ≥100).
    """

    name: str
    why: str
    lot_size: int
    attach_reports: bool
    pool: Tuple[Tuple[str, int], ...]
    rates: Tuple[float, float]
    latency_limit_ms: float
    offline_repeats: int
    design: ServedDesign = ServedDesign()
    train_samples: int = 120
    epochs: int = 20
    min_requests: int = 100
    connections: int = 2
    prepare_repeats: int = 5
    dataset_repeats: int = 9
    fit_repeats: int = 5
    setup_repeats: int = 3


@dataclass(frozen=True)
class FlowWorkload:
    """The offline design → dataset → model flow (``get_framework``'s).

    Attributes:
        serve_design: The design ``repro serve`` prepares when ``setup_s``
            puts the flow's model into service.
        probe_pool: Traced runs only: the chips the diagnosis and serving
            layers are replayed on, on the flow's Syn-1 design and model.
    """

    name: str
    why: str
    benchmark: str = "AES"
    scale: str = "default"
    n_random: int = 2
    n_train: int = 160
    n_multi: int = 96
    epochs: int = 40
    mode: str = "bypass"
    setup_repeats: int = 3
    prepare_repeats: int = 2
    dataset_repeats: int = 4
    fit_repeats: int = 3
    serve_design: ServedDesign = ServedDesign()
    probe_pool: Tuple[Tuple[str, int], ...] = (("single", 16), ("miv", 8), ("multi", 8))


Workload = Union[ServingWorkload, FlowWorkload]

# Rates are frozen from a rate sweep on two keep-alive connections at the
# parent commit (2-core AMD EPYC host).  Closed-loop capacity is ≈27 chips/s
# on atpg-stream and ≈26 lots/s (16-chip lots) on report-lots.  The server
# delays a response ~40 ms (Nagle vs. delayed ACK) whenever the client sends
# the next request soon after the last reply, so the share of stalled
# requests climbs with the rate: ≈7% at 5/s, ≈30% at 12.5/s, ≈60% at 20/s.
# Where that share nears 50% (≈⅔ of capacity) p50 flips between the two
# modes from run to run; where it nears 10%, p90 does.  So ``low`` sits at
# ≈0.3 and ``high`` at ≈0.4 of capacity, where the stalled share is ≈15%
# and ≈25-30%, and every percentile reported sits inside one mode.  In the
# closed-loop capacity phase nearly every request stalls (≈30 chips/s and
# ≈460 chips/s at the parent commit, with single-threaded BLAS), so an HTTP
# fix moves sustained_rps most, and a faster ATPG or forward by its share
# of the ≈55-70 ms per request.
WORKLOADS: Dict[str, Workload] = {
    # The paper's per-chip deployment (Fig. 9): the server computes the
    # effect-cause report.  ``diagnosis`` does ~90% of the in-process
    # service time; ``nn``/``serve``/``http`` little.  The batcher sees
    # batches of 1-2.  Bit-parallel effect-cause scoring must show here.
    # Multi-fault chips cost ~2x in ATPG and set the p90.
    "atpg-stream": ServingWorkload(
        name="atpg-stream",
        why="single-chip datalogs, no report attached: the server runs "
            "effect-cause ATPG per chip, so diagnosis dominates",
        lot_size=1,
        attach_reports=False,
        pool=(("single", 80), ("miv", 24), ("multi", 24)),
        rates=(8.0, 11.0),
        latency_limit_ms=300.0,
        offline_repeats=2,
    ),
    # The commercial-tool flow: every lot arrives with its reports, so
    # ``diagnosis`` does zero work and tester parse, back-trace/features,
    # the three batched forwards, the batcher (real batches of lot size)
    # and HTTP do all of it.  A fused forward or an HTTP fix shows here
    # and must not move atpg-stream.
    "report-lots": ServingWorkload(
        name="report-lots",
        why="16-chip JSONL lots with the ATPG report attached: no "
            "effect-cause; parse, back-trace, batched GCN forwards and HTTP "
            "do the work",
        lot_size=16,
        attach_reports=True,
        pool=(("single", 80), ("miv", 24), ("multi", 24)),
        rates=(8.0, 11.0),
        latency_limit_ms=300.0,
        offline_repeats=15,
    ),
    # Offline, no server: datagen (TDF ATPG dominates prepare), the
    # injection campaigns (full-pattern FaultMachine use, unlike the subset
    # scoring of atpg-stream), the dataset runtime and nn training.
    # Effect-cause and serving do no work on the measured path.
    "train-flow": FlowWorkload(
        name="train-flow",
        why="default-suite AES Syn-1 + 2 random partitions: prepare, "
            "injected training sets through DatasetRuntime, fit; no "
            "diagnosis or serving",
    ),
}


def smoke_variant(w: Workload) -> Workload:
    """A seconds-sized copy of a workload, for the smoke test."""
    if isinstance(w, ServingWorkload):
        return replace(
            w, design=replace(w.design, gates=120),
            pool=tuple((kind, 3) for kind, _ in w.pool),
            min_requests=6, train_samples=32, epochs=2,
            prepare_repeats=1, dataset_repeats=2, fit_repeats=1, setup_repeats=1,
            offline_repeats=1,
        )
    return replace(w, scale="tiny", n_random=1, n_train=32, n_multi=16,
                   epochs=2, setup_repeats=1, prepare_repeats=1, dataset_repeats=2,
                   fit_repeats=1, serve_design=replace(w.serve_design, gates=120),
                   probe_pool=tuple((kind, 3) for kind, _ in w.probe_pool))


# ------------------------------------------------------------------ metrics
#: (name, unit, better, bound).  Every workload reports every metric.
#: setup_s is ``repro serve --framework`` spawn to its ``listening on``
#: line (prepare, model load, warm-up), median of several spawns; on
#: train-flow the model is the flow's own.  sustained_rps is the goodput
#: of the closed-loop capacity phase over the two connections: chips/s
#: whose request met the latency limit.  On the serving workloads
#: prepare_s, dataset_samples_per_s and fit_s time the served model's own
#: flow on the served design.  On train-flow, which serves nothing:
#: sustained_rps is training chips per second of dataset build + fit;
#: offline_chips_per_s is direct build_dataset_chunk calls without the
#: runtime; accuracy is the Tier-predictor's training accuracy.  That one
#: moves with the seeded training sets (inter-quartile spread ≈0.08 over
#: five seeds), hence accuracy's 0.25 bound; on the serving workloads the
#: corpus and model are fixed, so there it repeats exactly and any change
#: shows.
#:
#: The per-rate latency percentiles are per-layer metrics, not end-to-end
#: ones: over ten seeds on a shared 2-vCPU host their inter-quartile spread
#: was 0.25-0.43 of the median on both serving workloads (the served ATPG
#: time of a whole run drifts ±30% with the host's load), above the 0.25
#: bound any end-to-end metric may have.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("sustained_rps", "1/s", "higher", 0.25),
    ("offline_chips_per_s", "1/s", "higher", 0.25),
    ("accuracy", "ratio", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("prepare_s", "s", "lower", 0.25),
    ("dataset_samples_per_s", "1/s", "higher", 0.25),
    ("fit_s", "s", "lower", 0.25),
]

#: (name, unit, better).  Each is measured on every workload's own inputs;
#: the layer, and the end-to-end metric it should move, is in the comment.
PER_LAYER: List[Tuple[str, str, str]] = [
    # loadgen: latency from each request's due time to its full response,
    # per chip (atpg-stream) or per lot (report-lots); on train-flow, per
    # 16-chip dataset chunk, single-fault (low) and multi-fault (high)
    ("latency_p50_ms.low", "ms", "lower"),
    ("latency_p90_ms.low", "ms", "lower"),
    ("latency_p50_ms.high", "ms", "lower"),
    ("latency_p90_ms.high", "ms", "lower"),
    # tester: parse → report-lots latency; injection → dataset_samples_per_s
    ("tester.parse_ms", "ms", "lower"),
    ("tester.inject_ms_per_sample", "ms", "lower"),
    ("tester.inject_yield", "ratio", "higher"),
    # diagnosis (effect-cause) → atpg-stream latency, sustained_rps, offline
    ("diagnosis.atpg_ms.p50", "ms", "lower"),
    ("diagnosis.atpg_ms.p90", "ms", "lower"),
    ("diagnosis.suspect_ms", "ms", "lower"),
    ("diagnosis.suspects_per_chip", "count", "lower"),
    ("diagnosis.candidates_per_report", "count", "lower"),
    ("diagnosis.cold_over_warm", "ratio", "lower"),
    # core → report-lots latency; policy counts move with accuracy
    ("core.backtrace_ms", "ms", "lower"),
    ("core.backtrace_nodes", "count", "lower"),
    ("core.subgraph_ms", "ms", "lower"),
    ("core.subgraph_nodes", "count", "lower"),
    ("core.update_ms_per_chip", "ms", "lower"),
    ("core.policy.prune_frac", "ratio", "higher"),
    ("core.policy.mean_resolution", "count", "lower"),
    ("core.policy.mean_fhi", "count", "lower"),
    # nn forwards at the served batch size → report-lots latency;
    # fit stages → train-flow fit_s; b1/b16/b64 re-measure the batch anomaly
    ("nn.tier_forward_ms_per_graph", "ms", "lower"),
    ("nn.miv_forward_ms_per_graph", "ms", "lower"),
    ("nn.classifier_forward_ms_per_graph", "ms", "lower"),
    ("nn.fit_tier_s", "s", "lower"),
    ("nn.fit_miv_s", "s", "lower"),
    ("nn.fit_threshold_s", "s", "lower"),
    ("nn.fit_classifier_s", "s", "lower"),
    ("nn.forward_ms_per_graph.b1", "ms", "lower"),
    ("nn.forward_ms_per_graph.b16", "ms", "lower"),
    ("nn.forward_ms_per_graph.b64", "ms", "lower"),
    ("nn.forward_spread.b1", "ratio", "lower"),
    ("nn.forward_spread.b16", "ratio", "lower"),
    ("nn.forward_spread.b64", "ratio", "lower"),
    ("nn.forward_b64_over_b16", "ratio", "lower"),
    # serve (response provenance + in-process replay) → serving latency.
    # On train-flow, which serves nothing, serve.*, http.* and loadgen.*
    # come from the in-process replay (RequestBatcher + DiagnosisService,
    # no HTTP) on the probe chips: http.overhead_ms is submit-to-result
    # minus queue+atpg+infer, loadgen.late_ms_p90 the submit call, and
    # loadgen.inflight_max the chips submitted at once.
    ("serve.queue_wait_ms.p50", "ms", "lower"),
    ("serve.queue_wait_ms.p90", "ms", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.atpg_ms_per_batch", "ms", "lower"),
    ("serve.infer_ms_per_batch", "ms", "lower"),
    ("serve.core_ms_per_chip", "ms", "lower"),
    ("serve.rejected_frac", "ratio", "lower"),
    # http: client latency minus server queue+atpg+infer → serving latency
    ("http.overhead_ms", "ms", "lower"),
    # loadgen: did the open loop hold its schedule?
    ("loadgen.late_ms_p90", "ms", "lower"),
    ("loadgen.inflight_max", "count", "lower"),
    # data: prepare sub-stages → prepare_s / setup_s; chunks → dataset rate
    ("datagen.generate_s", "s", "lower"),
    ("datagen.partition_s", "s", "lower"),
    ("datagen.scan_s", "s", "lower"),
    ("datagen.atpg_s", "s", "lower"),
    ("datagen.goodsim_s", "s", "lower"),
    ("datagen.graph_s", "s", "lower"),
    ("datagen.drc_s", "s", "lower"),
    ("datagen.patterns", "count", "lower"),
    ("datagen.fault_coverage", "ratio", "higher"),
    ("data.chunk_ms", "ms", "lower"),
    # runtime → dataset_samples_per_s
    ("runtime.serial_overhead_ms_per_unit", "ms", "lower"),
    ("runtime.pool2_speedup", "ratio", "higher"),
    # obs
    ("trace.overhead_frac", "ratio", "lower"),
    # paper Fig. 9 / Table IX (45-190x)
    ("fig9.period_ms", "ms", "lower"),
    ("fig9.atpg_over_gnn", "ratio", "lower"),
]
