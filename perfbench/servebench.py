"""The serving workloads: keep-alive HTTP load on ``repro serve``.

One run: train the served model through the design → model flow and save
it; build the fixed chip pool and the seeded request plan; compute the
offline reference; spawn ``repro serve --http`` (several times, for
``setup_s``); warm it up with every pool chip once; then drive the
closed-loop ``cap`` (capacity) phase in the untraced run, or the open-loop
``low`` and ``high`` phases in the traced one, from one process over at
most two keep-alive HTTP/1.1 connections, one thread each.  Every response
is checked against the offline ``diagnose_batch`` result for the same chip
and model.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.io import save_framework
from repro.data import DesignConfig, build_dataset
from repro.diagnosis.report import DiagnosisReport, first_hit_index, report_is_accurate
from repro.obs import SpanTracer
from repro.runtime import derive_seed
from repro.serve import (
    DesignContext,
    DiagnosisService,
    ModelRegistry,
    RequestBatcher,
    candidate_from_json,
    candidate_to_json,
    canonical_response,
    dumps_response,
    result_response,
)
from repro.tester.datalog import dumps_datalog, loads_datalog

from benchstats import median, peak_rss_mb, percentile
from flowstages import CheckFailed, FlowSettings, run_flow
from layerprobe import Chip, new_diagnoser, probe_layers
from workloads import PREPARE_KWARGS, ServingWorkload

__all__ = ["ServerProcess", "build_pool", "phase_latencies", "quality", "run_serving",
           "serve_layer_metrics", "serve_replay"]

SERVER_READY_TIMEOUT_S = 120.0


# ------------------------------------------------------------------ inputs
@dataclass
class Phase:
    """One stretch of requests: due offsets, bodies, and who is in each.

    An open-loop phase sends body ``i`` at ``offsets[i]``.  A closed-loop
    phase (``duration_s`` set) has each connection send its next request
    as soon as its last reply is in, cycling through the bodies, until
    ``duration_s`` has passed.
    """

    name: str
    rate: float
    offsets: List[float]
    bodies: List[bytes]
    #: Per body: (request id, pool index) of every chip it carries.
    members: List[List[Tuple[str, int]]]
    duration_s: Optional[float] = None


def build_pool(design, mode: str, pool: Sequence[Tuple[str, int]], seed: int,
               attach_reports: bool, tag: str) -> List[Chip]:
    """A pool of unique failing chips (and their reports), drawn from ``seed``."""
    obsmap = design.obsmap(mode)
    diag = new_diagnoser(design, mode) if attach_reports else None
    chips: List[Chip] = []
    for kind, n in pool:
        items = build_dataset(design, mode, n, seed=derive_seed(seed, tag, "pool", kind),
                              kind=kind).items
        for item in items:
            name = f"c{len(chips)}"
            report = None
            if diag is not None:
                # Through the wire format, exactly as the server will see it.
                report = DiagnosisReport(candidates=[
                    candidate_from_json(candidate_to_json(c))
                    for c in diag.diagnose(item.sample.log).candidates
                ])
            chips.append(Chip(name=name, kind=kind, faults=item.sample.faults,
                              text=dumps_datalog(item.sample.log, name, obsmap),
                              report=report))
    return chips


def _line_tails(chips: Sequence[Chip]) -> List[str]:
    """Each chip's submission JSON minus its leading ``{"id": ...,``."""
    tails = []
    for c in chips:
        doc: Dict[str, object] = {"datalog": c.text}
        if c.report is not None:
            doc["report"] = [candidate_to_json(x) for x in c.report.candidates]
        tails.append(json.dumps(doc, sort_keys=True)[1:])
    return tails


def _lots(seq: Sequence[int], lot_size: int) -> List[Sequence[int]]:
    return [seq[i:i + lot_size] for i in range(0, len(seq), lot_size)]


def _phase(name, rate, offsets, groups, tails, lot_size) -> Phase:
    bodies, members = [], []
    for i, group in enumerate(groups):
        mem = [(f"{name}{i}" + (f".{j}" if lot_size > 1 else ""), int(k))
               for j, k in enumerate(group)]
        lines = ['{"id": "%s", %s' % (rid, tails[k]) for rid, k in mem]
        bodies.append(("\n".join(lines) + "\n").encode())
        members.append(mem)
    return Phase(name, rate, list(offsets), bodies, members)


def poisson_offsets(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    """Due times of ``n`` Poisson arrivals at ``rate``, stratified.

    The ``n`` gaps are the exponential distribution's quantiles at
    ``(i + ½) / n`` in a seeded order: every seed gets the same gap
    histogram and only their order differs.  With a few hundred requests a
    phase, independent draws would let one seed's burstiness move p90 more
    than the change being measured.
    """
    gaps = -np.log1p(-(np.arange(n) + 0.5) / n) / rate
    return np.concatenate([[0.0], np.cumsum(rng.permutation(gaps))[:-1]])


def chip_sequence(rng: np.random.Generator, n_chips: int, n: int) -> np.ndarray:
    """``n`` pool indices: seeded permutations of the pool, back to back.

    Every chip (so every fault kind, in the pool's proportions) is drawn
    equally often, up to the last partial pass.
    """
    passes = -(-n // n_chips)
    return np.concatenate([rng.permutation(n_chips) for _ in range(passes)])[:n]


def plan_requests(w: ServingWorkload, chips: Sequence[Chip], seed: int,
                  seconds: float) -> Tuple[Phase, List[Phase], Phase]:
    """Warm-up (every pool chip once), the ``low``/``high`` phases, and ``cap``.

    ``low`` and ``high`` hold ``min_requests`` requests each, due on a
    stratified Poisson schedule (:func:`poisson_offsets`) at their rate and
    drawing chips evenly from the pool (:func:`chip_sequence`).  The
    closed-loop ``cap`` phase cycles one seeded pass over the pool for
    ``seconds``.
    """
    rng = np.random.default_rng(derive_seed(seed, w.name, "plan"))
    tails = _line_tails(chips)
    warm = _lots(list(range(len(chips))), w.lot_size)
    warmup = _phase("w", 0.0, [0.0] * len(warm), warm, tails, w.lot_size)
    phases = []
    for name, rate in zip(("low", "high"), w.rates):
        seq = chip_sequence(rng, len(chips), w.min_requests * w.lot_size)
        phases.append(_phase(name, rate, poisson_offsets(rng, w.min_requests, rate),
                             _lots(seq, w.lot_size), tails, w.lot_size))
    lots = _lots(chip_sequence(rng, len(chips), len(chips)), w.lot_size)
    cap = _phase("cap", 0.0, [0.0] * len(lots), lots, tails, w.lot_size)
    cap.duration_s = seconds
    return warmup, phases, cap


def inputs_digest(chips: Sequence[Chip], phases: Sequence[Phase]) -> str:
    h = hashlib.sha256()
    for c in chips:
        h.update(c.text.encode())
    for p in phases:
        h.update(repr([round(x, 9) for x in p.offsets]).encode())
        for body in p.bodies:
            h.update(body)
    return h.hexdigest()


# ----------------------------------------------------------------- offline
def _canon(doc: Dict[str, object]) -> Dict[str, object]:
    """A response minus volatile provenance and the request id."""
    out = canonical_response(doc)
    out.pop("id", None)
    return out


def _near(a, b) -> bool:
    """Equal documents, except that floats may differ by 1e-9 relative.

    ``canonical_float`` rounds scores to 12 significant digits, which hides
    the few-ulp differences between batch compositions only until a value
    sits on a rounding boundary; then the two sides round apart.  Both
    sides must still agree on everything else, and every float to 1e-9.
    """
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_near(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_near, a, b))
    return a == b


def same_result(served: Dict[str, object], reference: Dict[str, object]) -> bool:
    """The correctness gate: ``canonical_response``-equal, up to :func:`_near`."""
    canon = _canon(served)
    return dumps_response(canon) == dumps_response(reference) or _near(canon, reference)


def offline_reference(design, mode, fw, chips, provenance, batch,
                      diag=None) -> Dict[str, dict]:
    """Canonical offline ``diagnose_batch`` documents, by chip name."""
    obsmap = design.obsmap(mode)
    diag = diag or new_diagnoser(design, mode)
    ref: Dict[str, dict] = {}
    for i in range(0, len(chips), batch):
        group = chips[i:i + batch]
        parsed = [loads_datalog(c.text, obsmap) for c in group]
        reports = [c.report if c.report is not None else diag.diagnose(log)
                   for c, (_, log) in zip(group, parsed)]
        results = fw.diagnose_batch(design, mode, [log for _, log in parsed], reports,
                                    chip_ids=[cid for cid, _ in parsed])
        for c, (cid, _), res in zip(group, parsed, results):
            ref[c.name] = _canon(result_response(res, None, cid, provenance))
    return ref


def offline_rate(design, mode, fw, chips, batches, repeats, diag) -> float:
    """Chips/s of the in-process path over ``batches``, best of ``repeats``.

    loads_datalog → EffectCauseDiagnoser.diagnose (no attached report) →
    diagnose_batch, with ``diag`` already warm (:func:`offline_reference`
    filled its cone cache on the same chips).
    """
    obsmap = design.obsmap(mode)
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        n = 0
        for batch in batches:
            group = [chips[k] for k in batch]
            parsed = [loads_datalog(c.text, obsmap) for c in group]
            reports = [c.report if c.report is not None else diag.diagnose(log)
                       for c, (_, log) in zip(group, parsed)]
            fw.diagnose_batch(design, mode, [log for _, log in parsed], reports,
                              chip_ids=[cid for cid, _ in parsed])
            n += len(group)
        rates.append(n / (time.perf_counter() - t0))
    return max(rates)


# ------------------------------------------------------------------ server
class ServerProcess:
    """One ``repro serve --http`` subprocess; stdout/stderr go to files."""

    def __init__(self, root: Path, args: List[str], work: Path, tag: str) -> None:
        self.root = root
        self.args = args
        self.out_path = work / f"server-{tag}.out"
        self.err_path = work / f"server-{tag}.err"
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def start(self) -> float:
        """Spawn and wait for the ``listening on`` line; returns seconds."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(self.root / "src")
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--http", "127.0.0.1:0",
                 *self.args],
                stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=self.root, env=env,
            )
        with open(self.out_path, "rb") as fh:
            buf = b""
            while True:
                buf += fh.read()
                for line in buf.decode(errors="replace").splitlines():
                    if line.startswith("listening on http://") and buf.endswith(b"\n"):
                        setup = time.perf_counter() - t0
                        self.host, port = line.split("http://", 1)[1].rsplit(":", 1)
                        self.port = int(port)
                        return setup
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        "repro serve exited before listening:\n"
                        + self.err_path.read_text(errors="replace")[-2000:])
                if time.perf_counter() - t0 > SERVER_READY_TIMEOUT_S:
                    raise RuntimeError("repro serve did not start listening in time")
                time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=15)


# ------------------------------------------------------------------ client
@dataclass
class Outcome:
    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: Optional[str] = None


@dataclass
class PhaseRun:
    phase: Phase
    start: float
    outcomes: List[Outcome]


class Client:
    """Load generator over ``connections`` keep-alive HTTP/1.1 sockets.

    Each connection has its own thread (the caller's thread drives the
    first).  A free connection takes the next request: in an open-loop
    phase it waits for that request's due time, in a closed-loop phase it
    sends at once (the request is due when it is taken).  Response parsing
    happens after the phase, off the measured path.
    """

    def __init__(self, host: str, port: int, connections: int) -> None:
        self.conns = [http.client.HTTPConnection(host, port, timeout=120)
                      for _ in range(connections)]

    def close(self) -> None:
        for conn in self.conns:
            conn.close()

    def run(self, phase: Phase) -> PhaseRun:
        # This process holds the designs, datasets and reference documents;
        # a full collection over them would pause the send and receive
        # threads and add the pause to the measured latencies.
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            return self._run(phase)
        finally:
            gc.enable()
            gc.unfreeze()

    def _run(self, phase: Phase) -> PhaseRun:
        outcomes: List[Outcome] = []
        lock = threading.Lock()
        ctype = "application/json" if max(len(m) for m in phase.members) == 1 \
            else "application/x-ndjson"
        start = time.perf_counter() + 0.02

        def take() -> Optional[Outcome]:
            with lock:
                i = len(outcomes)
                if phase.duration_s is not None:
                    now = time.perf_counter()
                    if now - start >= phase.duration_s:
                        return None
                    o = Outcome(i, due=max(now, start))
                elif i < len(phase.bodies):
                    o = Outcome(i, due=start + phase.offsets[i])
                else:
                    return None
                outcomes.append(o)
                return o

        def drive(conn: http.client.HTTPConnection) -> None:
            while True:
                o = take()
                if o is None:
                    return
                wait = o.due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                o.sent = time.perf_counter()
                try:
                    conn.request("POST", "/diagnose",
                                 body=phase.bodies[o.index % len(phase.bodies)],
                                 headers={"Content-Type": ctype})
                    resp = conn.getresponse()
                    o.body = resp.read()
                    o.status = resp.status
                except (OSError, http.client.HTTPException) as exc:
                    o.error = f"{type(exc).__name__}: {exc}"
                    conn.close()
                o.done = time.perf_counter()

        threads = [threading.Thread(target=drive, args=(c,), name=f"perfbench-conn{k}")
                   for k, c in enumerate(self.conns[1:], 1)]
        for t in threads:
            t.start()
        drive(self.conns[0])
        for t in threads:
            t.join()
        return PhaseRun(phase, start, outcomes)


# ---------------------------------------------------------------- analysis
@dataclass
class PhaseStats:
    latency_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    overhead_ms: List[float] = field(default_factory=list)
    queue_ms: List[float] = field(default_factory=list)
    atpg_ms: List[float] = field(default_factory=list)
    infer_ms: List[float] = field(default_factory=list)
    batch_sizes: List[float] = field(default_factory=list)
    docs: Dict[str, dict] = field(default_factory=dict)
    n_requests: int = 0
    n_chips_ok: int = 0
    failed: int = 0
    rejected: int = 0
    inflight_max: int = 0
    span_s: float = 0.0
    drain_ms: float = 0.0

    def add_served(self, doc: dict, chip: Chip) -> float:
        """Record one ok response; returns its queue + atpg + infer ms."""
        prov = doc["provenance"]
        tm = prov["timings"]
        self.queue_ms.append(tm["queue_s"] * 1e3)
        self.atpg_ms.append(tm["atpg_s"] * 1e3)
        self.infer_ms.append(tm["infer_s"] * 1e3)
        self.batch_sizes.append(prov["batch_size"])
        self.docs.setdefault(chip.name, doc)
        self.n_chips_ok += 1
        return (tm["queue_s"] + tm["atpg_s"] + tm["infer_s"]) * 1e3


def _inflight_max(outcomes: Sequence[Outcome]) -> int:
    events = sorted([(o.due, 1) for o in outcomes] + [(o.done, -1) for o in outcomes])
    cur = best = 0
    for _, step in events:
        cur += step
        best = max(best, cur)
    return best


def check_phase(run: PhaseRun, chips: Sequence[Chip], reference: Dict[str, str],
                allow_failures: bool) -> PhaseStats:
    """Latencies, provenance timings and the correctness gate of one phase.

    A response that is not ok counts as failed when it is backpressure
    (429 / ``queue_full``) or a transport error, and only where
    ``allow_failures``; anything else — or any served result that differs
    from the offline reference — raises :class:`CheckFailed`.
    """
    st = PhaseStats(n_requests=len(run.outcomes))
    for o in run.outcomes:
        members = run.phase.members[o.index % len(run.phase.members)]
        st.late_ms.append((o.sent - o.due) * 1e3)
        docs: List[dict] = []
        if o.error is None and o.status in (200, 400, 429):
            docs = [json.loads(line) for line in o.body.decode().splitlines() if line.strip()]
        busy = o.error is not None or o.status == 429 or any(
            not d.get("ok") and d.get("error", {}).get("type") == "queue_full" for d in docs)
        if busy:
            if not allow_failures:
                raise CheckFailed(f"request failed in phase {run.phase.name}: "
                                  f"{o.error or o.status}")
            st.failed += 1
            st.rejected += 1 if o.error is None else 0
            continue
        if len(docs) != len(members):
            raise CheckFailed(f"{len(docs)} response(s) for {len(members)} submission(s)")
        server_ms = 0.0
        for doc, (rid, k) in zip(docs, members):
            if not doc.get("ok"):
                raise CheckFailed(f"request {rid} not ok: {doc.get('error')}")
            if doc["id"] != rid or doc["chip"] != chips[k].name:
                raise CheckFailed(f"response {doc['id']} answers the wrong request {rid}")
            if not same_result(doc, reference[chips[k].name]):
                raise CheckFailed(f"served result for {rid} ({chips[k].name}) differs "
                                  f"from offline diagnose_batch")
            server_ms = max(server_ms, st.add_served(doc, chips[k]))
        st.latency_ms.append((o.done - o.due) * 1e3)
        st.overhead_ms.append((o.done - o.sent) * 1e3 - server_ms)
    last_due = max(o.due for o in run.outcomes)
    last_done = max(o.done for o in run.outcomes)
    st.span_s = last_done - run.start
    st.drain_ms = (last_done - last_due) * 1e3
    st.inflight_max = _inflight_max(run.outcomes)
    return st


def quality(docs: Dict[str, dict], chips: Sequence[Chip]) -> Dict[str, float]:
    """Accuracy and the policy counts over one response per pool chip."""
    by_name = {c.name: c for c in chips}
    acc, prune, res, fhi = [], [], [], []
    for name, doc in docs.items():
        report = DiagnosisReport(candidates=[candidate_from_json(c) for c in doc["candidates"]])
        truths = by_name[name].faults
        acc.append(report_is_accurate(report, truths))
        prune.append(doc["action"] == "prune")
        res.append(len(report))
        hit = first_hit_index(report, truths)
        if hit is not None:
            fhi.append(hit)
    return {
        "accuracy": float(np.mean(acc)),
        "core.policy.prune_frac": float(np.mean(prune)),
        "core.policy.mean_resolution": float(np.mean(res)),
        "core.policy.mean_fhi": float(np.mean(fhi)) if fhi else 0.0,
    }


def serve_layer_metrics(stats: Sequence[PhaseStats]) -> Dict[str, float]:
    """serve.* / http.* / loadgen.* from response provenance and the client."""
    def cat(attr):
        return [x for s in stats for x in getattr(s, attr)]

    batch = cat("batch_sizes")
    n_req = sum(s.n_requests for s in stats)
    return {
        "serve.queue_wait_ms.p50": median(cat("queue_ms")),
        "serve.queue_wait_ms.p90": percentile(cat("queue_ms"), 90),
        "serve.batch_size_mean": float(np.mean(batch)),
        # Response-weighted: every response carries its batch's totals.
        "serve.atpg_ms_per_batch": float(np.mean(cat("atpg_ms"))),
        "serve.infer_ms_per_batch": float(np.mean(cat("infer_ms"))),
        "serve.rejected_frac": sum(s.rejected for s in stats) / max(1, n_req),
        "http.overhead_ms": median(cat("overhead_ms")),
        "loadgen.late_ms_p90": percentile(cat("late_ms"), 90),
        "loadgen.inflight_max": float(max(s.inflight_max for s in stats)),
    }


def serve_replay(design, config, mode, fw_path, chips) -> Tuple[float, PhaseStats]:
    """The serving stack without HTTP: ``RequestBatcher`` + ``DiagnosisService``.

    The whole pool is submitted at once and goes through twice; the second
    (warm) pass is timed.  Returns its wall ms per chip and its
    :class:`PhaseStats`: ``overhead_ms`` is each request's submit-to-result
    time minus its queue + atpg + infer time, ``late_ms`` the submit call.
    """
    registry = ModelRegistry()
    registry.load(config, "v1", str(fw_path))
    registry.warmup()
    service = DiagnosisService(registry, {config: DesignContext(config, design, mode)})
    subs = [json.loads('{"id": "%s", %s' % (c.name, t)) for c, t in zip(chips, _line_tails(chips))]
    for _ in range(2):
        batcher = RequestBatcher(service.process_batch, max_queue=len(subs) + 1,
                                 flush_interval_s=0.005)
        st = PhaseStats(n_requests=len(subs), inflight_max=len(subs))
        sent: List[float] = []
        done = [0.0] * len(subs)
        futures = []
        for i, sub in enumerate(subs):
            t0 = time.perf_counter()
            fut = batcher.submit(sub)
            st.late_ms.append((time.perf_counter() - t0) * 1e3)
            sent.append(t0)
            fut.add_done_callback(lambda _f, i=i: done.__setitem__(i, time.perf_counter()))
            futures.append(fut)
        t0 = time.perf_counter()
        batcher.start()
        docs = [f.result() for f in futures]
        st.span_s = time.perf_counter() - t0
        batcher.close()
    for chip, doc, t_sent, t_done in zip(chips, docs, sent, done):
        if not doc.get("ok"):
            raise CheckFailed(f"in-process serving replay failed {chip.name}: {doc.get('error')}")
        server_ms = st.add_served(doc, chip)
        st.latency_ms.append((t_done - t_sent) * 1e3)
        st.overhead_ms.append((t_done - t_sent) * 1e3 - server_ms)
    return st.span_s * 1e3 / len(subs), st


def served_provenance(config: str, mode: str, backend: str) -> Dict[str, object]:
    return {"design": config, "config": config, "mode": mode,
            "model_version": "v1", "nn_backend": backend}


def phase_latencies(low: Sequence[float], high: Sequence[float]) -> Dict[str, float]:
    """p50/p90 of the ``low`` and ``high`` latency samples, in ms."""
    return {
        "latency_p50_ms.low": median(low),
        "latency_p90_ms.low": percentile(low, 90),
        "latency_p50_ms.high": median(high),
        "latency_p90_ms.high": percentile(high, 90),
    }


def sustained(w: ServingWorkload, cap: PhaseStats) -> float:
    """Chips/s the closed loop completed within the latency limit.

    Each connection has at most one request in flight, so no backlog can
    grow; a request that failed or took longer than ``latency_limit_ms``
    does not count.  A faster server raises it.
    """
    good = sum(1 for x in cap.latency_ms if x <= w.latency_limit_ms)
    return good * w.lot_size / cap.span_s


def _phase_line(st: PhaseStats, name: str) -> str:
    return (f"{name}: {st.n_requests} req, p50 {median(st.latency_ms):.1f}ms "
            f"p90 {percentile(st.latency_ms, 90):.1f}ms failed {st.failed}; "
            f"{st.n_chips_ok / st.span_s:.1f} chips/s; server p50 queue "
            f"{median(st.queue_ms):.1f} + atpg {median(st.atpg_ms):.1f} + infer "
            f"{median(st.infer_ms):.1f}ms, http overhead p50 {median(st.overhead_ms):.1f}ms "
            f"({sum(x > 30 for x in st.overhead_ms)} stalled >30ms), "
            f"late p90 {percentile(st.late_ms, 90):.1f}ms")


# -------------------------------------------------------------------- run
def run_serving(w: ServingWorkload, seed: int, seconds: float, traced: bool,
                root: Path, work: Path, log) -> Tuple[Dict[str, float], int, int, Dict]:
    """One run of a serving workload → (metrics, attempted, failed, info)."""
    tracer = SpanTracer()
    design_cfg = DesignConfig.standard(w.design.config)
    mode = w.design.mode
    flow = run_flow(
        [(w.design.spec(), design_cfg, dict(PREPARE_KWARGS))],
        FlowSettings(mode=mode, n_per_design=w.train_samples,
                     # The served model is part of the system under test, like
                     # the design: it does not vary with the workload seed.
                     dataset_seed=derive_seed(w.design.seed, w.name, "train"),
                     epochs=w.epochs, prepare_repeats=w.prepare_repeats,
                     passes=w.dataset_repeats, fits=w.fit_repeats),
        tracer, traced, log,
    )
    design, fw = flow.designs[0], flow.framework
    fw_path = work / "model.npz"
    save_framework(fw, fw_path)

    with tracer.span("inputs"):
        # The chip corpus is fixed, like the design and the model; the seed
        # draws the traffic from it (arrival schedule, chip order, lots), so
        # runs differ in load pattern, not in how costly their chips are.
        chips = build_pool(design, mode, w.pool, w.design.seed, w.attach_reports, w.name)
        warmup, open_phases, cap = plan_requests(w, chips, seed, seconds)
    # The untraced run measures capacity (sustained_rps, end to end); the
    # traced run the latency at the two fixed rates (per layer).
    phases = open_phases if traced else [cap]
    backend = ModelRegistry().register(w.design.config, "v1", fw).backend
    with tracer.span("offline"):
        diag = new_diagnoser(design, mode)
        reference = offline_reference(design, mode, fw, chips,
                                      served_provenance(w.design.config, mode, backend),
                                      w.lot_size, diag)
        batches = [list(range(i, min(i + w.lot_size, len(chips))))
                   for i in range(0, len(chips), w.lot_size)]
        offline = offline_rate(design, mode, fw, chips, batches, w.offline_repeats, diag)
    log(f"{len(chips)} pool chips; offline {offline:.1f} chips/s; phases "
        + ", ".join(f"{p.name} closed loop {p.duration_s:.1f}s" if p.duration_s
                    else f"{p.name} {len(p.bodies)} req @ {p.rate}/s" for p in phases))

    setups: List[float] = []
    server = None
    stats: List[PhaseStats] = []
    try:
        for k in range(w.setup_repeats):
            server = ServerProcess(root, [*w.design.cli_args(), "--framework", str(fw_path)],
                                   work, str(k))
            try:
                setups.append(server.start())
            finally:
                if k < w.setup_repeats - 1:
                    server.stop()
        log(f"setup {median(setups):.2f}s (median of {len(setups)})")
        client = Client(server.host, server.port, w.connections)
        try:
            with tracer.span("warmup"):
                warm = check_phase(client.run(warmup), chips, reference, allow_failures=False)
            for phase in phases:
                with tracer.span(f"phase.{phase.name}"):
                    stats.append(check_phase(client.run(phase), chips, reference,
                                             allow_failures=phase.name != "low"))
                log(_phase_line(stats[-1], phase.name))
        finally:
            client.close()
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    q = quality(warm.docs, chips)
    if traced:
        low, high = stats
        m = dict(flow.layer)
        m.update(phase_latencies(low.latency_ms, high.latency_ms))
        m.update(probe_layers(design, mode, fw, chips, w.lot_size, tracer, log))
        m.update(serve_layer_metrics(stats))
        m["serve.core_ms_per_chip"], _ = serve_replay(design, w.design.config, mode,
                                                      fw_path, chips)
        m.update({k: v for k, v in q.items() if k.startswith("core.")})
    else:
        m = {
            "setup_s": median(setups),
            "sustained_rps": sustained(w, stats[0]),
            "offline_chips_per_s": offline,
            "accuracy": q["accuracy"],
            "peak_rss_mb": rss,
            "prepare_s": min(flow.prepare_s),
            "dataset_samples_per_s": flow.n_samples / min(flow.dataset_s),
            "fit_s": min(flow.fit_s),
        }
    info = {
        "design_gates": design.nl.n_gates,
        "design_patterns": design.patterns.n_patterns,
        "pool_chips": len(chips),
        "requests": {p.name: st.n_requests for p, st in zip([warmup, *phases], [warm, *stats])},
        "chips_per_request": w.lot_size,
        "rates_per_s": dict(zip(("low", "high"), w.rates)),
        "cap_seconds": cap.duration_s,
        "inputs_digest": inputs_digest(chips, [warmup, *open_phases, cap]),
        "spans": tracer.export() if traced else {},
    }
    attempted = sum(s.n_requests for s in stats)
    failed = sum(s.failed for s in stats)
    return m, attempted, failed, info
