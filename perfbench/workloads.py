"""The benchmark's workloads, driven only through the library's public surface.

``watdiv-joins-http`` serves a DOTIL-tuned WatDiv snapshot from one
``WorkerSupervisor`` worker to closed-loop HTTP clients; ``yago-churn``
serves YAGO reads in-process beside writes and tuning epochs.
Each run builds its inputs from the seed, times the phases the README names,
checks every answer, and returns an :class:`~common.Outcome`.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import os
import random
import shutil
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import (
    AdaptiveConfig,
    Dotil,
    DotilConfig,
    DualStore,
    QueryService,
    ServiceConfig,
    SnapshotPolicy,
    WorkerSupervisor,
    generate_watdiv,
    generate_yago,
    parse_query,
    restore_with_log,
    watdiv_workload,
)
from repro.endpoint import encode_results, fetch_json, sparql_request
from repro.endpoint.client import TransportError
from repro.errors import ReproError
from repro.workload import yago_templates

from common import Outcome, WrongAnswer, beyond, fingerprint, mean, peak_rss_mb, percentile, tree_bytes
from metrics import E2E_UNITS, LAYER_UNITS, layer_metrics
from spans import Span, Tracer

#: The datasets are generated from one fixed seed, so every run measures the
#: same store; ``--seed`` picks the query instantiations, the fresh write
#: batches and the churn schedule.  (Across dataset seeds the WatDiv linear
#: results alone vary by +-20% in size, which would swamp every bound.)
DATASET_SEED = 7
#: Graph-store budget for the HTTP workloads: at 0.4 of the store, DOTIL
#: places enough partitions that graph, split and relational routes all
#: serve traffic on the joins mix.
HTTP_R_BG = 0.4
#: The WatDiv template families the HTTP workload serves: star, snowflake
#: and complex joins with small results.
JOINS_FAMILIES = ("star", "snowflake", "complex")
#: Closed-loop client threads: one process, at most one thread per core.
CLIENTS = max(1, min(2, os.cpu_count() or 1))
#: The set-up is repeated at least SETUP_REPEATS times and until
#: SETUP_SECONDS have passed (at most SETUP_MAX_REPEATS), and its median
#: reported: a short set-up is sampled more often.
SETUP_REPEATS = 3
SETUP_SECONDS = 4.0
SETUP_MAX_REPEATS = 15
#: A timed run is this many slices, each a read phase (HTTP) or an equal
#: share of the schedule (churn) followed by restores, so that the
#: restores are spread over the whole run and a burst of load from
#: elsewhere on the host lands in one slice of each phase.  ``qps`` over
#: HTTP is the median over the slices (churn's ``qps`` spans all slices,
#: see ``_run_schedule``).
SLICES = 10
#: Each slice restores until this many seconds of restores have passed, at
#: least once, and ``restore_s`` is the fastest restore of the run.  A
#: restore's time swings up to twice over with load from elsewhere on the
#: host, which only ever adds time, so the median of a run follows the host
#: and the minimum follows the code.
RESTORE_SECONDS = 1.0
#: The churn schedule: operations per second of ``--seconds`` (sized so a
#: run takes about ``--seconds`` on a 2-core host at the commit that added
#: this benchmark), a write every Nth operation, an epoch every Mth, and
#: writes of WRITE_BATCH fresh triples cycling over FRESH_BATCHES batches.
CHURN_OPS_PER_SECOND = 300
CHURN_WRITE_EVERY = 8
CHURN_EPOCH_EVERY = 500
ZIPF_EXPONENT = 1.0
WRITE_BATCH = 16
FRESH_BATCHES = 4


@dataclass(frozen=True)
class Scale:
    joins_triples: int
    churn_triples: int


SCALES = {
    "full": Scale(joins_triples=30000, churn_triples=8000),
    "tiny": Scale(joins_triples=1500, churn_triples=600),
}


@dataclass(frozen=True)
class RunArgs:
    workload: str
    seed: int
    seconds: int
    trace: bool
    scale: Scale
    workdir: Path
    tracefile: Path


# --------------------------------------------------------------------------- #
# Shared pieces
# --------------------------------------------------------------------------- #
class _NullSpan:
    attrs: Dict[str, object] = {}  # written to and never read

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


class NullTracer:
    """Stands in for :class:`Tracer` in timed runs: records nothing."""

    def span(self, name: str, *, request: bool = False) -> _NullSpan:
        return _NullSpan()

    def gc_watch(self) -> contextlib.nullcontext:
        return contextlib.nullcontext()


def canonical(triples) -> List:
    """The triples in N-Triples text order.  A generated dataset iterates
    in set order, which varies with the interpreter's hash seed; loading in
    a fixed order makes the store, and so every count, repeat exactly."""
    return sorted(triples, key=str)


def inputs_digest(*parts: Sequence) -> str:
    """A digest of everything a run feeds the program besides the fixed
    dataset, so that runs can show which inputs they used."""
    digest = hashlib.sha256()
    for part in parts:
        for item in part:
            digest.update(str(item).encode("utf-8"))
            digest.update(b"\0")
    return digest.hexdigest()


def _wrap_stores(tracer: Tracer, dual: DualStore) -> None:
    """Spans at the store boundaries the query processor calls through."""

    def on_process(span: Span, processed) -> None:
        span.attrs.update(
            route=processed.route,
            modelled_s=processed.record.seconds,
            migrated=processed.result.counters.triples_migrated,
        )

    def on_execute(span: Span, result) -> None:
        span.attrs.update(rows_scanned=result.counters.rows_scanned, results=len(result))

    def on_graph(span: Span, result) -> None:
        span.attrs.update(edges=result.counters.edges_traversed, results=len(result))

    tracer.wrap(dual.identifier, "identify", "core.identify")
    tracer.wrap(dual.processor, "process", "core.process", on_process)
    tracer.wrap(dual.relational, "execute", "relstore.execute", on_execute)
    tracer.wrap(dual.relational, "statistics", "relstore.statistics")
    tracer.wrap(dual.relational, "insert", "relstore.insert")
    tracer.wrap(dual.relational, "delete", "relstore.delete")
    tracer.wrap(dual.graph, "execute", "graphstore.execute", on_graph)


def _wrap_service(tracer: Tracer, service: QueryService) -> List[str]:
    """Spans around plan resolution, the SPARQL functions it calls, and the
    delta log's appends; returns the names that could not be wrapped."""
    import repro.serve.service as service_module

    missing = []
    tracer.wrap(service, "resolve", "serve.resolve")
    for attr, name in (("canonical_query_text", "sparql.canonical"), ("parse_query", "sparql.parse")):
        if not tracer.wrap(service_module, attr, name):
            missing.append(name)
    if service.delta_log is not None:
        tracer.wrap(service.delta_log, "append", "persist.wal_append")
    return missing


def _timed_restore(tracer, root: Path) -> Tuple[float, DualStore]:
    gc.collect()
    with tracer.span("persist.restore"):
        started = time.perf_counter()
        restored = restore_with_log(root)
        elapsed = time.perf_counter() - started
    return elapsed, restored.dual


def _slice_restores(tracer, root: Path, times: List[float]) -> DualStore:
    """Restore ``root`` until ``RESTORE_SECONDS`` have passed, at least
    once, appending each restore's seconds to ``times``; returns the last
    restored store."""
    spent = 0.0
    while True:
        elapsed, dual = _timed_restore(tracer, root)
        times.append(elapsed)
        spent += elapsed
        if spent >= RESTORE_SECONDS:
            return dual
        del dual  # free it before timing the next


def _setup_repeated(build: Callable[[Path], "object"], args: RunArgs, info: dict):
    """Run the whole set-up as often as the constants above say, tearing
    down all but the last; returns it and the median set-up time."""
    times: List[float] = []
    kept = None
    while len(times) < SETUP_MAX_REPEATS and (
        len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS
    ):
        if kept is not None:
            kept.close()
        started = time.perf_counter()
        kept = build(args.workdir / f"setup-{len(times)}")
        times.append(time.perf_counter() - started)
    info["setup_runs_s"] = times
    return kept, statistics.median(times)


def _outcome(e2e: Dict[str, float], reads: List[float], attempted: int, failed: int,
             info: dict) -> Outcome:
    info["samples"] = {"reads": len(reads), "reads_beyond_p99": beyond(len(reads), 99)}
    e2e.update(
        read_p50_ms=percentile(reads, 50) * 1e3,
        read_p99_ms=percentile(reads, 99) * 1e3,
        success_rate=1.0 - failed / attempted,
    )
    return Outcome(metrics={name: e2e[name] for name in E2E_UNITS}, units=E2E_UNITS,
                   attempted=attempted, failed=failed, info=info)


def _layer_outcome(args: RunArgs, tracer: Tracer, info: dict, service: QueryService, *,
                   untraced: List[float], traced: List[float], invalidations: int,
                   transport_ms: float, attempted: int, failed: int) -> Outcome:
    counters = service.metrics.counters
    overhead = mean(traced) - mean(untraced)
    metrics = layer_metrics(
        tracer,
        plan=(counters.plan_cache_hits, counters.plan_cache_misses),
        result=(counters.result_cache_hits, counters.result_cache_misses),
        invalidations=invalidations,
        wal_bytes=counters.wal_bytes,
        transport_ms=transport_ms,
        overhead_ms=overhead * 1e3,
        overhead_pct=100.0 * overhead / mean(untraced),
    )
    tracer.write(args.tracefile)
    info.update(trace_file=args.tracefile.name, spans=len(tracer.spans))
    return Outcome(metrics=metrics, units=LAYER_UNITS, attempted=attempted, failed=failed, info=info)


# --------------------------------------------------------------------------- #
# HTTP workloads
# --------------------------------------------------------------------------- #
@dataclass
class HttpSetup:
    leader: QueryService
    queries: List[str]
    expected: Dict[str, bytes]
    root: Path
    supervisor: Optional[WorkerSupervisor] = None
    url: str = ""
    routes: Dict[str, int] = field(default_factory=dict)

    def stop_worker(self) -> None:
        if self.supervisor is not None:
            self.supervisor.stop()
            self.supervisor = None

    def close(self) -> None:
        self.stop_worker()
        self.leader.close()


def _http_setup(triples: int, seed: int, workdir: Path, tracer) -> HttpSetup:
    dataset = generate_watdiv(target_triples=triples, seed=DATASET_SEED)
    config = DotilConfig(r_bg=HTTP_R_BG)
    dual = DualStore(config).load(canonical(dataset.triples))
    # DOTIL warm-up: one tuning phase per batch of the full WatDiv workload.
    tuner = Dotil(dual, config)
    for batch in watdiv_workload(dataset, seed=seed).batches("ordered"):
        subqueries = [c for c in map(dual.identifier.identify, batch) if c is not None]
        with tracer.span("tuner.epoch") as span:
            span.attrs["moves"] = tuner.tune(subqueries).moves
    setup = HttpSetup(
        leader=QueryService(dual),
        queries=[
            entry.query.to_sparql()
            for family in JOINS_FAMILIES
            for entry in watdiv_workload(dataset, family=family, seed=seed).queries
        ],
        expected={},
        root=workdir / "snapshots",
    )
    try:
        for query in setup.queries:
            processed = setup.leader.run_query(query)
            setup.expected[query] = encode_results(processed.result)
            setup.routes[processed.route] = setup.routes.get(processed.route, 0) + 1
        with tracer.span("persist.snapshot"):  # the snapshot the worker boots from
            setup.leader.checkpoint(path=setup.root)
        supervisor = WorkerSupervisor(setup.root, workers=1, cache_results=False,
                                      run_dir=workdir / "workers")
        if supervisor.max_inflight < CLIENTS:
            raise RuntimeError("the worker's default max_inflight admits fewer than CLIENTS requests")
        setup.supervisor = supervisor
        supervisor.start()
        supervisor.wait_ready()
        setup.url = supervisor.urls[0]
        for query in setup.queries:  # warm-up lap: every plan cached in the worker
            _http_read(setup, query)
    except BaseException:
        setup.close()
        raise
    return setup


def _check_body(body: bytes, expected: bytes, query: str) -> None:
    if body != expected:
        raise WrongAnswer(f"response body differs from the in-process answer for {query[:120]!r}")


def _http_read(setup: HttpSetup, query: str) -> float:
    """One request outside the timed loop, which must succeed; its latency."""
    sent = time.perf_counter()
    response = sparql_request(setup.url, query, timeout=60)
    elapsed = time.perf_counter() - sent
    if response.status != 200:
        raise RuntimeError(f"request failed with status {response.status}")
    _check_body(response.body, setup.expected[query], query)
    return elapsed


def _closed_loop(setup: HttpSetup, seconds: float) -> Tuple[List[float], int, int, float]:
    """CLIENTS threads, each sending its next request when the last one
    returned, round-robin over the mix.  Returns (latencies of successful
    reads, attempted, failed, wall seconds)."""
    queries = setup.queries
    start = threading.Barrier(CLIENTS + 1)
    deadline = [0.0]

    def client(index: int) -> Tuple[List[float], int, int]:
        latencies: List[float] = []
        attempted = failed = 0
        position = index
        start.wait()
        while time.perf_counter() < deadline[0]:
            query = queries[position % len(queries)]
            position += CLIENTS
            attempted += 1
            sent = time.perf_counter()
            try:
                response = sparql_request(setup.url, query, timeout=60)
            except TransportError:
                failed += 1
                continue
            finished = time.perf_counter()
            if response.status != 200:
                failed += 1
                continue
            _check_body(response.body, setup.expected[query], query)
            latencies.append(finished - sent)
        return latencies, attempted, failed

    with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
        futures = [pool.submit(client, index) for index in range(CLIENTS)]
        began = time.perf_counter()
        deadline[0] = began + seconds
        start.wait()
        results = [future.result() for future in futures]
        wall = time.perf_counter() - began
    latencies = [value for result in results for value in result[0]]
    return latencies, sum(r[1] for r in results), sum(r[2] for r in results), wall


def run_http(args: RunArgs) -> Outcome:
    triples = args.scale.joins_triples
    info: dict = {"clients": CLIENTS, "triples_target": triples}
    if args.trace:
        return _trace_http(args, triples, info)

    def build(workdir: Path) -> HttpSetup:
        return _http_setup(triples, args.seed, workdir, NullTracer())

    setup, setup_s = _setup_repeated(build, args, info)
    try:
        info.update(
            routes_at_setup=setup.routes,
            host=fingerprint(args.seed, setup.leader.dual),
            inputs_sha256=inputs_digest(setup.queries),
        )
        e2e = {
            "setup_s": setup_s,
            "disk_bytes_per_triple": tree_bytes(setup.root) / len(setup.leader.dual.relational),
        }
        rates: List[float] = []
        reads: List[float] = []
        restores: List[float] = []
        attempted = failed = 0
        gc.collect()
        for _ in range(SLICES):
            latencies, tried, lost, wall = _closed_loop(setup, args.seconds / SLICES)
            rates.append(len(latencies) / wall)
            reads.extend(latencies)
            attempted += tried
            failed += lost
            # The worker's own boot path: restore its snapshot (no WAL).
            _slice_restores(NullTracer(), setup.root, restores)
        pid = fetch_json(setup.url, "/healthz")["pid"]
        e2e.update(
            qps=statistics.median(rates),
            restore_s=min(restores),
            server_rss_mb=peak_rss_mb(pid),
        )
        return _outcome(e2e, reads, attempted, failed, info)
    finally:
        setup.close()


def _replay(service: QueryService, setup: HttpSetup, laps: int, tracer) -> Dict[str, List[float]]:
    """The calls the endpoint handler makes, in-process: resolve, then
    run_query, then encode_results.  A warm-up lap, then ``laps`` laps over
    the mix; returns each query's request times from the measured laps."""
    times: Dict[str, List[float]] = {query: [] for query in setup.queries}
    for lap in range(laps + 1):
        for query in setup.queries:
            with tracer.span("request", request=True) as request:
                request.attrs["kind"] = "read"
                started = time.perf_counter()
                service.resolve(query)
                with tracer.span("serve.run_query"):
                    processed = service.run_query(query)
                with tracer.span("endpoint.encode") as span:
                    body = encode_results(processed.result)
                    span.attrs["bytes"] = len(body)
                elapsed = time.perf_counter() - started
            _check_body(body, setup.expected[query], query)
            if lap:
                times[query].append(elapsed)
    return times


def _trace_http(args: RunArgs, triples: int, info: dict) -> Outcome:
    """One set-up (traced), ``laps`` untraced laps over HTTP with one
    client, then the same laps replayed in-process untraced and traced."""
    tracer = Tracer()
    setup = _http_setup(triples, args.seed, args.workdir / "traced", tracer)
    try:
        info.update(
            routes_at_setup=setup.routes,
            host=fingerprint(args.seed, setup.leader.dual),
            inputs_sha256=inputs_digest(setup.queries),
        )
        laps = max(2, args.seconds // 4)
        http_times = {query: [] for query in setup.queries}
        for _ in range(laps):
            for query in setup.queries:
                http_times[query].append(_http_read(setup, query))
        setup.stop_worker()
        _restore_s, dual = _timed_restore(tracer, setup.root)
        worker_config = ServiceConfig(max_workers=1, cache_results=False)
        with QueryService(dual, worker_config) as service:
            untraced = _replay(service, setup, laps, NullTracer())
        with QueryService(dual, worker_config) as service:
            _wrap_stores(tracer, dual)
            info["unwrapped"] = _wrap_service(tracer, service)
            try:
                with tracer.gc_watch():
                    traced = _replay(service, setup, laps, tracer)
            finally:
                tracer.unwrap_all()
            transport = mean(
                [statistics.median(http_times[q]) - statistics.median(traced[q])
                 for q in setup.queries]
            )
            return _layer_outcome(
                args, tracer, info, service,
                untraced=[t for q in setup.queries for t in untraced[q]],
                traced=[t for q in setup.queries for t in traced[q]],
                invalidations=0, transport_ms=transport * 1e3,
                # HTTP laps, then a warm-up lap plus ``laps`` laps untraced and traced.
                attempted=len(setup.queries) * (3 * laps + 2), failed=0,
            )
    finally:
        setup.close()


# --------------------------------------------------------------------------- #
# Churn workload
# --------------------------------------------------------------------------- #
def _fresh_batches(base: Sequence, seed: int) -> List[list]:
    """Write batches of triples absent from ``base``, drawn from a small YAGO
    dataset under a seed other than ``DATASET_SEED`` (same vocabulary, so
    the triples land in the store's existing partitions)."""
    present = set(base)
    extra = generate_yago(target_triples=2000, seed=DATASET_SEED + 1 + seed).triples
    pool = [t for t in canonical(extra) if t not in present]
    needed = WRITE_BATCH * FRESH_BATCHES
    if len(pool) < needed:
        raise RuntimeError(f"only {len(pool)} fresh triples for {needed} needed")
    return [pool[i * WRITE_BATCH : (i + 1) * WRITE_BATCH] for i in range(FRESH_BATCHES)]


def churn_queries(dataset, seed: int) -> List[str]:
    """The read mix in popularity order: every instantiation of every YAGO
    template (five each, 20 in all).  The templates are interleaved, each
    one's default instance first and its others in a seed-shuffled order,
    so every seed reads the same queries with the same template at every
    rank.  (``yago_workload`` draws its mutations with replacement: seeds
    1-29 gave 11-15 distinct queries of 20, and the repeats moved
    ``read_p50_ms`` by a third between seeds.)"""
    rng = random.Random(seed)
    columns = []
    for template in yago_templates(dataset):
        names = list(template.slots)
        every = dict.fromkeys(
            template.instantiate(dict(zip(names, values))).to_sparql()
            for values in itertools.product(*template.slots.values())
        )
        default = template.instantiate().to_sparql()
        others = [query for query in every if query != default]
        rng.shuffle(others)
        columns.append([default, *others])
    return [column[rank] for rank in range(max(map(len, columns)))
            for column in columns if rank < len(column)]


def churn_schedule(seed: int, operations: int, queries: int) -> List[Tuple[str, int]]:
    """The seeded operation list: reads of query ``i`` with Zipf weight
    ``1 / (i + 1)``, a write every ``CHURN_WRITE_EVERY``th operation and a
    tuning epoch every ``CHURN_EPOCH_EVERY``th."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(queries)]
    schedule: List[Tuple[str, int]] = []
    writes = 0
    for index in range(1, operations + 1):
        if index % CHURN_EPOCH_EVERY == 0:
            schedule.append(("epoch", 0))
        elif index % CHURN_WRITE_EVERY == 0:
            schedule.append(("write", writes))
            writes += 1
        else:
            schedule.append(("read", rng.choices(range(queries), weights)[0]))
    return schedule


@dataclass
class ChurnSetup:
    leader: QueryService
    queries: List[str]
    batches: List[list]
    root: Path
    #: The first body read for each query at ``generation``; every later
    #: read of it before the next mutation must return the same bytes.
    generation: int = -1
    seen: Dict[str, bytes] = field(default_factory=dict)

    def close(self) -> None:
        self.leader.close()


def _churn_setup(triples: int, seed: int, workdir: Path, tracer) -> ChurnSetup:
    dataset = generate_yago(target_triples=triples, seed=DATASET_SEED)
    dual = DualStore().load(canonical(dataset.triples))
    if isinstance(tracer, Tracer):
        _wrap_stores(tracer, dual)
    root = workdir / "snapshots"
    leader = QueryService(
        dual,
        ServiceConfig(
            adaptive=AdaptiveConfig(epoch_queries=0),
            snapshot=SnapshotPolicy(path=root, log=True),
        ),
    )
    setup = ChurnSetup(
        leader=leader,
        queries=churn_queries(dataset, seed),
        batches=_fresh_batches(dataset.triples, seed),
        root=root,
    )
    try:
        if isinstance(tracer, Tracer):
            _wrap_service(tracer, leader)
            with tracer.span("persist.snapshot"):
                leader.checkpoint()
        for query in setup.queries:  # warm-up lap
            _read(setup, tracer, query)
    except BaseException:
        setup.close()
        raise
    return setup


def _read(setup: ChurnSetup, tracer, query: str) -> float:
    with tracer.span("request", request=True) as request:
        request.attrs["kind"] = "read"
        started = time.perf_counter()
        processed = setup.leader.run_query(query)
        with tracer.span("endpoint.encode") as span:
            body = encode_results(processed.result)
            span.attrs["bytes"] = len(body)
        elapsed = time.perf_counter() - started
    generation = setup.leader.dual.generation
    if generation != setup.generation:
        setup.generation = generation
        setup.seen.clear()
    if setup.seen.setdefault(query, body) != body:
        raise WrongAnswer(f"two reads at generation {generation} disagree for {query[:120]!r}")
    return elapsed


def _write(setup: ChurnSetup, tracer, index: int) -> int:
    """Write number ``index``: even ones insert a fresh batch, odd ones
    delete it again.  Returns the result-cache entries it dropped."""
    service = setup.leader
    batch = setup.batches[(index // 2) % len(setup.batches)]
    before = service.metrics.counters.invalidations
    with tracer.span("request", request=True) as span:
        span.attrs["kind"] = "write"
        if index % 2 == 0:
            service.insert(batch)
        else:
            service.delete(batch)
    return service.metrics.counters.invalidations - before


@dataclass
class ChurnRun:
    reads: List[float] = field(default_factory=list)
    #: Timed seconds and reads of each slice, the restores after it, and
    #: the last restored store.
    walls: List[float] = field(default_factory=list)
    slice_reads: List[int] = field(default_factory=list)
    restores: List[float] = field(default_factory=list)
    restored: Optional[DualStore] = None
    writes: int = 0
    epochs: int = 0
    failed: int = 0
    dropped: int = 0


def _run_schedule(setup: ChurnSetup, schedule: List[Tuple[str, int]], tracer) -> ChurnRun:
    """The schedule in ``SLICES`` slices of equal length.  Before each
    slice the leader checkpoints, which rotates the WAL onto the new
    snapshot; after it, that snapshot plus the slice's WAL is restored and
    must reach the live generation.  Only the slices' operations are timed
    for ``qps`` and, when tracing, watched for GC pauses."""
    run = ChurnRun()
    size = -(-len(schedule) // SLICES)
    for start in range(0, len(schedule), size):
        with tracer.span("persist.snapshot"):
            setup.leader.checkpoint()
        gc.collect()
        done = len(run.reads)
        began = time.perf_counter()
        with tracer.gc_watch():
            for op, arg in schedule[start : start + size]:
                try:
                    if op == "read":
                        run.reads.append(_read(setup, tracer, setup.queries[arg]))
                    elif op == "write":
                        run.dropped += _write(setup, tracer, arg)
                        run.writes += 1
                    else:
                        with tracer.span("tuner.epoch") as span:
                            span.attrs["moves"] = setup.leader.tune_now().moves
                        run.epochs += 1
                except ReproError:
                    run.failed += 1
        run.walls.append(time.perf_counter() - began)
        run.slice_reads.append(len(run.reads) - done)
        run.restored = None  # free the last restore before timing the next
        run.restored = _slice_restores(tracer, setup.root, run.restores)
        if run.restored.generation != setup.leader.dual.generation:
            raise WrongAnswer(f"restored generation {run.restored.generation} "
                              f"!= live {setup.leader.dual.generation}")
    run.failed += setup.leader.metrics.counters.wal_failures
    return run


def _finish_churn(setup: ChurnSetup, run: ChurnRun) -> float:
    """After the run: check the served answers and the last restore against
    the live store, close the service, and return the disk bytes per live
    triple under the snapshot root."""
    live = setup.leader.dual
    for query in setup.queries:
        want = encode_results(live.run_query(parse_query(query)).result)
        if encode_results(setup.leader.run_query(query).result) != want:
            raise WrongAnswer(f"the service serves a stale answer for {query[:120]!r}")
        if encode_results(run.restored.run_query(parse_query(query)).result) != want:
            raise WrongAnswer(f"restored store answers {query[:120]!r} differently")
    setup.close()  # closes the delta log
    return tree_bytes(setup.root) / len(live.relational)


def run_churn(args: RunArgs) -> Outcome:
    info: dict = {"triples_target": args.scale.churn_triples}
    operations = CHURN_OPS_PER_SECOND * args.seconds
    if args.trace:
        return _trace_churn(args, operations, info)
    null = NullTracer()

    def build(workdir: Path) -> ChurnSetup:
        return _churn_setup(args.scale.churn_triples, args.seed, workdir, null)

    setup, setup_s = _setup_repeated(build, args, info)
    try:
        schedule = churn_schedule(args.seed, operations, len(setup.queries))
        info.update(
            host=fingerprint(args.seed, setup.leader.dual),
            inputs_sha256=inputs_digest(setup.queries, setup.batches, schedule),
        )
        run = _run_schedule(setup, schedule, null)
        info.update(writes=run.writes, epochs=run.epochs, restore_runs_s=run.restores,
                    slice_qps=[n / wall for n, wall in zip(run.slice_reads, run.walls)])
        e2e = {
            "setup_s": setup_s,
            # All reads over all timed seconds: the slices' rates wander
            # with the host's speed, and this averages over every slice.
            "qps": len(run.reads) / sum(run.walls),
            "restore_s": min(run.restores),
            "server_rss_mb": peak_rss_mb(os.getpid()),
            "disk_bytes_per_triple": _finish_churn(setup, run),
        }
        return _outcome(e2e, run.reads, len(schedule), run.failed, info)
    finally:
        setup.close()


def _trace_churn(args: RunArgs, operations: int, info: dict) -> Outcome:
    """The schedule twice, each on a fresh set-up: untraced, then traced."""
    null = NullTracer()
    tracer = Tracer()
    triples = args.scale.churn_triples
    setup = _churn_setup(triples, args.seed, args.workdir / "untraced", null)
    try:
        schedule = churn_schedule(args.seed, operations, len(setup.queries))
        untraced = _run_schedule(setup, schedule, null)
        _finish_churn(setup, untraced)
    finally:
        setup.close()
    shutil.rmtree(args.workdir / "untraced", ignore_errors=True)
    try:
        setup = _churn_setup(triples, args.seed, args.workdir / "traced", tracer)
        try:
            info.update(
                host=fingerprint(args.seed, setup.leader.dual),
                inputs_sha256=inputs_digest(setup.queries, setup.batches, schedule),
            )
            traced = _run_schedule(setup, schedule, tracer)
            _finish_churn(setup, traced)
        finally:
            setup.close()
    finally:
        tracer.unwrap_all()
    return _layer_outcome(
        args, tracer, info, setup.leader,
        untraced=untraced.reads, traced=traced.reads,
        invalidations=traced.dropped, transport_ms=0.0,
        attempted=2 * len(schedule), failed=untraced.failed + traced.failed,
    )


WORKLOADS: Dict[str, Callable[[RunArgs], Outcome]] = {
    "watdiv-joins-http": run_http,
    "yago-churn": run_churn,
}
