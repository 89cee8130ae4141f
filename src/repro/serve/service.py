"""The concurrent query-serving layer in front of a :class:`DualStore`.

``DualStore.run_query`` processes one query at a time and re-parses,
re-identifies, and re-executes from scratch on every call.  That is the right
granularity for the paper's experiments, but not for *serving* a workload:
template-driven traffic repeats the same query texts constantly, and batches
contain outright duplicates.  :class:`QueryService` adds the serving substrate
on top, without changing any store or tuner semantics:

* a **plan cache** (:mod:`repro.serve.plan_cache`) keyed by canonical query
  text, so repeated template instantiations skip the SPARQL parser and the
  complex-subquery identifier;
* a generation-validated **result cache** (:mod:`repro.serve.result_cache`)
  invalidated through :meth:`DualStore.add_invalidation_hook`, so a cached
  answer can never survive an ``insert``/``transfer_partition``/
  ``evict_partition``;
* a **batched admission path** (:meth:`QueryService.run_batch`) that
  deduplicates identical queries within a batch and executes the distinct
  misses concurrently in a thread pool — query processing only reads store
  state, so read-side parallelism is safe (see
  :class:`~repro.core.processor.QueryProcessor`'s concurrency contract);
* **service metrics** (:mod:`repro.serve.metrics`): cache hit rates, p50/p95
  latency, and queue depth — plus per-shard probe/queue-depth metrics
  (:meth:`QueryService.shard_metrics`) when the dual store's relational
  master copy is a :class:`~repro.relstore.sharded.ShardedRelationalStore`
  (the service then also owns a dedicated scatter pool for shard probes);
* opt-in **online adaptive tuning** (:mod:`repro.serve.adaptive`, via
  ``ServiceConfig.adaptive``): served complex subqueries are harvested into
  a sliding :class:`~repro.serve.adaptive.WorkloadWindow` and a
  :class:`~repro.serve.adaptive.TuningDaemon` re-tunes the physical design
  epoch by epoch — exclusive with in-flight serves through a read/write
  gate, each epoch's moves batched into a single result-cache invalidation.

Accounting is preserved: every submitted query yields exactly one
:class:`~repro.core.metrics.QueryRecord`, and cached/deduplicated records keep
the modelled ``seconds`` of the execution they share (flagged via
``record.from_cache``), so TTI computed over served records equals the TTI of
the uncached loop — the caches buy wall-clock time, not metric distortion.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.dualstore import DualStore
from repro.core.metrics import BatchResult, QueryRecord
from repro.core.processor import ProcessedQuery
from repro.cost.model import CostModel, DEFAULT_COST_MODEL
from repro.cost.resources import ResourceThrottle
from repro.errors import QueryTimeoutError, SnapshotError
from repro.resilience.deadline import Deadline, deadline_scope
from repro.execution import ExecutionResult
from repro.persist.snapshot import (
    CapturedSnapshot,
    SnapshotManifest,
    SnapshotPolicy,
    capture_snapshot,
    commit_snapshot,
    load_snapshot,
)
from repro.persist.wal import DeltaLog, WalRecord, apply_record, restore_with_log
from repro.rdf.terms import IRI, Triple
from repro.relstore.sharded import ShardedRelationalStore
from repro.sparql.ast import SelectQuery
from repro.sparql.parser import canonical_query_text, parse_query

from repro.serve.adaptive import (
    AdaptiveConfig,
    EpochReport,
    ReadWriteLock,
    TuningDaemon,
    WorkloadWindow,
)
from repro.serve.lru import LRUCache
from repro.serve.metrics import ServiceMetrics
from repro.serve.plan_cache import PlanCache, QueryPlan
from repro.serve.result_cache import CachedExecution, ResultCache

__all__ = ["ServiceConfig", "ServedBatch", "IngestReport", "QueryService"]

#: A query may be submitted as raw SPARQL text or as an already-parsed AST.
QueryLike = Union[str, SelectQuery]


def _result_view(result: ExecutionResult) -> ExecutionResult:
    """A fresh :class:`ExecutionResult` shell over shared solution data.

    Served results cross the cache boundary in both directions (stored on a
    miss, returned on a hit), so handing out the cached object itself would
    let one consumer's in-place edit (sorting bindings, merging counters)
    corrupt every other consumer.  The shell gets its own bindings list and
    counters object; the binding dicts themselves are shared and treated as
    immutable, as everywhere else in the codebase.
    """
    return ExecutionResult(
        bindings=list(result.bindings),
        variables=result.variables,
        counters=result.counters.copy(),
        seconds=result.seconds,
        store=result.store,
        truncated=result.truncated,
        scatter=result.scatter,  # frozen, safe to share across views
    )


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the serving layer.

    Attributes
    ----------
    plan_cache_size:
        LRU capacity of the parsed-plan cache (entries = distinct texts).
    result_cache_size:
        LRU capacity of the result cache (entries = distinct queries).
    max_workers:
        Thread-pool width for batch execution; ``1`` serves batches inline
        with no pool at all.  With the bundled pure-Python engines the GIL
        serializes the CPU-bound execution, so the pool mainly exercises the
        concurrency seam (and shows up in the queue-depth gauge); it pays off
        for real once a store backend releases the GIL (I/O, native engines).
    cache_results:
        Disable to keep only the plan cache (useful for measuring the two
        caches separately).
    adaptive:
        Opt-in online adaptive tuning (:mod:`repro.serve.adaptive`).  When
        set, the service harvests served complex subqueries into a sliding
        :class:`~repro.serve.adaptive.WorkloadWindow` and owns a
        :class:`~repro.serve.adaptive.TuningDaemon` that re-tunes the dual
        store's physical design epoch by epoch, concurrently-safely with
        in-flight serves.  ``None`` (the default) serves a frozen placement,
        exactly as before.
    snapshot:
        Opt-in durable checkpointing (:mod:`repro.persist`).  When set, the
        service snapshots the dual store (plus the adaptive window/tuner
        state when adaptive tuning is on) under the policy's path whenever
        its mutation-count or interval trigger fires — always under the
        writer gate, so every snapshot is a consistent cut.  Restart with
        :meth:`QueryService.restore`.  ``None`` (the default) keeps the
        service memory-only.  With ``SnapshotPolicy(log=True)`` the service
        also keeps a write-ahead delta log (:mod:`repro.persist.wal`): every
        mutation appends one record, and the policy triggers become full
        snapshot + log rotation thresholds.
    gated:
        Create the read/write gate even without adaptive tuning.  Required
        when mutations (or delta-log catch-up via
        :meth:`QueryService.apply_wal_records`) run concurrently with
        serving — the follower workers and the churn benchmark's leader use
        this.  Implied by ``adaptive``.
    default_deadline_seconds:
        Wall-clock budget applied to every submission that does not carry
        its own ``deadline_seconds`` (:mod:`repro.resilience.deadline`).
        An over-budget execution raises
        :class:`~repro.errors.QueryTimeoutError` and frees its thread;
        ``None`` (the default) serves unbudgeted, exactly as before.
    engine:
        Expected relational execution engine of the fronted dual store
        (``"idspace"``, ``"columnar"``, …).  The service validates it against
        ``dual.relational.engine`` at construction and fails fast on a
        mismatch — deployment config naming one engine while the store runs
        another is a misconfiguration, not something to paper over.  ``None``
        (the default) accepts whatever the store runs.
    """

    plan_cache_size: int = 1024
    result_cache_size: int = 4096
    max_workers: int = 4
    cache_results: bool = True
    adaptive: Optional[AdaptiveConfig] = None
    snapshot: Optional[SnapshotPolicy] = None
    gated: bool = False
    default_deadline_seconds: Optional[float] = None
    engine: Optional[str] = None


@dataclass
class ServedBatch:
    """The outcome of one ``run_batch`` call: one entry per submitted query.

    ``cache_hits`` counts submissions answered by the *result cache*;
    ``coalesced`` counts submissions that shared a batch-mate's execution
    (within-batch dedup).  Both kinds carry ``record.from_cache = True``;
    the remaining ``len(self) - cache_hits - coalesced`` submissions were
    fresh store executions.
    """

    executions: List[ProcessedQuery] = field(default_factory=list)
    cache_hits: int = 0
    coalesced: int = 0

    @property
    def records(self) -> List[QueryRecord]:
        return [execution.record for execution in self.executions]

    @property
    def tti(self) -> float:
        """Modelled time-to-insight of the batch (sum of record seconds)."""
        return sum((execution.record.seconds for execution in self.executions), 0.0)

    def batch_result(self, index: int = 0) -> BatchResult:
        """Adapt to the experiments' :class:`BatchResult` for TTI reporting."""
        return BatchResult(index=index, records=self.records)

    def __len__(self) -> int:
        return len(self.executions)

    def __iter__(self):
        return iter(self.executions)


@dataclass
class IngestReport:
    """What one :meth:`QueryService.ingest_stream` call did."""

    triples: int = 0
    chunks: int = 0
    modelled_seconds: float = 0.0


class QueryService:
    """Serves queries and whole workload batches from a dual store.

    Parameters
    ----------
    dual:
        The (loaded) dual store to front.  The service registers an
        invalidation hook on it; call :meth:`close` (or use the service as a
        context manager) to detach it and stop the worker pool.
    config:
        Serving tunables; defaults are fine for the bundled benchmarks.
    """

    def __init__(self, dual: DualStore, config: Optional[ServiceConfig] = None):
        self.dual = dual
        self.config = config or ServiceConfig()
        if self.config.engine is not None:
            store_engine = getattr(dual.relational, "engine", None)
            if store_engine != self.config.engine:
                raise ValueError(
                    f"ServiceConfig.engine={self.config.engine!r} but the dual store's "
                    f"relational backend runs engine {store_engine!r}"
                )
        self.plan_cache = PlanCache(self.config.plan_cache_size)
        self.result_cache = ResultCache(self.config.result_cache_size)
        # Memo for parsed-query canonical keys: to_sparql() + re-tokenization
        # is parser-comparable work, so equal queries (not just the same
        # object) share one computation.  Per-service, so the memory lives
        # and dies with the service rather than pinning ASTs process-wide.
        self._key_memo: LRUCache[SelectQuery, str] = LRUCache(
            self.config.plan_cache_size, what="canonical-key memo"
        )
        self.metrics = ServiceMetrics()
        self._metrics_lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._scatter_pool: Optional[ThreadPoolExecutor] = None
        self._scatter_pool_denied = False
        self._pool_lock = threading.Lock()
        self._closed = False
        #: The online adaptive tuning subsystem (``None`` unless opted in via
        #: ``ServiceConfig.adaptive``).  The gate serializes tuning epochs
        #: (exclusive) against in-flight serves (shared).
        #: Durable checkpointing (ServiceConfig.snapshot).  The mutation
        #: counter is bumped by the invalidation hook (one per generation
        #: bump, so a batched tuning epoch counts once) and the policy is
        #: evaluated at mutation/epoch boundaries: the in-memory *capture*
        #: happens under the writer gate (the consistent cut), the disk
        #: *commit* happens after the gate is released (serving resumes while
        #: the fsyncs run), serialized by its own I/O lock.
        self._snapshot_policy = self.config.snapshot
        self._mutations_since_snapshot = 0
        self._last_snapshot_monotonic = time.monotonic()
        self._snapshot_io_lock = threading.Lock()
        self.last_snapshot: Optional[SnapshotManifest] = None
        #: Last exception a *policy-triggered* commit raised (diagnostics;
        #: the explicit checkpoint() path propagates instead).
        self.last_snapshot_error: Optional[Exception] = None
        self.adaptive: Optional[TuningDaemon] = None
        self._gate: Optional[ReadWriteLock] = None
        if self.config.adaptive is not None or self.config.gated:
            self._gate = ReadWriteLock()
        if self.config.adaptive is not None:
            adaptive = self.config.adaptive
            self.adaptive = TuningDaemon(
                dual=dual,
                tuner=adaptive.tuner_factory(dual),
                window=WorkloadWindow(adaptive.window_size),
                gate=self._gate,
                config=adaptive,
            )
            # Background-thread epochs (daemon.start) must hit the same
            # snapshot-policy boundary as tune_now() and auto epochs.
            self.adaptive.post_epoch_hook = self._maybe_checkpoint_gated
        #: The write-ahead delta log (SnapshotPolicy.log): mutations append
        #: delta records through the dual store's mutation-listener seam,
        #: snapshot commits rotate.  Append/rotate failures are recorded
        #: here and in ``wal_failures`` — never raised out of a mutation.
        self.delta_log: Optional[DeltaLog] = None
        self.last_wal_error: Optional[Exception] = None
        if self._snapshot_policy is not None and self._snapshot_policy.log:
            self.delta_log = DeltaLog(
                self._snapshot_policy.path, keep_segments=max(2, self._snapshot_policy.keep)
            )
            self._anchor_delta_log()
            dual.add_mutation_listener(self._on_wal_event)
        dual.add_invalidation_hook(self._on_mutation)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Detach from the dual store and shut the worker pool down.

        A closed service refuses further serving (``RuntimeError``) — its
        invalidation hook is gone, so quietly continuing would re-create the
        worker pool with nobody left to shut it down.
        """
        if self._closed:
            return
        self._closed = True
        if self.adaptive is not None:
            # Stop the daemon first: a background epoch firing after the
            # hook is detached would mutate the store without invalidating
            # anything this service still holds.
            self.adaptive.stop()
        self.dual.remove_invalidation_hook(self._on_mutation)
        if self.delta_log is not None:
            self.dual.remove_mutation_listener(self._on_wal_event)
            self.delta_log.close()
        with self._pool_lock:
            # Query pool first: waiting for it drains in-flight serves whose
            # workers hold a reference to the scatter pool — shutting the
            # scatter pool down first would crash their probe submission.
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
            if self._scatter_pool is not None:
                backend = self.dual.relational
                if isinstance(backend, ShardedRelationalStore):
                    backend.detach_scatter_pool(self._scatter_pool)
                self._scatter_pool.shutdown(wait=True)
                self._scatter_pool = None

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Plan resolution (text → parsed query + complex subquery)
    # ------------------------------------------------------------------ #
    def resolve(self, query: QueryLike) -> QueryPlan:
        """The cached plan for ``query``, parsing/identifying on a miss.

        Every submission is keyed by :func:`canonical_query_text`, so
        whitespace/comment/keyword-case variants of one template instantiation
        share a plan; pre-parsed queries are canonicalized via their
        deterministic SPARQL rendering, so a parsed query and its
        expanded-IRI text form share one cache entry too.
        """
        if isinstance(query, SelectQuery):
            key = self._key_memo.get(query)
            if key is None:
                key = canonical_query_text(query.to_sparql())
                self._key_memo.put(query, key)
            parsed: Optional[SelectQuery] = query
        else:
            key = canonical_query_text(query)
            parsed = None
        plan = self.plan_cache.get(key)
        if plan is not None:
            with self._metrics_lock:
                self.metrics.counters.plan_cache_hits += 1
            return plan
        if parsed is None:
            parsed = parse_query(query)
        plan = QueryPlan(key=key, query=parsed, complex_subquery=self.dual.identifier.identify(parsed))
        self.plan_cache.put(plan)
        with self._metrics_lock:
            self.metrics.counters.plan_cache_misses += 1
        return plan

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def run_query(
        self, query: QueryLike, *, deadline_seconds: Optional[float] = None
    ) -> ProcessedQuery:
        """Serve one query (cache-aware single-query admission).

        ``deadline_seconds`` caps the wall-clock execution budget
        (overriding ``ServiceConfig.default_deadline_seconds``); an
        over-budget execution raises
        :class:`~repro.errors.QueryTimeoutError` — cooperatively, so the
        executor thread is freed, never left hung.
        """
        return self._serve(
            [query], count_batch=False, deadline_seconds=deadline_seconds
        ).executions[0]

    def run_batch(
        self, queries: Sequence[QueryLike], *, deadline_seconds: Optional[float] = None
    ) -> ServedBatch:
        """Serve a whole batch: dedup within the batch, check the result
        cache per distinct query, execute the misses concurrently, and emit
        one :class:`QueryRecord` per submitted query in submission order.
        ``deadline_seconds`` is one shared budget for the whole batch; the
        first over-budget execution raises
        :class:`~repro.errors.QueryTimeoutError` for the batch."""
        return self._serve(list(queries), count_batch=True, deadline_seconds=deadline_seconds)

    def _serve(
        self,
        queries: List[QueryLike],
        count_batch: bool,
        deadline_seconds: Optional[float] = None,
    ) -> ServedBatch:
        if self._closed:
            raise RuntimeError("QueryService is closed; create a new service to keep serving")
        self.dual._require_loaded()
        if not queries:
            # An empty batch admits nothing: it must not count as a served
            # batch, move the queue gauge, or touch any cache counter —
            # otherwise per-batch averages and hit rates drift on no-op
            # submissions (see tests/test_serve.py::TestRunBatchEdgeCases).
            return ServedBatch()
        plans = [self.resolve(query) for query in queries]

        # One wall-clock budget per submission (shared across a batch): the
        # clock starts here, after resolution, so the budget measures store
        # execution — what the cooperative probes can actually cancel.
        budget = (
            deadline_seconds
            if deadline_seconds is not None
            else self.config.default_deadline_seconds
        )
        deadline = Deadline(budget) if budget is not None else None

        # With adaptive tuning on, serves hold the gate shared so a tuning
        # epoch (exclusive) can never mutate the store between the generation
        # sample and the executions it tags.
        if self._gate is not None:
            self._gate.acquire_read()
        try:
            generation = self.dual.generation

            # First-appearance index per distinct key (within-batch dedup).
            primaries: Dict[str, int] = {}
            for index, plan in enumerate(plans):
                primaries.setdefault(plan.key, index)

            hits: Dict[str, CachedExecution] = {}
            to_execute: List[QueryPlan] = []
            for key, index in primaries.items():
                entry = self.result_cache.get(key, generation) if self.config.cache_results else None
                if entry is not None:
                    hits[key] = entry
                else:
                    to_execute.append(plans[index])

            executed: Dict[str, ProcessedQuery] = {}
            if to_execute:
                for plan, processed in zip(
                    to_execute, self._execute_all(to_execute, deadline)
                ):
                    executed[plan.key] = processed
        finally:
            if self._gate is not None:
                self._gate.release_read()

        # Assemble per-submission entries outside the metrics lock: the
        # result/record copies are O(total bindings) and must not serialize
        # concurrent serves.
        entries: List[ProcessedQuery] = []
        primary_emitted: Set[str] = set()
        hit_count = 0
        coalesced_count = 0
        miss_count = 0
        for plan in plans:
            if plan.key in hits:
                hit = hits[plan.key]
                record = hit.record.replicate(from_cache=True)
                entries.append(ProcessedQuery(result=_result_view(hit.result), record=record))
                hit_count += 1
            else:
                processed = executed[plan.key]
                if plan.key in primary_emitted:
                    record = processed.record.replicate(from_cache=True)
                    entries.append(ProcessedQuery(result=_result_view(processed.result), record=record))
                    coalesced_count += 1
                else:
                    primary_emitted.add(plan.key)
                    entries.append(processed)
                    miss_count += 1

        with self._metrics_lock:
            counters = self.metrics.counters
            # The cache counts rejections cumulatively under its own lock;
            # mirror by assignment (not delta) so concurrent serves cannot
            # cross-count each other's rejections.
            counters.stale_rejections = self.result_cache.stale_rejections
            counters.result_cache_hits += hit_count
            counters.duplicates_coalesced += coalesced_count
            counters.result_cache_misses += miss_count
            counters.queries_served += len(plans)
            for entry in entries:
                self.metrics.modelled_latency.observe(entry.record.seconds)
            if count_batch:
                counters.batches_served += 1

        if self.adaptive is not None:
            # Harvest per submission (hits and duplicates included): the
            # tuner weighs partitions by traffic frequency, and a cache
            # absorbing a hot template must not hide its heat.
            window = self.adaptive.window
            for plan in plans:
                if plan.complex_subquery is not None:
                    window.record(plan.key, plan.query, plan.complex_subquery)
            # Outside the read gate by now, so an auto epoch can take the
            # write side without deadlocking on our own serve.
            if self.adaptive.maybe_run_epoch() is not None:
                self._maybe_checkpoint_gated()
        return ServedBatch(executions=entries, cache_hits=hit_count, coalesced=coalesced_count)

    def _execute_all(
        self, plans: List[QueryPlan], deadline: Optional[Deadline] = None
    ) -> List[ProcessedQuery]:
        if self.config.max_workers > 1:
            # Shard-probe parallelism is independent of batch width: a single
            # run_query over a sharded backend should scatter too.
            self._ensure_scatter_pool()
        if len(plans) == 1 or self.config.max_workers <= 1:
            return [self._execute(plan, deadline) for plan in plans]
        pool = self._ensure_pool()
        return list(pool.map(lambda plan: self._execute(plan, deadline), plans))

    def _execute(self, plan: QueryPlan, deadline: Optional[Deadline] = None) -> ProcessedQuery:
        with self._metrics_lock:
            self.metrics.queue.enter()
        start = time.perf_counter()
        # Sampled *before* execution: if a mutation lands mid-flight, the
        # entry is tagged with the older generation and every later lookup
        # rejects it.
        generation = self.dual.generation
        try:
            # The deadline rides the executing thread as ambient state
            # (thread-local), so the engine hot loops can probe it without
            # any signature change; a trip raises QueryTimeoutError out of
            # the probe, the finally below releases the queue slot, and the
            # result-cache put is skipped (it only runs on success) — a
            # timed-out query is never cached.
            with deadline_scope(deadline):
                processed = self.dual.processor.process(plan.query, plan.complex_subquery)
        except QueryTimeoutError:
            with self._metrics_lock:
                self.metrics.counters.query_timeouts += 1
            raise
        finally:
            wall = time.perf_counter() - start
            with self._metrics_lock:
                self.metrics.queue.leave()
                self.metrics.wall_latency.observe(wall)
                self.metrics.counters.executions += 1
        if self.config.cache_results:
            # Cache snapshots, not the objects handed to the caller: the
            # primary submission's consumer may edit its result in place and
            # must not be able to corrupt later hits.
            self.result_cache.put(
                CachedExecution(
                    key=plan.key,
                    result=_result_view(processed.result),
                    record=processed.record.replicate(from_cache=False),
                    generation=generation,
                )
            )
        return processed

    # ------------------------------------------------------------------ #
    # Mutations (delegated; the dual store's hooks invalidate the cache).
    # With adaptive tuning on, each delegation takes the write side of the
    # gate so it is exclusive with in-flight serves and tuning epochs.
    # ------------------------------------------------------------------ #
    def _gated_mutation(self, mutate: Callable[[], float]) -> float:
        """One delegated mutation: exclusive with serves/epochs via the
        write gate, followed by the snapshot-policy check (capture under the
        gate, commit outside it, failures recorded — never raised out of the
        committed mutation)."""
        with self._write_gated():
            seconds = mutate()
            pending = self._try_capture_locked()
        self._commit_captured(pending, propagate=False)
        return seconds

    def insert(self, triples: Iterable[Triple]) -> float:
        return self._gated_mutation(lambda: self.dual.insert(triples))

    def delete(self, triples: Iterable[Triple]) -> int:
        """Remove triples from the relational master copy (gated like
        :meth:`insert`); returns how many were actually removed."""
        return self._gated_mutation(lambda: self.dual.delete(triples))

    def ingest_stream(
        self,
        triples: Iterable[Triple],
        *,
        chunk_size: int = 1024,
        refresh_statistics: bool = True,
    ) -> IngestReport:
        """Bulk streaming ingest: consume ``triples`` in chunks.

        Each chunk is one gated :meth:`insert` — one generation bump, one
        result-cache invalidation, and (in delta-log mode) one log record —
        so a million-triple stream costs thousands of cheap boundaries, not
        millions.  Statistics refresh is *deferred*: the per-chunk inserts
        only feed the store's statistics tracker (or, before it is built,
        drop the stale statistics), and one optional warm pass at the end
        brings them current before query traffic pays for it inside a
        serve.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        report = IngestReport()
        chunk: List[Triple] = []
        for triple in triples:
            chunk.append(triple)
            if len(chunk) >= chunk_size:
                report.modelled_seconds += self.insert(chunk)
                report.triples += len(chunk)
                report.chunks += 1
                chunk = []
        if chunk:
            report.modelled_seconds += self.insert(chunk)
            report.triples += len(chunk)
            report.chunks += 1
        if refresh_statistics and report.chunks:
            self.dual.relational.statistics()
        return report

    def apply_wal_records(self, records: Sequence[WalRecord]) -> int:
        """Apply committed delta-log records to the live store — the
        follower catch-up path (:mod:`repro.endpoint.worker`).

        Runs under the write gate (``ServiceConfig.gated``), so in-flight
        serves never observe a half-applied record; each record fires the
        invalidation hook once, exactly like the leader-side mutation that
        produced it.  Returns the framed bytes applied (the churn
        benchmark's delta-cost measure).  Replay errors propagate — a
        drifted store must be discarded, not served.
        """
        nbytes = 0
        with self._write_gated():
            for record in records:
                apply_record(self.dual, record)
                nbytes += record.nbytes
        return nbytes

    def transfer_partition(self, predicate: IRI) -> float:
        """Replicate one partition into the graph store; returns modelled
        import seconds."""
        return self._gated_mutation(lambda: self.dual.transfer_partition(predicate))

    def evict_partition(self, predicate: IRI) -> float:
        """Remove one partition from the graph store; returns modelled
        eviction seconds (symmetric with :meth:`transfer_partition`)."""
        return self._gated_mutation(lambda: self.dual.evict_partition(predicate))

    @contextmanager
    def _write_gated(self):
        if self._gate is None:
            yield
            return
        with self._gate.write_locked():
            yield

    def record_endpoint(self, *, requests: int, shed: int) -> None:
        """Mirror the HTTP endpoint's cumulative admission accounting.

        The admission gate (:class:`repro.endpoint.server.AdmissionGate`)
        owns the running totals — it outlives worker hot-reloads that replace
        the service — so these are **assigned**, not incremented, exactly
        like the result cache's ``stale_rejections`` (see
        :attr:`~repro.serve.metrics.ServiceCounters.MIRRORED_GAUGES`).  One
        ``metrics.snapshot()`` then covers the whole serving stack, wire to
        store.
        """
        with self._metrics_lock:
            self.metrics.counters.endpoint_requests = requests
            self.metrics.counters.shed_load = shed

    def record_resilience(
        self,
        *,
        worker_restarts: Optional[int] = None,
        breaker_opens: Optional[int] = None,
    ) -> None:
        """Mirror resilience-subsystem cumulative totals into the counters.

        The :class:`~repro.resilience.fleet.FleetMonitor` owns the restart
        total and the :class:`~repro.endpoint.client.EndpointPool` owns the
        breaker-trip total; both are **assigned** (mirrored-gauge
        discipline, like :meth:`record_endpoint`), so one
        ``metrics.snapshot()`` tells the whole resilience story.
        """
        with self._metrics_lock:
            if worker_restarts is not None:
                self.metrics.counters.worker_restarts = worker_restarts
            if breaker_opens is not None:
                self.metrics.counters.breaker_opens = breaker_opens

    def _on_mutation(self, generation: int) -> None:
        dropped = self.result_cache.invalidate_all()
        with self._metrics_lock:
            self.metrics.counters.invalidations += dropped
            self.metrics.counters.invalidation_events += 1
            self._mutations_since_snapshot += 1

    # ------------------------------------------------------------------ #
    # The write-ahead delta log (SnapshotPolicy.log)
    # ------------------------------------------------------------------ #
    def _anchor_delta_log(self) -> None:
        """Make the log resumable before the first serve.

        Warm restart: when the on-disk tail already ends exactly at the live
        store's generation (the store came from :func:`restore_with_log`),
        reopen it — truncating any torn tail — and keep appending.
        Otherwise anchor a fresh full snapshot and rotate onto it, so every
        subsequent mutation has a committed base to replay against.
        """
        assert self.delta_log is not None
        if self.dual.design is None:
            raise SnapshotError(
                "SnapshotPolicy(log=True) needs a loaded store: the delta log must "
                "anchor a full snapshot before mutations can be logged"
            )
        if self.delta_log.recover(self.dual.generation):
            return
        self.checkpoint()

    def _on_wal_event(self, ops: List[dict], generation: int) -> None:
        """Mutation listener: durably append one delta record.

        Failures are recorded (``wal_failures`` / :attr:`last_wal_error`)
        and close the log — the mutation itself already committed in memory,
        so raising here would poison it; restores stay anchored to the last
        complete record until the next snapshot commit rotates a fresh
        segment.  An empty ``ops`` list is a mutation the op vocabulary
        cannot represent (a re-``load``): the log closes for the same
        reason, loudly in the error slot.
        """
        log = self.delta_log
        if log is None or not log.is_open:
            return
        if not ops:
            log.close()
            self.last_wal_error = SnapshotError(
                f"generation {generation} carried no replayable ops (re-load?); "
                "delta log closed until the next snapshot commit"
            )
            with self._metrics_lock:
                self.metrics.counters.wal_failures += 1
            return
        try:
            nbytes = log.append(ops, generation)
        except Exception as exc:
            self.last_wal_error = exc
            with self._metrics_lock:
                self.metrics.counters.wal_failures += 1
            return
        with self._metrics_lock:
            self.metrics.counters.wal_records += 1
            self.metrics.counters.wal_bytes += nbytes

    def _maybe_rotate_log(self, path, manifest: SnapshotManifest) -> None:
        """Rotate the delta log after a successful snapshot commit on the
        policy path (ad-hoc side checkpoints leave the log anchored where it
        is).  Rotation failures are recorded, not raised — the snapshot
        itself committed."""
        log = self.delta_log
        policy = self._snapshot_policy
        if log is None or policy is None:
            return
        if Path(path).resolve() != Path(policy.path).resolve():
            return
        try:
            log.rotate(manifest.generation, snapshot_name=manifest.name)
        except Exception as exc:
            self.last_wal_error = exc
            with self._metrics_lock:
                self.metrics.counters.wal_failures += 1

    # ------------------------------------------------------------------ #
    # Durable checkpoints (ServiceConfig.snapshot)
    # ------------------------------------------------------------------ #
    def checkpoint(self, path=None, keep: Optional[int] = None) -> SnapshotManifest:
        """Snapshot the dual store (and adaptive state) right now.

        The in-memory capture happens under the writer gate (a consistent
        cut even with serves in flight); the disk write happens after the
        gate is released, so serving resumes while the fsyncs run.  ``path``
        defaults to the configured policy's path; without a policy it must
        be given explicitly.  ``keep`` overrides the retention for this
        call — important for ad-hoc backup roots, which otherwise rotate at
        the policy's (or the default) retention and would silently drop
        older manual backups.  Write failures propagate.
        """
        if path is None and self._snapshot_policy is None:
            raise RuntimeError(
                "no snapshot path: configure ServiceConfig(snapshot=SnapshotPolicy(...)) "
                "or pass checkpoint(path=...)"
            )
        with self._write_gated():
            pending = self._capture_locked(path)
        if keep is not None:
            captured, target, _default_keep = pending
            pending = (captured, target, keep)
        return self._commit_captured(pending, propagate=True)

    def _snapshot_due(self) -> bool:
        policy = self._snapshot_policy
        if policy is None:
            return False
        if policy.every_mutations:
            with self._metrics_lock:
                pending = self._mutations_since_snapshot
            if pending >= policy.every_mutations:
                return True
        if policy.interval_seconds:
            if time.monotonic() - self._last_snapshot_monotonic >= policy.interval_seconds:
                return True
        return False

    def _maybe_capture_locked(self):
        """Capture a checkpoint if the policy says one is due; caller holds
        the writer gate (or the store's usual mutation exclusivity when
        there is no gate).  Returns the pending capture or ``None``."""
        if not self._snapshot_due():
            return None
        return self._capture_locked(None)

    def _try_capture_locked(self):
        """:meth:`_maybe_capture_locked` for the mutation paths — never
        raises.  The mutation that triggered the capture already committed,
        so a capture failure (e.g. an unsupported backend) must be recorded,
        not thrown back at a caller whose operation succeeded.  The trigger
        is consumed like a commit failure's: the next policy window retries
        instead of every subsequent mutation re-raising."""
        try:
            return self._maybe_capture_locked()
        except Exception as exc:
            self.last_snapshot_error = exc
            with self._metrics_lock:
                self.metrics.counters.snapshot_failures += 1
                self._mutations_since_snapshot = 0
            self._last_snapshot_monotonic = time.monotonic()
            return None

    def _maybe_checkpoint_gated(self) -> Optional[SnapshotManifest]:
        """Policy checkpoint from outside the gate (the post-epoch path):
        due-ness is re-checked under the gate so concurrent serves race to
        at most one capture, and the commit runs after release."""
        if not self._snapshot_due():
            return None
        with self._write_gated():
            pending = self._try_capture_locked()
        return self._commit_captured(pending, propagate=False)

    def _capture_locked(self, path) -> Tuple[CapturedSnapshot, "Path", int]:
        """The consistency-critical half of a checkpoint (no I/O).

        Resets the policy triggers at capture time — the cut is taken; if
        the later commit fails, the failure is recorded and the *next*
        policy window retries, rather than every subsequent mutation
        re-attempting a doomed write.
        """
        policy = self._snapshot_policy
        on_policy_path = path is None
        if path is None:
            assert policy is not None  # guarded by checkpoint()/_snapshot_due()
            path = policy.path
        elif policy is not None:
            on_policy_path = Path(path).resolve() == Path(policy.path).resolve()
        extras = None
        if self.adaptive is not None:
            extras = {"adaptive": self.adaptive.snapshot_state()}
        captured = capture_snapshot(self.dual, extras=extras)
        if on_policy_path:
            # Only a checkpoint on the policy's own path satisfies the
            # policy: an explicit side checkpoint to an ad-hoc path must
            # not quench the triggers, or the configured path would fall
            # arbitrarily behind the state it is meant to protect.
            with self._metrics_lock:
                self._mutations_since_snapshot = 0
            self._last_snapshot_monotonic = time.monotonic()
        return (captured, path, policy.keep if policy else 2)

    def _commit_captured(
        self, pending: Optional[Tuple[CapturedSnapshot, "Path", int]], propagate: bool
    ) -> Optional[SnapshotManifest]:
        """The I/O half of a checkpoint, outside the writer gate.

        Policy-triggered commits (``propagate=False``) record failures in
        :attr:`last_snapshot_error` / ``snapshot_failures`` instead of
        raising — a full disk must not poison the mutation that triggered
        the checkpoint (the mutation itself already committed).  The
        explicit :meth:`checkpoint` path propagates.
        """
        if pending is None:
            return None
        captured, path, keep = pending
        try:
            with self._snapshot_io_lock:
                manifest = commit_snapshot(captured, path, keep=keep)
        except Exception as exc:
            with self._metrics_lock:
                self.metrics.counters.snapshot_failures += 1
            self.last_snapshot_error = exc
            if propagate:
                raise
            return None
        self.last_snapshot = manifest
        if manifest.generation == captured.generation:
            # A returned manifest with a *newer* generation means the commit
            # was a stale-capture no-op (another checkpoint already committed
            # a younger cut): nothing was written, so nothing is counted.
            with self._metrics_lock:
                self.metrics.counters.snapshots_taken += 1
            self._maybe_rotate_log(path, manifest)
        return manifest

    @classmethod
    def restore(
        cls,
        path,
        config: Optional[ServiceConfig] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        throttle: Optional[ResourceThrottle] = None,
    ) -> "QueryService":
        """Warm-restart a service from a committed snapshot.

        Rebuilds the dual store (placement, statistics, and generation
        intact) and — when ``config`` enables adaptive tuning and the
        snapshot carries adaptive state — the workload window and the
        tuner's learned Q-state, so the restored service serves at the
        snapshotted placement's modelled TTI immediately, with **zero**
        tuning epochs (``benchmarks/bench_warm_restart.py`` pins this).

        With ``SnapshotPolicy(log=True)`` in ``config``, the restore replays
        the delta-log tail on top of the snapshot
        (:func:`~repro.persist.wal.restore_with_log`), resuming at the exact
        pre-crash generation — a torn final record is truncated and the new
        service keeps appending where the log left off.  Adaptive Q-state
        restores to the last *full* snapshot (the log records store
        mutations, not tuner learning).
        """
        policy = config.snapshot if config is not None else None
        if policy is not None and policy.log:
            restored = restore_with_log(path, cost_model=cost_model, throttle=throttle)
        else:
            restored = load_snapshot(path, cost_model=cost_model, throttle=throttle)
        service = cls(restored.dual, config)
        if (
            service.adaptive is not None
            and restored.extras is not None
            and "adaptive" in restored.extras
        ):
            service.adaptive.restore_state(restored.extras["adaptive"])
        service.last_snapshot = restored.manifest
        return service

    # ------------------------------------------------------------------ #
    # Online adaptive tuning (ServiceConfig.adaptive)
    # ------------------------------------------------------------------ #
    def tune_now(self) -> EpochReport:
        """Run one tuning epoch synchronously (adaptive mode only)."""
        if self.adaptive is None:
            raise RuntimeError(
                "adaptive tuning is not enabled; construct the service with "
                "ServiceConfig(adaptive=AdaptiveConfig(...))"
            )
        epoch = self.adaptive.run_epoch()
        self._maybe_checkpoint_gated()
        return epoch

    def adaptive_metrics(self) -> Optional[Dict[str, float]]:
        """Cumulative epoch metrics, or ``None`` when adaptive tuning is off."""
        if self.adaptive is None:
            return None
        return self.adaptive.metrics_as_dict()

    # ------------------------------------------------------------------ #
    # Shard observability (sharded relational backends only)
    # ------------------------------------------------------------------ #
    def shard_metrics(self) -> Optional[List[Dict[str, float]]]:
        """Per-shard queue-depth/latency snapshot, or ``None`` when the dual
        store's relational master copy is not sharded.

        One dict per shard: probe counts, rows scanned, physical index
        lookups, modelled busy seconds (mean/max per probe), and
        current/peak in-flight probe depth.
        """
        backend = self.dual.relational
        if isinstance(backend, ShardedRelationalStore):
            return backend.shard_metrics.snapshot()
        return None

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            # Re-checked under the lock: a close() racing an in-flight serve
            # must not get its freshly shut-down pool resurrected behind it.
            if self._closed:
                raise RuntimeError("QueryService is closed; create a new service to keep serving")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.config.max_workers,
                    thread_name_prefix="repro-serve",
                )
            return self._pool

    def _ensure_scatter_pool(self) -> None:
        backend = self.dual.relational
        if not isinstance(backend, ShardedRelationalStore) or backend.shard_count <= 1:
            return
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("QueryService is closed; create a new service to keep serving")
            if self._scatter_pool is not None:
                return
            if self._scatter_pool_denied:
                if backend.has_scatter_pool:
                    return  # another service still provides the pool
                # The previous owner closed and detached; try owning it now.
                self._scatter_pool_denied = False
            # Shard probes get their own pool: probes submitted to the query
            # pool would deadlock once every query worker is blocked waiting
            # on its own probes.
            scatter_pool = ThreadPoolExecutor(
                max_workers=min(backend.shard_count, self.config.max_workers * 2),
                thread_name_prefix="repro-scatter",
            )
            if backend.attach_scatter_pool(scatter_pool):
                self._scatter_pool = scatter_pool
            else:
                # Another service already provides the store's pool; ours
                # would only be clobbering it.  Remembered so every later
                # batch doesn't churn a throwaway pool.
                self._scatter_pool_denied = True
                scatter_pool.shutdown(wait=False)
