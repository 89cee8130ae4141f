"""Sharded relational master copy with a scatter-gather executor.

:class:`ShardedRelationalStore` hash-partitions the triple table across N
in-process shards and answers queries by scattering per-shard sub-scans,
gathering their bindings, and joining centrally.  It is a drop-in
:class:`~repro.relstore.backend.RelationalBackend`, so the dual store, the
query processor, and the serving layer run unchanged on top of it.

**Shard key.** Rows are placed by predicate (a stable CRC32 hash of the
predicate term, modulo N), matching the paper's partition-per-predicate world
view: a partition transfer or a ``partition_scan`` touches exactly one shard.
A *mega-predicate* whose partition outgrows its fair share of a shard (the
configurable skew threshold) is *promoted* to subject-sharding: its rows are
re-placed by the subject term's stable hash so the partition's scans split
evenly across every shard.  Promotion is sticky — partitions never demote,
so placement stays stable for concurrent readers.

**Work accounting.** The scatter-gather executor reuses the single-table
executor's ID-space join/filter/projection helpers — shard probes match and
return *integer id tuples*, the coordinator joins them centrally in ID space,
and the surviving rows are decoded exactly once, post-merge (never per
shard) — and charges the *logical* work counters exactly as
:class:`~repro.relstore.store.RelationalStore` would:
shard sub-scans sum to the same ``rows_scanned``, the central hash join
produces the same ``rows_joined``, and one logical pattern access charges one
``index_lookups`` no matter how many shards were probed.  The differential
suite (``tests/test_differential_sharding.py``) asserts this identity for
N ∈ {1, 2, 4, 7}.  On top of the logical counters the executor tracks the
*physical* per-shard probe work, which prices two distinct quantities:

* **total work** — the sum over shards, identical to the unsharded store and
  unchanged by N (there is no free lunch, only parallelism);
* **parallel wall-clock** — per plan step the slowest shard probe, plus the
  coordinator's serial merge work (:meth:`CostModel.scatter_gather_seconds`).
  This is what :attr:`ExecutionResult.seconds` reports; the full breakdown
  rides along in :attr:`ExecutionResult.scatter`.

Shard probes are pure reads and may run on a thread pool
(:meth:`ShardedRelationalStore.attach_scatter_pool`; the serving layer
attaches one it owns).  The usual concurrency contract applies: no mutation
(``load``/``insert``/``delete``/promotion) may run concurrently with reads.

**LIMIT caveat.** Results are binding-identical to the unsharded store as a
*multiset*.  A ``LIMIT`` query without ``ORDER BY`` returns an arbitrary
subset under SPARQL semantics, and the two stores make different (each
deterministic) choices: the unsharded store truncates in insertion order,
the sharded store in shard-gather order.  Result *count* and work counters
still match exactly (``tests/test_differential_sharding.py`` pins both the
equality and this documented divergence).
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cost.counters import WorkCounters
from repro.cost.model import CostModel, DEFAULT_COST_MODEL
from repro.errors import QueryExecutionError
from repro.execution import ExecutionResult, ResultTable, ScatterGatherInfo
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import TripleSet
from repro.rdf.terms import IRI, Triple
from repro.sparql.ast import SelectQuery, TriplePattern

from repro.relstore.columnar import (
    ColumnarTripleTable,
    finish_columnar_pipeline,
    join_block,
    join_columnar_tables,
)
from repro.relstore.executor import (
    BoundPlanCache,
    CompiledPlan,
    CompiledStep,
    IdRow,
    QueryTermSpace,
    check_work_budget,
    compile_plan,
    finish_id_pipeline,
    join_id_extra_tables,
    join_id_pattern_rows,
    match_id_rows,
)
from repro.relstore.planner import RelationalPlan, kernel_costs_for_engine, plan_query
from repro.relstore.stats import StatisticsTracker, TableStatistics
from repro.relstore.store import capped_execution, estimate_relational_seconds
from repro.relstore.table import Row, TripleTable

__all__ = ["ShardingConfig", "ShardedRelationalStore", "ShardMetricsBoard", "SUBJECT_SHARDED"]

#: Placement sentinel: the predicate's rows are spread by subject hash.
SUBJECT_SHARDED = -1


@dataclass(frozen=True)
class ShardingConfig:
    """Placement tunables of the sharded store.

    Attributes
    ----------
    skew_threshold:
        A predicate is promoted to subject-sharding when its partition
        exceeds ``skew_threshold`` times the ideal per-shard row count
        (``total_rows / shards``).  Lower values shard more aggressively;
        benchmarks that want per-query speedup use values well below 1.
    min_subject_shard_rows:
        Absolute floor: partitions smaller than this never promote, no
        matter how skewed (splitting tiny partitions only buys overhead).
    """

    skew_threshold: float = 1.0
    min_subject_shard_rows: int = 128


#: One probe = one shard's share of one plan step: (shard index, rows
#: scanned, physical index lookups, priced seconds, matched id rows).
#: The probe itself is the single pricing point — the metrics board and the
#: parallel-time model both consume the same priced seconds.  Fragments are
#: integer tuples (the pattern's variable columns): shards never decode —
#: the coordinator joins in ID space and decodes once, post-merge.
_Probe = Tuple[int, int, int, float, List[IdRow]]


class ShardMetricsBoard:
    """Thread-safe per-shard serving metrics: probes, work, queue depth.

    The serving layer surfaces this through ``QueryService.shard_metrics()``.
    Latency figures are the cost model's modelled probe seconds (the same
    currency as every other latency in the repo), not wall-clock.
    """

    def __init__(self, shard_count: int):
        self._lock = threading.Lock()
        self._probes = [0] * shard_count
        self._rows_scanned = [0] * shard_count
        self._index_lookups = [0] * shard_count
        self._busy_seconds = [0.0] * shard_count
        self._max_probe_seconds = [0.0] * shard_count
        self._inflight = [0] * shard_count
        self._peak_inflight = [0] * shard_count

    def begin(self, shard: int) -> None:
        with self._lock:
            self._inflight[shard] += 1
            if self._inflight[shard] > self._peak_inflight[shard]:
                self._peak_inflight[shard] = self._inflight[shard]

    def finish(self, shard: int, rows_scanned: int, index_lookups: int, seconds: float) -> None:
        with self._lock:
            self._inflight[shard] -= 1
            self._probes[shard] += 1
            self._rows_scanned[shard] += rows_scanned
            self._index_lookups[shard] += index_lookups
            self._busy_seconds[shard] += seconds
            if seconds > self._max_probe_seconds[shard]:
                self._max_probe_seconds[shard] = seconds

    def snapshot(self) -> List[Dict[str, float]]:
        """One plain dict per shard, for logging and the serving layer."""
        with self._lock:
            out: List[Dict[str, float]] = []
            for shard in range(len(self._probes)):
                probes = self._probes[shard]
                out.append(
                    {
                        "shard": float(shard),
                        "probes": float(probes),
                        "rows_scanned": float(self._rows_scanned[shard]),
                        "index_lookups": float(self._index_lookups[shard]),
                        "busy_seconds": self._busy_seconds[shard],
                        "mean_probe_seconds": (
                            self._busy_seconds[shard] / probes if probes else 0.0
                        ),
                        "max_probe_seconds": self._max_probe_seconds[shard],
                        "queue_depth": float(self._inflight[shard]),
                        "peak_queue_depth": float(self._peak_inflight[shard]),
                    }
                )
            return out


class ShardedRelationalStore:
    """A work-accounted relational store over N hash-partitioned shards.

    Parameters
    ----------
    shards:
        Number of in-process shards (each its own :class:`TripleTable`; the
        term dictionary is shared so identifiers stay globally consistent).
    cost_model:
        Prices both the total-work and the parallel wall-clock view of every
        execution.
    config:
        Placement tunables (skew threshold for subject-sharding).
    engine:
        ``"idspace"`` (default) gathers integer id *tuples* from shard
        probes; ``"columnar"`` backs every shard with a
        :class:`~repro.relstore.columnar.ColumnarTripleTable` — probes
        return id *columns*, the coordinator concatenates them per column in
        shard order and joins with the batch kernels.  Either way the
        central merge decodes exactly once, post-merge, and the logical
        work counters are identical.
    """

    def __init__(
        self,
        shards: int = 4,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        config: Optional[ShardingConfig] = None,
        dictionary: Optional[TermDictionary] = None,
        engine: str = "idspace",
    ):
        if shards < 1:
            raise ValueError("a sharded store needs at least one shard")
        if engine not in ("idspace", "columnar"):
            raise ValueError(f"unknown sharded relational engine {engine!r}")
        self.shard_count = shards
        self.cost_model = cost_model
        self.config = config or ShardingConfig()
        self.engine = engine
        self.dictionary = dictionary if dictionary is not None else TermDictionary()
        table_cls = ColumnarTripleTable if engine == "columnar" else TripleTable
        self._tables = [table_cls(self.dictionary) for _ in range(shards)]
        #: predicate_id -> owner shard index, or SUBJECT_SHARDED.
        self._placement: Dict[int, int] = {}
        #: term_id -> stable hash shard (memoized CRC32 of the term's N3
        #: form, so placement is identical no matter the insertion order).
        self._term_shard: Dict[int, int] = {}
        self._statistics: Optional[TableStatistics] = None
        #: Store-level incremental statistics (distinct counts must be global:
        #: a subject-sharded predicate's objects repeat across shards), built
        #: by one scan on first use.
        self._tracker: Optional[StatisticsTracker] = None
        #: query → (plan, compiled plan) memo, invalidated by generation.
        self._bound_plans = BoundPlanCache()
        self._plan_generation = 0
        self.shard_metrics = ShardMetricsBoard(shards)
        self.total_insert_seconds = 0.0
        self._scatter_pool = None  # duck-typed: anything with .map(fn, iterable)
        self._scatter_pool_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Scatter pool (optional read-side parallelism)
    # ------------------------------------------------------------------ #
    def attach_scatter_pool(self, pool) -> bool:
        """Run shard probes on ``pool`` (``ThreadPoolExecutor``-like).

        Probes only read shard state, so any number of concurrent queries may
        scatter onto the same pool.  The pool must be dedicated to probes —
        submitting probes to a pool whose workers are themselves waiting on
        this store's queries would deadlock.

        Returns ``False`` (leaving the existing pool in place) when a
        *different* pool is already attached: with several serving layers on
        one store, the first attachment wins and later ones must not clobber
        it.  Every query on the store scatters via whatever pool is attached
        at probe time; if that pool's owner shuts it down mid-probe the
        executor falls back to serial probing, so a losing/closing service
        can never crash another's queries.
        """
        with self._scatter_pool_lock:
            if self._scatter_pool is not None and self._scatter_pool is not pool:
                return False
            self._scatter_pool = pool
            return True

    def detach_scatter_pool(self, pool) -> None:
        """Detach ``pool`` if it is the currently attached scatter pool."""
        with self._scatter_pool_lock:
            if self._scatter_pool is pool:
                self._scatter_pool = None

    @property
    def has_scatter_pool(self) -> bool:
        """Whether some serving layer currently provides a scatter pool."""
        return self._scatter_pool is not None

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #
    def placement(self, predicate: IRI) -> Optional[int]:
        """The shard owning ``predicate``, ``SUBJECT_SHARDED``, or ``None``."""
        predicate_id = self.dictionary.lookup(predicate)
        if predicate_id is None:
            return None
        return self._placement.get(predicate_id)

    def subject_sharded_predicates(self) -> List[IRI]:
        """Predicates currently spread by subject hash (mega-predicates)."""
        out = []
        for predicate_id, placement in self._placement.items():
            if placement == SUBJECT_SHARDED:
                term = self.dictionary.decode(predicate_id)
                if isinstance(term, IRI):
                    out.append(term)
        return sorted(out, key=lambda p: p.value)

    def _shard_of_term(self, term_id: int) -> int:
        """Stable shard of one term: CRC32 of its N3 form modulo N.

        Memoized per term id; independent of dictionary id assignment, so
        *hash placement* never depends on insertion order.  (Note that
        *promotion* to subject-sharding is not order-independent: the skew
        limit is evaluated against the store size at mutation time and is
        sticky, so interleaving loads differently can promote different
        predicates — answers and total work are unaffected, only the
        parallel-time breakdown.)
        """
        shard = self._term_shard.get(term_id)
        if shard is None:
            term = self.dictionary.decode(term_id)
            shard = zlib.crc32(term.n3().encode("utf-8")) % self.shard_count
            self._term_shard[term_id] = shard
        return shard

    def _shard_for_row(self, row: Row) -> int:
        subject_id, predicate_id, _ = row
        placement = self._placement.get(predicate_id)
        if placement is None:
            placement = self._shard_of_term(predicate_id)
            self._placement[predicate_id] = placement
        if placement == SUBJECT_SHARDED:
            return self._shard_of_term(subject_id)
        return placement

    def _skew_limit(self) -> float:
        ideal = len(self) / self.shard_count
        return max(float(self.config.min_subject_shard_rows), self.config.skew_threshold * ideal)

    def _maybe_promote(self, predicate_id: int) -> None:
        """Promote a predicate to subject-sharding once it exceeds the skew
        threshold; its rows move from the owner shard to their subject
        shards.  One shard needs no balancing, and promotion never reverts."""
        if self.shard_count == 1:
            return
        owner = self._placement.get(predicate_id)
        if owner is None or owner == SUBJECT_SHARDED:
            return
        table = self._tables[owner]
        if table.live_row_count(predicate_id) <= self._skew_limit():
            return
        self._placement[predicate_id] = SUBJECT_SHARDED
        for row in table.extract_predicate(predicate_id):
            self._tables[self._shard_of_term(row[0])].insert_row(row)
        # Reclaim the mass-deleted slots at once: promotion runs under the
        # exclusive-mutation contract, and leaving the tombstones in place
        # would tax every later index lookup on the old owner shard.
        table.compact()

    # ------------------------------------------------------------------ #
    # Loading and updates
    # ------------------------------------------------------------------ #
    def load(self, triples: Iterable[Triple] | TripleSet) -> float:
        """Bulk-load triples; returns the modelled insert latency."""
        return self.insert(triples)

    def insert(self, triples: Iterable[Triple]) -> float:
        """Insert new knowledge, routing each row to its shard."""
        inserted = 0
        touched: set[int] = set()
        tracker = self._tracker
        for triple in triples:
            row = self.dictionary.encode_triple(triple)
            shard = self._shard_for_row(row)
            if self._tables[shard].insert_row(row):
                inserted += 1
                touched.add(row[1])
                if tracker is not None:
                    tracker.add(row)
        self._statistics = None
        self._plan_generation += 1
        for predicate_id in touched:
            self._maybe_promote(predicate_id)
        seconds = self.cost_model.relational_insert_seconds(inserted)
        self.total_insert_seconds += seconds
        return seconds

    def delete(self, triple: Triple) -> bool:
        row = self.dictionary.lookup_triple(triple)
        if row is None:
            return False
        subject_id, predicate_id, _ = row
        placement = self._placement.get(predicate_id)
        if placement is None:
            return False
        shard = self._shard_of_term(subject_id) if placement == SUBJECT_SHARDED else placement
        if not self._tables[shard].delete_row(row):
            return False
        if self._tracker is not None:
            self._tracker.remove(row)
        self._statistics = None
        self._plan_generation += 1
        return True

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables)

    # ------------------------------------------------------------------ #
    # Metadata
    # ------------------------------------------------------------------ #
    def predicates(self) -> List[IRI]:
        merged: set[IRI] = set()
        for table in self._tables:
            merged.update(table.predicates())
        return sorted(merged, key=lambda p: p.value)

    def _tables_for_predicate(self, predicate_id: int) -> Sequence[TripleTable]:
        placement = self._placement.get(predicate_id)
        if placement is None:
            return ()
        if placement == SUBJECT_SHARDED:
            return self._tables
        return (self._tables[placement],)

    def partition(self, predicate: IRI) -> List[Triple]:
        """Every live triple of one predicate, gathered in shard order."""
        predicate_id = self.dictionary.lookup(predicate)
        if predicate_id is None:
            return []
        out: List[Triple] = []
        for table in self._tables_for_predicate(predicate_id):
            out.extend(
                self.dictionary.decode_triple(row) for row in table.scan_predicate(predicate_id)
            )
        return out

    def partition_size(self, predicate: IRI) -> int:
        predicate_id = self.dictionary.lookup(predicate)
        if predicate_id is None:
            return 0
        return sum(
            table.live_row_count(predicate_id)
            for table in self._tables_for_predicate(predicate_id)
        )

    def partition_sizes(self) -> Dict[IRI, int]:
        return {p: self.partition_size(p) for p in self.predicates()}

    def statistics(self) -> TableStatistics:
        """Global statistics across every shard.

        Content-identical to the unsharded store's statistics over the same
        data, so planning (join order, access paths) is identical too —
        sharding changes *where* rows live, never *how* queries are planned.
        """
        statistics = self._statistics
        if statistics is None:
            if self._tracker is None:
                self._tracker = StatisticsTracker.from_rows(
                    self.dictionary, (row for table in self._tables for row in table.scan())
                )
            statistics = self._statistics = self._tracker.statistics()
        return statistics

    # ------------------------------------------------------------------ #
    # Query execution (scatter-gather)
    # ------------------------------------------------------------------ #
    def plan(
        self, query: SelectQuery, pattern_order: Sequence[TriplePattern] | None = None
    ) -> RelationalPlan:
        return plan_query(
            query,
            self.statistics(),
            pattern_order=pattern_order,
            kernel_costs=kernel_costs_for_engine(self.engine),
        )

    def _bound_plan(self, query: SelectQuery) -> Tuple[RelationalPlan, CompiledPlan]:
        """The plan with every step's constants resolved once per store
        generation — each shard probe then matches by ``int ==`` only."""
        return self._bound_plans.get_or_bind(
            query, self._plan_generation, lambda: self.plan(query), self.dictionary
        )

    def execute(
        self,
        query: SelectQuery,
        work_budget: Optional[float] = None,
        extra_tables: Optional[Iterable[ResultTable]] = None,
        tables_are_views: bool = False,
        pattern_order: Sequence[TriplePattern] | None = None,
    ) -> ExecutionResult:
        """Scatter-gather execution with unsharded-identical logical work.

        The coordinator gathers *id tuples* from the shard probes, joins
        them centrally in ID space, and decodes exactly once post-merge
        (in :func:`finish_id_pipeline`) — never per shard.

        Raises :class:`~repro.errors.WorkBudgetExceeded` at the same step
        boundaries, with the same partial work, as the unsharded store.
        """
        if self.engine == "columnar":
            return self._execute_columnar(
                query, work_budget, extra_tables, tables_are_views, pattern_order
            )
        if pattern_order is None:
            plan, compiled = self._bound_plan(query)
        else:
            plan = self.plan(query, pattern_order=pattern_order)
            compiled = compile_plan(plan, self.dictionary)
        counters = WorkCounters(queries_issued=1)
        step_probe_work: List[List[Tuple[int, float]]] = []
        shard_rows_scanned = 0
        space = QueryTermSpace(self.dictionary)
        schema: Tuple[str, ...] = ()
        rows: List[IdRow] = [()]
        schema, rows = join_id_extra_tables(
            schema, rows, extra_tables, space, counters, tables_are_views, work_budget
        )

        unprobed_index_lookups = 0
        for step in compiled.steps:
            # Guard before scattering: an empty pipeline charges zero work on
            # later steps, exactly like the unsharded executor.
            if not rows:
                break
            probes = self._scatter(step)
            pattern_rows: List[IdRow] = []
            step_work: List[Tuple[int, float]] = []
            for shard, scanned, _lookups, probe_seconds, fragment in probes:
                counters.rows_scanned += scanned
                shard_rows_scanned += scanned
                step_work.append((shard, probe_seconds))
                pattern_rows.extend(fragment)
            # One *logical* index lookup per index step, exactly like the
            # unsharded executor: charged once the predicate term is known,
            # no matter how many shards were physically probed (or whether
            # the bound term turned out to be absent).
            if self._is_index_step(step) and step.predicate_id is not None:
                counters.index_lookups += 1
                if not probes:
                    # No shard was touched (bound term absent), so the lookup
                    # cost must be priced centrally or the parallel price
                    # would drop work the serial price includes.
                    unprobed_index_lookups += 1
            step_probe_work.append(step_work)
            schema, rows = join_id_pattern_rows(schema, rows, step.matcher, pattern_rows, counters)
            check_work_budget(counters, work_budget)

        result = finish_id_pipeline(schema, rows, query, counters, space)
        self._price(result, step_probe_work, shard_rows_scanned, unprobed_index_lookups)
        return result

    def _execute_columnar(
        self,
        query: SelectQuery,
        work_budget: Optional[float],
        extra_tables: Optional[Iterable[ResultTable]],
        tables_are_views: bool,
        pattern_order: Sequence[TriplePattern] | None,
    ) -> ExecutionResult:
        """The columnar twin of :meth:`execute`: shard probes return id
        *columns*, the coordinator concatenates them per column in shard
        order (the exact order the id-tuple gather produces) and joins with
        the batch kernels; decode still happens exactly once, post-merge, in
        :func:`~repro.relstore.columnar.finish_columnar_pipeline`."""
        if pattern_order is None:
            plan, compiled = self._bound_plan(query)
        else:
            plan = self.plan(query, pattern_order=pattern_order)
            compiled = compile_plan(plan, self.dictionary)
        kernels = self._tables[0].kernels
        counters = WorkCounters(queries_issued=1)
        step_probe_work: List[List[Tuple[int, float]]] = []
        shard_rows_scanned = 0
        space = QueryTermSpace(self.dictionary)
        schema: Tuple[str, ...] = ()
        cols: List[object] = []
        count = 1  # the pipeline seed: one zero-width row
        schema, cols, count = join_columnar_tables(
            schema, cols, count, extra_tables, space, counters, tables_are_views, work_budget, kernels
        )

        unprobed_index_lookups = 0
        for step in compiled.steps:
            # Guard before scattering: an empty pipeline charges zero work on
            # later steps, exactly like the unsharded executors.
            if count == 0:
                break
            probes = self._run_probes(self._scatter_targets(step), self._make_column_probe(step))
            names = step.matcher.var_names
            parts: List[List[object]] = [[] for _ in names]
            total = 0
            step_work: List[Tuple[int, float]] = []
            for shard, scanned, _lookups, probe_seconds, fragment in probes:
                counters.rows_scanned += scanned
                shard_rows_scanned += scanned
                step_work.append((shard, probe_seconds))
                fragment_cols, fragment_count = fragment
                if fragment_count:
                    for bucket, column in zip(parts, fragment_cols):
                        bucket.append(column)
                    total += fragment_count
            block_cols = [
                kernels.concat(bucket) if bucket else kernels.empty() for bucket in parts
            ]
            # One *logical* index lookup per index step, exactly like the
            # unsharded executors (see :meth:`execute`).
            if self._is_index_step(step) and step.predicate_id is not None:
                counters.index_lookups += 1
                if not probes:
                    unprobed_index_lookups += 1
            step_probe_work.append(step_work)
            schema, cols, count = join_block(
                schema, cols, count, names, block_cols, total, counters, kernels
            )
            check_work_budget(counters, work_budget)

        result = finish_columnar_pipeline(schema, cols, count, query, counters, space, kernels)
        self._price(result, step_probe_work, shard_rows_scanned, unprobed_index_lookups)
        return result

    def execute_capped(
        self, query: SelectQuery, work_budget: float
    ) -> Tuple[Optional[ExecutionResult], float]:
        """Run with a cap; return ``(result_or_None, seconds)`` like the
        unsharded store (the counterfactual thread stopped at ``λ·c₁``)."""
        return capped_execution(self, query, work_budget)

    # ------------------------------------------------------------------ #
    # Estimation (no execution)
    # ------------------------------------------------------------------ #
    def estimate_query_seconds(self, query: SelectQuery) -> float:
        """Price a query from statistics only (used by the ideal/one-off tuners)."""
        return estimate_relational_seconds(self.statistics(), self.cost_model, query)

    # ------------------------------------------------------------------ #
    # Durable snapshots (repro.persist)
    # ------------------------------------------------------------------ #
    def content_token(self) -> int:
        """A token that changes whenever the stored triples change (data
        mutations only — see :meth:`RelationalStore.content_token`)."""
        return self._plan_generation

    def snapshot_state(self) -> dict:
        """JSON-serializable store state: per-shard rows **and** the placement
        map, so a restore reproduces the exact physical layout — including
        sticky mega-predicate promotions, which are load-order dependent and
        could not be re-derived from the rows alone."""
        return {
            "kind": "sharded",
            "engine": self.engine,
            "shards": self.shard_count,
            "config": {
                "skew_threshold": self.config.skew_threshold,
                "min_subject_shard_rows": self.config.min_subject_shard_rows,
            },
            "placement": {str(pid): shard for pid, shard in self._placement.items()},
            "shard_rows": [table.dump_rows() for table in self._tables],
            "statistics": self.statistics().to_payload(),
            "total_insert_seconds": self.total_insert_seconds,
        }

    @classmethod
    def restore_state(
        cls,
        state: dict,
        dictionary: TermDictionary,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> "ShardedRelationalStore":
        """Rebuild a sharded store from :meth:`snapshot_state`.

        Placement is installed *before* the rows, and rows go straight to
        their recorded shard (no re-routing, no promotion checks): the
        restored store answers queries with bit-identical logical work and
        the same per-shard physical breakdown as the snapshotted one.
        """
        store = cls(
            shards=int(state["shards"]),
            cost_model=cost_model,
            config=ShardingConfig(
                skew_threshold=float(state["config"]["skew_threshold"]),
                min_subject_shard_rows=int(state["config"]["min_subject_shard_rows"]),
            ),
            dictionary=dictionary,
            # Pre-columnar snapshots carry no engine field.
            engine=state.get("engine", "idspace"),
        )
        store._placement = {int(pid): int(shard) for pid, shard in state["placement"].items()}
        for table, flat in zip(store._tables, state["shard_rows"]):
            table.load_rows(flat)
        store._statistics = TableStatistics.from_payload(state["statistics"])
        store.total_insert_seconds = float(state["total_insert_seconds"])
        return store

    # ------------------------------------------------------------------ #
    # Scatter internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _is_index_step(step: CompiledStep) -> bool:
        return step.access_path in ("index_subject", "index_object")

    def _scatter(self, step: CompiledStep) -> List[_Probe]:
        """Probe every shard the step's access path touches.

        The step's constants arrive pre-resolved on the :class:`CompiledStep`
        (one dictionary lookup per plan binding, not per execution).  The
        returned probes are ordered by shard index, so the gathered pattern
        rows are deterministic regardless of pool scheduling.  The *logical*
        index-lookup charge happens at the coordinator (one per step, like
        the unsharded executor); per-shard physical lookups are recorded in
        the probe tuples and the metrics board only.
        """
        return self._run_probes(self._scatter_targets(step), self._make_probe(step))

    def _scatter_targets(
        self, step: CompiledStep
    ) -> List[Tuple[int, str, Optional[tuple]]]:
        """The ``(shard, access, args)`` probe targets of one plan step —
        placement-derived and shared by the id-tuple and columnar gathers.
        Empty when the step cannot match (unknown predicate or bound term)."""
        if step.access_path == "table_scan":
            return [(shard, "table_scan", None) for shard in range(self.shard_count)]

        predicate_id = step.predicate_id
        if predicate_id is None:
            return []
        placement = self._placement.get(predicate_id)

        if step.access_path == "index_subject":
            subject_id = step.subject_id
            if subject_id is None or placement is None:
                return []
            if placement == SUBJECT_SHARDED:
                shards: Sequence[int] = (self._shard_of_term(subject_id),)
            else:
                shards = (placement,)
            return [(shard, "lookup_subject", (predicate_id, subject_id)) for shard in shards]
        if step.access_path == "index_object":
            object_id = step.object_id
            if object_id is None or placement is None:
                return []
            if placement == SUBJECT_SHARDED:
                shards = range(self.shard_count)
            else:
                shards = (placement,)
            return [(shard, "lookup_object", (predicate_id, object_id)) for shard in shards]
        if step.access_path == "partition_scan":
            if placement is None:
                return []
            if placement == SUBJECT_SHARDED:
                shards = range(self.shard_count)
            else:
                shards = (placement,)
            return [(shard, "scan_predicate", (predicate_id,)) for shard in shards]
        # pragma: no cover - defensive, mirrors RelationalExecutor
        raise QueryExecutionError(f"unknown access path {step.access_path!r}")

    def _run_probes(self, targets: List[Tuple[int, str, Optional[tuple]]], probe) -> list:
        pool = self._scatter_pool
        if pool is not None and len(targets) > 1:
            try:
                return list(pool.map(probe, targets))
            except RuntimeError as exc:
                # Only the submission-time "cannot schedule new futures after
                # shutdown" case falls back: the pool's owner closed it under
                # us.  Probes are pure reads, so serial re-probing is safe (at
                # worst the metrics board double-counts the probes the pool
                # managed to start).  Any other RuntimeError is a real probe
                # failure and must surface.
                if "shutdown" not in str(exc):
                    raise
        return [probe(target) for target in targets]

    def _make_probe(
        self, step: CompiledStep
    ) -> Callable[[Tuple[int, str, Optional[tuple]]], _Probe]:
        matcher = step.matcher
        tables = self._tables
        board = self.shard_metrics
        cost_model = self.cost_model

        def probe(target: Tuple[int, str, Optional[tuple]]) -> _Probe:
            shard, access, args = target
            table = tables[shard]
            board.begin(shard)
            scanned = 0
            fragment: List[IdRow] = []
            try:
                if access == "table_scan":
                    rows: Iterable[Row] = table.scan()
                    lookups = 0
                elif access == "scan_predicate":
                    rows = table.scan_predicate(*args)
                    lookups = 0
                elif access == "lookup_subject":
                    rows = table.lookup_subject(*args)
                    lookups = 1
                else:  # lookup_object
                    rows = table.lookup_object(*args)
                    lookups = 1
                # Pure ID-space matching: the probe never touches the term
                # dictionary, only compares ints (late materialization — the
                # coordinator decodes once, after the central merge).
                local = WorkCounters()
                fragment = match_id_rows(matcher, rows, local)
                scanned = local.rows_scanned
            finally:
                seconds = cost_model.relational_scan_seconds(scanned, lookups)
                board.finish(shard, scanned, lookups, seconds)
            return (shard, scanned, lookups, seconds, fragment)

        return probe

    def _make_column_probe(self, step: CompiledStep):
        """The columnar probe: scans match against the shard's cached column
        blocks; point lookups mask the same blocks down to the index key
        (order-identical to the secondary-index bucket walk, see
        :func:`~repro.relstore.columnar.match_index_block`).  Work charging,
        pricing, and the metrics board are identical to :meth:`_make_probe`
        — only the fragment payload changes, to ``(columns, count)``."""
        matcher = step.matcher
        tables = self._tables
        board = self.shard_metrics
        cost_model = self.cost_model

        def probe(target: Tuple[int, str, Optional[tuple]]):
            shard, access, args = target
            table = tables[shard]
            board.begin(shard)
            scanned = 0
            lookups = 0
            fragment: Tuple[List[object], int] = ([], 0)
            try:
                local = WorkCounters()
                if access == "table_scan":
                    _, fragment_cols, fragment_count = table.match_full(matcher, local)
                elif access == "scan_predicate":
                    _, fragment_cols, fragment_count = table.match_partition(
                        matcher, args[0], local
                    )
                else:
                    position = 0 if access == "lookup_subject" else 2
                    lookups = 1
                    _, fragment_cols, fragment_count = table.match_index(
                        matcher, args[0], position, args[1], local
                    )
                scanned = local.rows_scanned
                fragment = (list(fragment_cols), fragment_count)
            finally:
                seconds = cost_model.relational_scan_seconds(scanned, lookups)
                board.finish(shard, scanned, lookups, seconds)
            return (shard, scanned, lookups, seconds, fragment)

        return probe

    # ------------------------------------------------------------------ #
    # Pricing
    # ------------------------------------------------------------------ #
    def _price(
        self,
        result: ExecutionResult,
        step_probe_work: List[List[Tuple[int, float]]],
        shard_rows_scanned: int,
        unprobed_index_lookups: int = 0,
    ) -> None:
        cost_model = self.cost_model
        per_shard = [0.0] * self.shard_count
        step_costs: List[List[float]] = []
        for step_work in step_probe_work:
            for shard, cost in step_work:
                per_shard[shard] += cost
            step_costs.append([cost for _, cost in step_work])
        central = WorkCounters(
            rows_scanned=result.counters.rows_scanned - shard_rows_scanned,
            rows_joined=result.counters.rows_joined,
            index_lookups=unprobed_index_lookups,
            view_rows_scanned=result.counters.view_rows_scanned,
            results_produced=result.counters.results_produced,
        )
        parallel = cost_model.scatter_gather_seconds(step_costs, central)
        serial = cost_model.relational_query_seconds(result.counters)
        result.seconds = parallel
        result.scatter = ScatterGatherInfo(
            shard_seconds=tuple(per_shard),
            parallel_seconds=parallel,
            serial_seconds=serial,
        )
