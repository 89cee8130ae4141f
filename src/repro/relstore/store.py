"""Relational store facade (the MySQL stand-in of the dual-store structure).

The relational store holds the *entire* knowledge graph at all times.  It is
cheap to update (plain row inserts) but its complex-query latency grows with
the data size because every triple pattern turns into a partition scan that
feeds a join pipeline.

The facade wires together the triple table, statistics, planner, executor,
optional materialized views, and the cost model that converts work counters
into seconds.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.cost.counters import WorkCounters
from repro.cost.model import CostModel, DEFAULT_COST_MODEL
from repro.errors import SnapshotError, WorkBudgetExceeded
from repro.execution import ExecutionResult, ResultTable
from repro.rdf.graph import TripleSet
from repro.rdf.terms import IRI, Triple
from repro.sparql.ast import SelectQuery, TriplePattern

from repro.relstore.columnar import ColumnarExecutor, ColumnarTripleTable
from repro.relstore.executor import (
    BoundPlanCache,
    CompiledPlan,
    RelationalExecutor,
    relational_work_units,
)
from repro.relstore.planner import RelationalPlan, kernel_costs_for_engine, plan_query
from repro.relstore.reference import ReferenceExecutor
from repro.relstore.stats import StatisticsTracker, TableStatistics
from repro.relstore.table import TripleTable
from repro.relstore.views import MaterializedView, MaterializedViewManager

__all__ = [
    "RelationalStore",
    "relational_work_units",
    "capped_execution",
    "estimate_relational_seconds",
]


def capped_execution(store, query: SelectQuery, work_budget: float):
    """Run ``store.execute`` under a work cap; ``(result_or_None, seconds)``.

    The paper's counterfactual thread stopped at ``λ·c₁``: on budget
    exhaustion the partial work is priced as plain row scans.  Shared by the
    unsharded and sharded stores so the counterfactual pricing convention
    can never drift between them.
    """
    try:
        result = store.execute(query, work_budget=work_budget)
        return result, result.seconds
    except WorkBudgetExceeded as exc:
        partial = WorkCounters(rows_scanned=int(exc.partial_work), queries_issued=1)
        return None, store.cost_model.relational_query_seconds(partial)


def estimate_relational_seconds(
    statistics: TableStatistics, cost_model: CostModel, query: SelectQuery
) -> float:
    """Price a query from statistics only (the ideal/one-off tuners' path)."""
    work = statistics.estimate_query_work(query)
    counters = WorkCounters(rows_scanned=int(work), queries_issued=1)
    return cost_model.relational_query_seconds(counters)


class RelationalStore:
    """A work-accounted relational triple store.

    Parameters
    ----------
    cost_model:
        Converts work counters into latency seconds on every execution.
    view_row_budget:
        When given, a :class:`MaterializedViewManager` is attached with that
        row budget (used by the RDB-views baseline).
    engine:
        ``"idspace"`` (default) runs the late-materialization ID-space
        engine with its bound-plan memo; ``"columnar"`` runs the vectorized
        columnar engine (term-id columns, mask selection, batched hash
        joins — numpy-accelerated when available) with the same memo;
        ``"reference"`` runs the retained decode-per-row executor (the
        differential oracle and the benchmark baseline), which re-plans and
        re-resolves constants per execution like the pre-PR-3 store did.
    dictionary:
        An existing term dictionary to encode against (the snapshot-restore
        path rebuilds the dictionary first so persisted integer rows keep
        their meaning); ``None`` starts an empty one.
    """

    def __init__(
        self,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        view_row_budget: Optional[int] = None,
        engine: str = "idspace",
        dictionary=None,
    ):
        if engine not in ("idspace", "reference", "columnar"):
            raise ValueError(f"unknown relational engine {engine!r}")
        self.cost_model = cost_model
        self.engine = engine
        if engine == "columnar":
            self.table: TripleTable = ColumnarTripleTable(dictionary)
            self._executor = ColumnarExecutor(self.table)
        elif engine == "idspace":
            self.table = TripleTable(dictionary)
            self._executor = RelationalExecutor(self.table)
        else:
            self.table = TripleTable(dictionary)
            self._executor = ReferenceExecutor(self.table)
        self._statistics: Optional[TableStatistics] = None
        #: Incremental statistics, built by one scan on first use (a load or
        #: a restore whose statistics come from the snapshot pays nothing).
        self._tracker: Optional[StatisticsTracker] = None
        #: query → (plan, compiled plan) memo, invalidated by generation.
        self._bound_plans = BoundPlanCache()
        self._plan_generation = 0
        self.view_manager: Optional[MaterializedViewManager] = (
            MaterializedViewManager(row_budget=view_row_budget) if view_row_budget is not None else None
        )
        self.total_insert_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Loading and updates
    # ------------------------------------------------------------------ #
    def load(self, triples: Iterable[Triple] | TripleSet) -> float:
        """Bulk-load triples; returns the modelled insert latency."""
        encode = self.table.dictionary.encode_triple
        insert_row = self.table.insert_row
        added = [row for row in map(encode, triples) if insert_row(row)]
        if self._tracker is not None:
            for row in added:
                self._tracker.add(row)
        self._invalidate_derived_state()
        seconds = self.cost_model.relational_insert_seconds(len(added))
        self.total_insert_seconds += seconds
        return seconds

    def _invalidate_derived_state(self) -> None:
        """Drop cached statistics and age out bound plans after any mutation.

        New terms may have entered the dictionary and cardinalities may have
        shifted, so both the plan ordering and the pre-resolved constant ids
        of every bound plan are suspect; bumping the generation makes the
        memo re-bind lazily, one query at a time.  The statistics tracker
        (when built) has already seen the written rows; the next
        :meth:`statistics` call refreshes only the predicates they touched.
        """
        self._statistics = None
        self._plan_generation += 1

    def insert(self, triples: Iterable[Triple]) -> float:
        """Insert new knowledge (the cheap-update property of the store)."""
        return self.load(triples)

    def delete(self, triple: Triple) -> bool:
        row = self.table.dictionary.lookup_triple(triple)
        if row is None or not self.table.delete_row(row):
            return False
        if self._tracker is not None:
            self._tracker.remove(row)
        self._invalidate_derived_state()
        return True

    def __len__(self) -> int:
        return len(self.table)

    # ------------------------------------------------------------------ #
    # Metadata
    # ------------------------------------------------------------------ #
    def predicates(self) -> List[IRI]:
        return self.table.predicates()

    def partition(self, predicate: IRI) -> List[Triple]:
        """The triple partition for ``predicate`` (what gets shipped to the graph store)."""
        return self.table.partition(predicate)

    def partition_size(self, predicate: IRI) -> int:
        return self.table.predicate_cardinality(predicate)

    def partition_sizes(self) -> Dict[IRI, int]:
        return self.table.cardinalities()

    def statistics(self) -> TableStatistics:
        """Current table statistics (refreshed lazily after mutations)."""
        statistics = self._statistics
        if statistics is None:
            if self._tracker is None:
                self._tracker = StatisticsTracker.from_rows(self.table.dictionary, self.table.scan())
            statistics = self._statistics = self._tracker.statistics()
        return statistics

    # ------------------------------------------------------------------ #
    # Query execution
    # ------------------------------------------------------------------ #
    def plan(self, query: SelectQuery, pattern_order: Sequence[TriplePattern] | None = None) -> RelationalPlan:
        return plan_query(
            query,
            self.statistics(),
            pattern_order=pattern_order,
            kernel_costs=kernel_costs_for_engine(self.engine),
        )

    def _bound_plan(self, query: SelectQuery) -> tuple[RelationalPlan, CompiledPlan]:
        """The query's plan with constants pre-resolved, memoized per store
        generation (the serving layer replays identical parsed queries, so a
        hit skips planning *and* every per-pattern constant lookup)."""
        return self._bound_plans.get_or_bind(
            query, self._plan_generation, lambda: self.plan(query), self.table.dictionary
        )

    def execute(
        self,
        query: SelectQuery,
        work_budget: Optional[float] = None,
        extra_tables: Optional[Iterable[ResultTable]] = None,
        tables_are_views: bool = False,
        pattern_order: Sequence[TriplePattern] | None = None,
    ) -> ExecutionResult:
        """Execute a query entirely in the relational store.

        Raises
        ------
        WorkBudgetExceeded
            When ``work_budget`` (in relational work units) is exhausted; the
            exception carries the partial work so the caller can price it.
        """
        compiled: Optional[CompiledPlan] = None
        if self.engine in ("idspace", "columnar") and pattern_order is None:
            plan, compiled = self._bound_plan(query)
        else:
            plan = self.plan(query, pattern_order=pattern_order)
        result = self._executor.execute(
            query,
            plan,
            work_budget=work_budget,
            extra_tables=extra_tables,
            tables_are_views=tables_are_views,
            compiled=compiled,
        )
        result.seconds = self.cost_model.relational_query_seconds(result.counters)
        result.store = "relational"
        return result

    def execute_capped(
        self,
        query: SelectQuery,
        work_budget: float,
    ) -> tuple[Optional[ExecutionResult], float]:
        """Run with a cap; return ``(result_or_None, seconds)``.

        On budget exhaustion the result is ``None`` and the returned seconds
        are the price of the work done so far — this is the counterfactual
        thread that the paper stops once it has run for ``λ·c₁``.
        """
        return capped_execution(self, query, work_budget)

    def execute_with_view(self, query: SelectQuery, view: MaterializedView) -> ExecutionResult:
        """Answer ``query`` using a materialized view for part of its pattern.

        The view's defining patterns are removed from the WHERE clause and the
        view rows are joined back in as a temporary table (charged as view
        rows).  Patterns not covered by the view run against the base table.
        """
        covered = set(view.patterns)
        remaining = [p for p in query.patterns if p not in covered]
        if remaining:
            residual = query.with_patterns(remaining, projection=query.projection)
        else:
            # Everything is covered: keep one pattern-free shell by projecting
            # straight from the view rows.
            residual = None

        if residual is None:
            counters = WorkCounters(view_rows_scanned=len(view.table), queries_issued=1)
            names = query.projected_names()
            bindings = [
                {name: binding[name] for name in names if name in binding}
                for binding in view.table.to_bindings()
            ]
            if query.distinct:
                seen = set()
                unique = []
                for binding in bindings:
                    key = tuple(binding.get(name) for name in names)
                    if key not in seen:
                        seen.add(key)
                        unique.append(binding)
                bindings = unique
            counters.results_produced = len(bindings)
            result = ExecutionResult(bindings=bindings, variables=tuple(names), counters=counters)
        else:
            result = self._executor.execute(
                residual,
                self.plan(residual),
                extra_tables=[view.table],
                tables_are_views=True,
            )
        result.seconds = self.cost_model.relational_query_seconds(result.counters)
        result.store = "relational"
        return result

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
        """A token that changes whenever the stored triples change.

        Data mutations (``load``/``insert``/``delete``) bump it; physical
        moves elsewhere in the dual store do not.  :mod:`repro.persist` keys
        its dataset-fingerprint cache on this, so placement-only checkpoints
        skip the full fingerprint pass."""
        return self._plan_generation

    def snapshot_state(self) -> dict:
        """JSON-serializable store state (rows + statistics; the dictionary
        is persisted separately since the graph/dual layers share it)."""
        if self.view_manager is not None:
            raise SnapshotError(
                "snapshotting a store with materialized views is not supported; "
                "drop the view manager or snapshot the base store"
            )
        return {
            "kind": "relational",
            "engine": self.engine,
            "rows": self.table.dump_rows(),
            "statistics": self.statistics().to_payload(),
            "total_insert_seconds": self.total_insert_seconds,
        }

    @classmethod
    def restore_state(
        cls, state: dict, dictionary, cost_model: CostModel = DEFAULT_COST_MODEL
    ) -> "RelationalStore":
        """Rebuild a store from :meth:`snapshot_state` against a restored
        dictionary.  Row order (and therefore index order, scan order, query
        results, and work counters) matches the snapshotted store exactly."""
        store = cls(cost_model=cost_model, engine=state["engine"], dictionary=dictionary)
        store.table.load_rows(state["rows"])
        store._statistics = TableStatistics.from_payload(state["statistics"])
        store.total_insert_seconds = float(state["total_insert_seconds"])
        return store
