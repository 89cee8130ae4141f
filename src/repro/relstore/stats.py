"""Table statistics and cardinality estimation for the relational store.

The planner uses these statistics to order joins and to decide between index
lookups and partition scans; the tuner uses them to estimate the benefit of
moving a partition without executing anything (``estimate_only`` mode).

Both relational stores maintain their statistics incrementally through a
:class:`StatisticsTracker`, so a write costs O(rows written) rather than a
full rebuild.  :func:`collect_statistics` / :func:`predicate_statistics`
compute the same values from scratch by scanning; they are the oracle the
differential tests hold the tracker to, not a production path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import IRI, Variable
from repro.sparql.ast import SelectQuery, TriplePattern

from repro.relstore.table import Row, TripleTable

__all__ = ["TableStatistics", "StatisticsTracker", "collect_statistics", "predicate_statistics"]


@dataclass(frozen=True)
class PredicateStatistics:
    """Per-predicate statistics used for selectivity estimation.

    ``max_subject_rows`` / ``max_object_rows`` record the *largest* point
    lookup the predicate can serve (the hottest key's row count).  They feed
    the planner's skew guard: under heavy skew the average lookup size wildly
    underprices the lookups that actually dominate a batched join.  A value
    of ``0`` means "not collected" (pre-skew snapshots); the ``worst_*``
    properties then fall back to the average-based estimate.
    """

    cardinality: int
    distinct_subjects: int
    distinct_objects: int
    max_subject_rows: int = 0
    max_object_rows: int = 0

    @property
    def avg_fanout(self) -> float:
        """Average objects per subject (≥ 1 when the predicate exists)."""
        if self.distinct_subjects == 0:
            return 0.0
        return self.cardinality / self.distinct_subjects

    @property
    def avg_fanin(self) -> float:
        """Average subjects per object."""
        if self.distinct_objects == 0:
            return 0.0
        return self.cardinality / self.distinct_objects

    @property
    def subject_lookup_rows(self) -> int:
        """Expected rows of one ``(predicate, subject)`` point lookup.

        The distinct-count estimate ``cardinality / distinct_subjects``,
        rounded and floored at one row — what an index-path plan step should
        be priced at instead of the whole partition's cardinality.
        """
        if self.cardinality == 0:
            return 0
        return max(1, int(round(self.avg_fanout)))

    @property
    def object_lookup_rows(self) -> int:
        """Expected rows of one ``(predicate, object)`` point lookup."""
        if self.cardinality == 0:
            return 0
        return max(1, int(round(self.avg_fanin)))

    @property
    def worst_subject_rows(self) -> int:
        """Largest ``(predicate, subject)`` lookup; average-based fallback
        when the worst case was never collected."""
        if self.cardinality == 0:
            return 0
        return self.max_subject_rows or self.subject_lookup_rows

    @property
    def worst_object_rows(self) -> int:
        """Largest ``(predicate, object)`` lookup, with the same fallback."""
        if self.cardinality == 0:
            return 0
        return self.max_object_rows or self.object_lookup_rows


@dataclass
class TableStatistics:
    """Statistics snapshot for a :class:`~repro.relstore.table.TripleTable`."""

    total_rows: int
    per_predicate: Dict[IRI, PredicateStatistics]

    def predicate_cardinality(self, predicate: IRI) -> int:
        stats = self.per_predicate.get(predicate)
        return stats.cardinality if stats else 0

    def cardinalities(self) -> Dict[IRI, int]:
        return {p: s.cardinality for p, s in self.per_predicate.items()}

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #
    def estimate_index_rows(self, pattern: TriplePattern, access_path: str) -> int:
        """Point-lookup estimate for an index-path plan step.

        Uses the per-predicate distinct counts: an ``index_subject`` step is
        expected to touch ``cardinality / distinct_subjects`` rows, an
        ``index_object`` step ``cardinality / distinct_objects``.  Returns 0
        for unknown predicates (the lookup cannot match anything).
        """
        if not isinstance(pattern.predicate, IRI):
            return 0
        stats = self.per_predicate.get(pattern.predicate)
        if stats is None:
            return 0
        if access_path == "index_subject":
            return stats.subject_lookup_rows
        return stats.object_lookup_rows

    def estimate_index_rows_worst(self, pattern: TriplePattern, access_path: str) -> int:
        """Worst-case row count of an index-path plan step (the hottest key).

        The planner's skew guard compares this against the average estimate:
        when the gap is large, pricing every lookup at the average picks
        plans that are optimal for typical keys and pessimal for the keys a
        batched join actually spends its time on.
        """
        if not isinstance(pattern.predicate, IRI):
            return 0
        stats = self.per_predicate.get(pattern.predicate)
        if stats is None:
            return 0
        if access_path == "index_subject":
            return stats.worst_subject_rows
        return stats.worst_object_rows

    def estimate_pattern_rows(self, pattern: TriplePattern) -> int:
        """Estimated number of rows matching a single triple pattern."""
        if isinstance(pattern.predicate, IRI):
            stats = self.per_predicate.get(pattern.predicate)
            if stats is None:
                return 0
            rows = stats.cardinality
            if not isinstance(pattern.subject, Variable):
                rows = max(1, int(round(stats.avg_fanout)))
            if not isinstance(pattern.object, Variable):
                rows = max(1, int(round(stats.avg_fanin)))
            return rows
        # Unbound predicate: every row is a candidate.
        rows = self.total_rows
        if not isinstance(pattern.subject, Variable) or not isinstance(pattern.object, Variable):
            rows = max(1, rows // max(1, len(self.per_predicate)))
        return rows

    # ------------------------------------------------------------------ #
    # Durable snapshots (repro.persist)
    # ------------------------------------------------------------------ #
    def to_payload(self) -> dict:
        """A JSON-serializable snapshot of the statistics.

        Recomputing statistics after a restore would yield identical values
        (they are a pure function of the rows), but persisting them lets a
        warm restart skip the recompute pass entirely — the planner is ready
        on the first served query.
        """
        return {
            "total_rows": self.total_rows,
            "per_predicate": {
                predicate.value: [
                    s.cardinality,
                    s.distinct_subjects,
                    s.distinct_objects,
                    s.max_subject_rows,
                    s.max_object_rows,
                ]
                for predicate, s in self.per_predicate.items()
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TableStatistics":
        # Pre-skew snapshots carry 3-entry lists; the worst-case fields then
        # stay 0 and the ``worst_*`` properties fall back to the averages.
        return cls(
            total_rows=int(payload["total_rows"]),
            per_predicate={
                IRI(value): PredicateStatistics(
                    cardinality=int(entry[0]),
                    distinct_subjects=int(entry[1]),
                    distinct_objects=int(entry[2]),
                    max_subject_rows=int(entry[3]) if len(entry) > 3 else 0,
                    max_object_rows=int(entry[4]) if len(entry) > 4 else 0,
                )
                for value, entry in payload["per_predicate"].items()
            },
        )

    def estimate_query_work(self, query: SelectQuery) -> float:
        """Rough relational work units (rows touched) for a whole query.

        The estimate sums per-pattern scans and models each join as producing
        the smaller side's cardinality scaled by a fan-out factor.  It is
        deliberately simple — enough to rank plans and to let the tuner score
        partitions without execution.
        """
        pattern_rows = [self.estimate_pattern_rows(p) for p in query.patterns]
        if not pattern_rows:
            return 0.0
        scan_work = float(sum(pattern_rows))
        ordered = sorted(pattern_rows)
        intermediate = float(ordered[0])
        join_work = 0.0
        for rows in ordered[1:]:
            intermediate = min(intermediate * 1.2, float(intermediate + rows))
            join_work += intermediate
        return scan_work + join_work


class StatisticsTracker:
    """Table statistics kept current row by row.

    For each predicate id the tracker holds the cardinality and the
    subject→count and object→count maps a scan would build.  The owning store
    feeds it every row it actually inserts (:meth:`add`) or deletes
    (:meth:`remove`); row moves between shards are not changes and are not
    fed.  :meth:`statistics` rebuilds :class:`PredicateStatistics` only for
    the predicates touched since the previous call and returns them in
    sorted-IRI order — the order a from-scratch pass produces, so snapshot
    payloads are unchanged.

    Writes happen under the stores' exclusive-mutation contract, but
    :meth:`statistics` runs on readers (plan binding), possibly several at
    once, so its refresh is serialized by a lock.
    """

    def __init__(self, dictionary: TermDictionary):
        self._dictionary = dictionary
        self._cardinality: Dict[int, int] = {}
        self._subjects: Dict[int, Dict[int, int]] = {}
        self._objects: Dict[int, Dict[int, int]] = {}
        self._total_rows = 0
        #: predicate ids whose statistics are stale.
        self._dirty: Set[int] = set()
        #: predicate id -> (IRI, statistics) for every predicate with rows.
        self._built: Dict[int, Tuple[IRI, PredicateStatistics]] = {}
        #: ``_built`` keys in IRI order; ``None`` when the key set changed.
        self._order: Optional[List[int]] = None
        self._lock = threading.Lock()

    @classmethod
    def from_rows(cls, dictionary: TermDictionary, rows: Iterable[Row]) -> "StatisticsTracker":
        """A tracker over existing rows (one scan; the lazy first build)."""
        tracker = cls(dictionary)
        add = tracker.add
        for row in rows:
            add(row)
        return tracker

    def add(self, row: Row) -> None:
        subject_id, predicate_id, object_id = row
        subjects = self._subjects.get(predicate_id)
        if subjects is None:
            subjects = self._subjects[predicate_id] = {}
            self._objects[predicate_id] = {}
            self._cardinality[predicate_id] = 0
        objects = self._objects[predicate_id]
        subjects[subject_id] = subjects.get(subject_id, 0) + 1
        objects[object_id] = objects.get(object_id, 0) + 1
        self._cardinality[predicate_id] += 1
        self._total_rows += 1
        self._dirty.add(predicate_id)

    def remove(self, row: Row) -> None:
        """Forget one row the store removed (it must have been added)."""
        subject_id, predicate_id, object_id = row
        remaining = self._cardinality[predicate_id] - 1
        self._total_rows -= 1
        self._dirty.add(predicate_id)
        if not remaining:
            del self._cardinality[predicate_id]
            del self._subjects[predicate_id]
            del self._objects[predicate_id]
            return
        self._cardinality[predicate_id] = remaining
        _decrement(self._subjects[predicate_id], subject_id)
        _decrement(self._objects[predicate_id], object_id)

    def statistics(self) -> TableStatistics:
        """Current statistics; a fresh object the caller may keep."""
        with self._lock:
            for predicate_id in self._dirty:
                self._refresh(predicate_id)
            self._dirty.clear()
            built = self._built
            if self._order is None:
                self._order = sorted(built, key=lambda pid: built[pid][0].value)
            per_predicate = dict(built[pid] for pid in self._order)
            return TableStatistics(total_rows=self._total_rows, per_predicate=per_predicate)

    def _refresh(self, predicate_id: int) -> None:
        subjects = self._subjects.get(predicate_id)
        if subjects is None:
            if self._built.pop(predicate_id, None) is not None:
                self._order = None
            return
        term = self._dictionary.decode(predicate_id)
        if not isinstance(term, IRI):  # pragma: no cover - predicates are IRIs
            return
        objects = self._objects[predicate_id]
        if predicate_id not in self._built:
            self._order = None
        self._built[predicate_id] = (
            term,
            PredicateStatistics(
                cardinality=self._cardinality[predicate_id],
                distinct_subjects=len(subjects),
                distinct_objects=len(objects),
                max_subject_rows=max(subjects.values()),
                max_object_rows=max(objects.values()),
            ),
        )


def _decrement(counts: Dict[int, int], key: int) -> None:
    remaining = counts[key] - 1
    if remaining:
        counts[key] = remaining
    else:
        del counts[key]


def predicate_statistics(rows: Iterable[Row]) -> PredicateStatistics:
    """One predicate's statistics from its (possibly sharded) rows, counted
    from scratch (the oracle for :class:`StatisticsTracker`)."""
    subject_counts: Dict[int, int] = {}
    object_counts: Dict[int, int] = {}
    cardinality = 0
    for subject_id, _, object_id in rows:
        cardinality += 1
        subject_counts[subject_id] = subject_counts.get(subject_id, 0) + 1
        object_counts[object_id] = object_counts.get(object_id, 0) + 1
    return PredicateStatistics(
        cardinality=cardinality,
        distinct_subjects=len(subject_counts),
        distinct_objects=len(object_counts),
        max_subject_rows=max(subject_counts.values(), default=0),
        max_object_rows=max(object_counts.values(), default=0),
    )


def collect_statistics(table: TripleTable) -> TableStatistics:
    """Statistics computed from scratch by scanning the table's partition
    index (the oracle for :class:`StatisticsTracker`)."""
    per_predicate: Dict[IRI, PredicateStatistics] = {}
    for predicate in table.predicates():
        predicate_id = table.dictionary.lookup(predicate)
        if predicate_id is None:
            continue
        per_predicate[predicate] = predicate_statistics(table.scan_predicate(predicate_id))
    return TableStatistics(total_rows=len(table), per_predicate=per_predicate)
