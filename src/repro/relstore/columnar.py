"""Vectorized columnar execution engine (``RelationalStore(engine="columnar")``).

The third engine behind the :class:`~repro.relstore.backend.RelationalBackend`
seam.  Where the ID-space engine (PR 3) pipelines python *int tuples* row by
row, this engine stores and pipelines **term-id columns**:

* :class:`ColumnarTripleTable` keeps the row-oriented base table (mutations,
  tombstones, snapshots, and the secondary indexes are inherited unchanged,
  so WAL/snapshot payloads stay byte-identical) and materializes per-predicate
  **column blocks** — stdlib ``array('q')`` id buffers in partition-scan
  order — lazily, invalidated by the same mutations that bump the store's
  plan generation.  With numpy present (a *feature probe*, never a hard
  dependency) the buffers are wrapped zero-copy as ``int64`` vectors.
* Pattern access is mask selection over those blocks: constants arrive
  pre-resolved on the :class:`~repro.relstore.executor.CompiledStep` (bound
  once per store generation through the existing
  :class:`~repro.relstore.executor.BoundPlanCache`), so a partition scan with
  no residual checks is a zero-copy handover of the cached columns.
* Hash joins build per-column batch probes on the join column: the numpy
  kernel is a sort/searchsorted merge producing gather index vectors, the
  stdlib kernel a bucket dict over one key column — either way the pipeline
  state is a list of columns, never row tuples.
* DISTINCT/LIMIT/FILTER run on id vectors; decode happens exactly once, at
  projection, via :meth:`~repro.rdf.dictionary.TermDictionary.decode_many`
  (through :meth:`QueryTermSpace.decode_map`).  Rule REP007 lints this module
  for stray per-row ``decode``/``lookup`` calls inside loops.

**Work-accounting contract.**  The logical
:class:`~repro.cost.counters.WorkCounters` are bit-identical to the ID-space
engine by construction: ``rows_scanned`` is charged per row a block covers
(the block length — matching or not, exactly what the row loop charges),
``rows_joined`` per produced join tuple (the gather length), ``index_lookups``
at the same two points, and ``results_produced`` after LIMIT.  Output order is
also identical: selections preserve block order (stable masks), join gathers
emit probe rows in pipeline order with build rows in block order (the numpy
merge uses a stable argsort), and DISTINCT keeps first occurrences.  The
differential suite (``tests/test_differential_engine.py``) asserts byte-equal
bindings and counter equality against both retained engines.
"""

from __future__ import annotations

import os
import weakref
from array import array
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cost.counters import WorkCounters
from repro.errors import QueryExecutionError
from repro.execution import ExecutionResult, ResultTable
from repro.rdf.terms import Literal
from repro.resilience.deadline import PROBE_STRIDE, current_deadline
from repro.sparql.ast import Binding, SelectQuery

from repro.relstore.executor import (
    CompiledPattern,
    CompiledPlan,
    CompiledStep,
    QueryTermSpace,
    _TRUE_ON_EQUAL,
    _UNSAFE_EQUAL_DATATYPES,
    _compile_filter_side,
    check_work_budget,
    compile_plan,
)
from repro.relstore.planner import RelationalPlan
from repro.relstore.table import TripleTable

__all__ = [
    "ColumnarTripleTable",
    "ColumnarExecutor",
    "numpy_available",
    "numpy_enabled",
    "FORCE_STDLIB_ENV",
    "join_block",
    "join_columnar_tables",
    "finish_columnar_pipeline",
]

try:  # pragma: no cover - feature probe, exercised indirectly everywhere
    import numpy as _numpy
except ImportError:  # pragma: no cover - numpy-free environments
    _numpy = None

#: Environment kill-switch: set to force the stdlib-``array`` kernels even
#: when numpy is importable (the benchmark measures both paths with it).
FORCE_STDLIB_ENV = "REPRO_COLUMNAR_FORCE_STDLIB"


def numpy_available() -> bool:
    """Whether the numpy fast path *could* run in this interpreter."""
    return _numpy is not None


def numpy_enabled() -> bool:
    """The feature probe: numpy importable and not disabled via env."""
    return _numpy is not None and not os.environ.get(FORCE_STDLIB_ENV)


# ---------------------------------------------------------------------- #
# Batch kernels: one strategy object per backing representation
# ---------------------------------------------------------------------- #
class _StdlibKernels:
    """Id-vector kernels over stdlib ``array('q')`` buffers and lists.

    Selections are index lists; gathers are list comprehensions (C-speed
    loops); the join builds a position-bucket dict over the key column only,
    so no row tuples are ever materialized.
    """

    name = "stdlib"

    @staticmethod
    def column(buffer: array):
        return buffer

    @staticmethod
    def empty():
        return ()

    @staticmethod
    def from_ints(values) -> List[int]:
        return list(values)

    @staticmethod
    def tolist(col) -> List[int]:
        return list(col)

    @staticmethod
    def take(col, sel):
        return [col[i] for i in sel]

    @staticmethod
    def concat(parts):
        if len(parts) == 1:
            return parts[0]
        out: List[int] = []
        for part in parts:
            out.extend(part)
        return out

    @staticmethod
    def equal_selection(const_pairs, dup_pairs, count: int):
        """Indices passing every ``col == id`` / ``col == col`` check.

        ``None`` means "every row" (no checks at all) so the caller can hand
        cached columns over without copying.
        """
        if not const_pairs and not dup_pairs:
            return None
        if len(const_pairs) == 1 and not dup_pairs:
            col, required = const_pairs[0]
            return [i for i, value in enumerate(col) if value == required]
        sel = range(count)
        for col, required in const_pairs:
            sel = [i for i in sel if col[i] == required]
        for left_col, right_col in dup_pairs:
            sel = [i for i in sel if left_col[i] == right_col[i]]
        return list(sel)

    @staticmethod
    def hash_join(probe_col, build_col):
        """Gather indices of ``probe ⋈ build`` on one id column.

        Output order matches the row engine's hash join exactly: probe rows
        in pipeline order, and within one key the build rows in block order
        (buckets accumulate positions ascending).
        """
        buckets: Dict[int, List[int]] = {}
        get_bucket = buckets.get
        for position, key in enumerate(build_col):
            bucket = get_bucket(key)
            if bucket is None:
                buckets[key] = [position]
            else:
                bucket.append(position)
        left: List[int] = []
        right: List[int] = []
        left_append = left.append
        right_append = right.append
        left_extend = left.extend
        right_extend = right.extend
        for position, key in enumerate(probe_col):
            bucket = get_bucket(key)
            if bucket is not None:
                if len(bucket) == 1:
                    left_append(position)
                    right_append(bucket[0])
                else:
                    left_extend([position] * len(bucket))
                    right_extend(bucket)
        return left, right, len(left)

    @staticmethod
    def hash_join_multi(probe_cols, build_cols):
        return _hash_join_multi(probe_cols, build_cols)

    @staticmethod
    def cartesian(left_count: int, right_count: int):
        left: List[int] = []
        right: List[int] = []
        block = list(range(right_count))
        for i in range(left_count):
            left.extend([i] * right_count)
            right.extend(block)
        return left, right, left_count * right_count

    @staticmethod
    def distinct_selection(key_cols, count: int):
        """First-occurrence indices of each distinct key, ascending.

        With no key columns every row carries the same (empty) key — only
        the first survives, mirroring the row engine's all-``None`` key.
        """
        if count == 0:
            return []
        if not key_cols:
            return [0]
        out: List[int] = []
        append = out.append
        seen = set()
        add = seen.add
        if len(key_cols) == 1:
            for i, key in enumerate(key_cols[0]):
                if key not in seen:
                    add(key)
                    append(i)
            return out
        for i, key in enumerate(zip(*key_cols)):
            if key not in seen:
                add(key)
                append(i)
        return out


#: Build-side group index memo for the numpy merge join, keyed by the key
#: column's identity.  The build side of a join step is usually a *cached*
#: partition column (the zero-copy handover path), so across the repeated
#: executions the serving layer sees, its stable argsort + grouping — the
#: O(n log n) part of every join — is computed once per block, not per query.
#: Entries validate against a weakref (a recycled ``id()`` can never alias a
#: live array) and die with their arrays; a small sweep bounds the dict.
_GROUP_INDEX_CACHE: Dict[int, Tuple[object, tuple]] = {}
_GROUP_INDEX_CACHE_LIMIT = 512


def _numpy_group_index(build):
    """``(order, unique_keys, group_starts, group_counts)`` of a key column."""
    key = id(build)
    entry = _GROUP_INDEX_CACHE.get(key)
    if entry is not None:
        ref, data = entry
        if ref() is build:
            return data
    np = _numpy
    order = np.argsort(build, kind="stable")
    sorted_keys = build[order]
    unique_keys, group_starts = np.unique(sorted_keys, return_index=True)
    group_counts = np.diff(np.append(group_starts, len(sorted_keys)))
    data = (order, unique_keys, group_starts, group_counts)
    if len(_GROUP_INDEX_CACHE) >= _GROUP_INDEX_CACHE_LIMIT:
        for dead in [k for k, (ref, _) in _GROUP_INDEX_CACHE.items() if ref() is None]:
            del _GROUP_INDEX_CACHE[dead]
        if len(_GROUP_INDEX_CACHE) >= _GROUP_INDEX_CACHE_LIMIT:
            _GROUP_INDEX_CACHE.clear()
    _GROUP_INDEX_CACHE[key] = (weakref.ref(build), data)
    return data


class _NumpyKernels:
    """Vectorized id-vector kernels over ``int64`` numpy arrays.

    The hash join is a sort/searchsorted merge: a *stable* argsort of the
    build keys groups equal keys while preserving block order inside each
    group, so the emitted gather order is identical to the dict-bucket join
    (and therefore to the row engine).
    """

    name = "numpy"

    @staticmethod
    def column(buffer: array):
        if len(buffer) == 0:
            return _numpy.empty(0, dtype=_numpy.int64)
        return _numpy.frombuffer(buffer, dtype=_numpy.int64)

    @staticmethod
    def empty():
        return _numpy.empty(0, dtype=_numpy.int64)

    @staticmethod
    def from_ints(values):
        return _numpy.asarray(values, dtype=_numpy.int64)

    @staticmethod
    def tolist(col) -> List[int]:
        return col.tolist()

    @staticmethod
    def take(col, sel):
        return col[sel]

    @staticmethod
    def concat(parts):
        if len(parts) == 1:
            return parts[0]
        return _numpy.concatenate(parts)

    @staticmethod
    def equal_selection(const_pairs, dup_pairs, count: int):
        mask = None
        for col, required in const_pairs:
            check = col == required
            mask = check if mask is None else (mask & check)
        for left_col, right_col in dup_pairs:
            check = left_col == right_col
            mask = check if mask is None else (mask & check)
        if mask is None:
            return None
        return _numpy.nonzero(mask)[0]

    @staticmethod
    def hash_join(probe_col, build_col):
        np = _numpy
        build = np.asarray(build_col, dtype=np.int64)
        probe = np.asarray(probe_col, dtype=np.int64)
        order, unique_keys, group_starts, group_counts = _numpy_group_index(build)
        slot = np.searchsorted(unique_keys, probe)
        clamped = np.minimum(slot, len(unique_keys) - 1)
        matched = (slot < len(unique_keys)) & (unique_keys[clamped] == probe)
        probe_positions = np.nonzero(matched)[0]
        groups = slot[probe_positions]
        counts = group_counts[groups]
        total = int(counts.sum())
        left = np.repeat(probe_positions, counts)
        out_ends = np.cumsum(counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(out_ends - counts, counts)
        right = order[np.repeat(group_starts[groups], counts) + within]
        return left, right, total

    @staticmethod
    def hash_join_multi(probe_cols, build_cols):
        return _numpy_hash_join_multi(probe_cols, build_cols)

    @staticmethod
    def cartesian(left_count: int, right_count: int):
        np = _numpy
        left = np.repeat(np.arange(left_count, dtype=np.int64), right_count)
        right = np.tile(np.arange(right_count, dtype=np.int64), left_count)
        return left, right, left_count * right_count

    @staticmethod
    def distinct_selection(key_cols, count: int):
        np = _numpy
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if not key_cols:
            return np.zeros(1, dtype=np.int64)
        if len(key_cols) == 1:
            _, first = np.unique(key_cols[0], return_index=True)
        else:
            stacked = np.stack(key_cols, axis=1)
            _, first = np.unique(stacked, axis=0, return_index=True)
        return np.sort(first)


def select_kernels(use_numpy: Optional[bool] = None):
    """The kernel strategy for one table: probe-selected unless forced.

    ``None`` consults :func:`numpy_enabled`; ``True`` requires numpy (raising
    when absent, so a misconfigured bench fails loudly); ``False`` forces the
    stdlib path.
    """
    if use_numpy is None:
        use_numpy = numpy_enabled()
    if use_numpy:
        if _numpy is None:
            raise QueryExecutionError("numpy kernels requested but numpy is not importable")
        return _NumpyKernels
    return _StdlibKernels


# ---------------------------------------------------------------------- #
# Columnar storage: the row table plus cached id-column blocks
# ---------------------------------------------------------------------- #
class ColumnarTripleTable(TripleTable):
    """A :class:`TripleTable` that serves scans as cached id-column blocks.

    The row-oriented base (mutations, tombstones, ``dump_rows``/``load_rows``
    and the secondary indexes) is inherited unchanged — snapshots and the WAL
    see the exact same logical rows, so persistence needs no new format.  On
    top, per-predicate ``(subjects, objects)`` column pairs (and one full
    ``(s, p, o)`` triple of columns for table scans) are built lazily in scan
    order and dropped on the same mutations that invalidate bound plans:
    inserts, deletes and extractions drop only the touched predicate's
    block (plus the full-table block); compactions drop everything.
    """

    def __init__(self, dictionary=None, use_numpy: Optional[bool] = None):
        super().__init__(dictionary)
        self.kernels = select_kernels(use_numpy)
        self._partition_columns: Dict[int, Tuple[object, object, int]] = {}
        self._full_columns: Optional[Tuple[object, object, object, int]] = None

    # -- mutation hooks: keep blocks coherent with the row table -------- #
    def insert_row(self, row) -> bool:
        inserted = super().insert_row(row)
        if inserted:
            self._partition_columns.pop(row[1], None)
            self._full_columns = None
        return inserted

    def delete_row(self, row) -> bool:
        removed = super().delete_row(row)
        if removed:
            self._partition_columns.pop(row[1], None)
            self._full_columns = None
        return removed

    def extract_predicate(self, predicate_id: int):
        removed = super().extract_predicate(predicate_id)
        if removed:
            self._partition_columns.pop(predicate_id, None)
            self._full_columns = None
        return removed

    def compact(self) -> int:
        reclaimed = super().compact()
        if reclaimed:
            self._partition_columns.clear()
            self._full_columns = None
        return reclaimed

    # -- block access --------------------------------------------------- #
    def partition_columns(self, predicate_id: int) -> Tuple[object, object, int]:
        """The ``(subjects, objects, count)`` block of one predicate, cached.

        Built from :meth:`scan_predicate`, so block order *is* scan order —
        the property every ordering guarantee downstream rests on.
        """
        cached = self._partition_columns.get(predicate_id)
        if cached is None:
            subjects = array("q")
            objects = array("q")
            append_subject = subjects.append
            append_object = objects.append
            for row in self.scan_predicate(predicate_id):
                append_subject(row[0])
                append_object(row[2])
            kernels = self.kernels
            cached = (kernels.column(subjects), kernels.column(objects), len(subjects))
            self._partition_columns[predicate_id] = cached
        return cached

    def full_columns(self) -> Tuple[object, object, object, int]:
        """The whole table as ``(s, p, o, count)`` columns in scan order."""
        if self._full_columns is None:
            subjects = array("q")
            predicates = array("q")
            objects = array("q")
            append_subject = subjects.append
            append_predicate = predicates.append
            append_object = objects.append
            for row in self.scan():
                append_subject(row[0])
                append_predicate(row[1])
                append_object(row[2])
            kernels = self.kernels
            self._full_columns = (
                kernels.column(subjects),
                kernels.column(predicates),
                kernels.column(objects),
                len(subjects),
            )
        return self._full_columns

    # -- block matching (the scan access paths) ------------------------- #
    def match_partition(self, matcher: CompiledPattern, predicate_id: int, counters: WorkCounters):
        subjects, objects, count = self.partition_columns(predicate_id)
        return match_block(
            matcher, {0: subjects, 2: objects}, {1: predicate_id}, count, counters, self.kernels
        )

    def match_full(self, matcher: CompiledPattern, counters: WorkCounters):
        subjects, predicates, objects, count = self.full_columns()
        return match_block(
            matcher, {0: subjects, 1: predicates, 2: objects}, {}, count, counters, self.kernels
        )

    def match_index(
        self,
        matcher: CompiledPattern,
        predicate_id: int,
        position: int,
        bound_id: int,
        counters: WorkCounters,
    ):
        subjects, objects, count = self.partition_columns(predicate_id)
        return match_index_block(
            matcher, subjects, objects, predicate_id, position, bound_id, count, counters, self.kernels
        )


# ---------------------------------------------------------------------- #
# Columnar evaluation primitives (shared with the sharded executor)
# ---------------------------------------------------------------------- #
def _empty_block(names: Tuple[str, ...], kernels):
    return names, [kernels.empty() for _ in names], 0


def match_block(
    matcher: CompiledPattern,
    columns_at: Dict[int, object],
    fixed: Dict[int, int],
    count: int,
    counters: WorkCounters,
    kernels,
):
    """Mask-select a column block against a compiled pattern.

    Charges ``rows_scanned`` for every row the block covers — matching or
    not — exactly like the per-row loop in
    :func:`~repro.relstore.executor.match_id_rows`.  ``columns_at`` maps row
    positions to columns; ``fixed`` carries positions the block holds as a
    constant (a partition block's predicate), which const checks compare
    against directly.
    """
    deadline = current_deadline()
    if deadline is not None:
        deadline.check(counters)
    counters.rows_scanned += count
    names = matcher.var_names
    if not matcher.matchable or count == 0:
        return _empty_block(names, kernels)

    const_pairs = []
    for position, required in matcher.const_checks:
        column = columns_at.get(position)
        if column is None:
            if fixed[position] != required:
                return _empty_block(names, kernels)
        else:
            const_pairs.append((column, required))
    dup_pairs = [
        (columns_at[position], columns_at[first]) for position, first in matcher.dup_checks
    ]
    selection = kernels.equal_selection(const_pairs, dup_pairs, count)
    out_cols = []
    for position in matcher.var_positions:
        column = columns_at[position]
        out_cols.append(column if selection is None else kernels.take(column, selection))
    out_count = count if selection is None else len(selection)
    return names, out_cols, out_count


def match_index_block(
    matcher: CompiledPattern,
    subjects,
    objects,
    predicate_id: int,
    position: int,
    bound_id: int,
    count: int,
    counters: WorkCounters,
    kernels,
):
    """A point lookup served as a mask over the cached partition block.

    Emits the same rows — in the same order — and charges the same
    ``rows_scanned`` as iterating the ``(predicate, key)`` secondary index
    through :func:`~repro.relstore.executor.match_id_rows`: both that index's
    bucket and the partition block list rows in insertion order, so masking
    the scan-order block down to the key is order-identical to the bucket
    walk, while the equality test runs at kernel speed instead of one Python
    iteration per indexed row.
    """
    deadline = current_deadline()
    if deadline is not None:
        deadline.check(counters)
    columns_at = {0: subjects, 2: objects}
    base = kernels.equal_selection([(columns_at[position], bound_id)], [], count)
    matched = len(base)
    # The row engine charges every row the index bucket yields, matching or
    # not (residual const checks come after the charge); `matched` is that
    # bucket's length.
    counters.rows_scanned += matched
    names = matcher.var_names
    if not matcher.matchable or not matched:
        return _empty_block(names, kernels)
    sub = {pos: kernels.take(column, base) for pos, column in columns_at.items()}
    const_pairs = []
    for pos, required in matcher.const_checks:
        if pos == position:
            continue  # the index key itself — every selected row passes
        column = sub.get(pos)
        if column is None:  # the predicate slot, fixed by the partition
            if predicate_id != required:
                return _empty_block(names, kernels)
        else:
            const_pairs.append((column, required))
    dup_pairs = [(sub[pos], sub[first]) for pos, first in matcher.dup_checks]
    selection = kernels.equal_selection(const_pairs, dup_pairs, matched)
    out_cols = []
    for pos in matcher.var_positions:
        column = sub[pos]
        out_cols.append(column if selection is None else kernels.take(column, selection))
    return names, out_cols, matched if selection is None else len(selection)


def _hash_join_multi(probe_cols: List[List[int]], build_cols: List[List[int]]):
    """Tuple-key bucket join for patterns sharing several variables."""
    buckets: Dict[Tuple[int, ...], List[int]] = {}
    get_bucket = buckets.get
    for position, key in enumerate(zip(*build_cols)):
        bucket = get_bucket(key)
        if bucket is None:
            buckets[key] = [position]
        else:
            bucket.append(position)
    left: List[int] = []
    right: List[int] = []
    left_extend = left.extend
    right_extend = right.extend
    for position, key in enumerate(zip(*probe_cols)):
        bucket = get_bucket(key)
        if bucket is not None:
            left_extend([position] * len(bucket))
            right_extend(bucket)
    return left, right, len(left)


def _numpy_hash_join_multi(probe_cols, build_cols):
    """Vectorized tuple-key join: dense-rank the composite keys, then merge.

    Both sides' key rows are ranked together by one ``np.unique(axis=0)``
    pass, so equal tuples — and only equal tuples — share a dense id; the
    single-key merge join then produces the standard probe-order /
    build-block-order gather, identical to the dict-bucket fallback.
    """
    np = _numpy
    probe = np.stack([np.asarray(col, dtype=np.int64) for col in probe_cols], axis=1)
    build = np.stack([np.asarray(col, dtype=np.int64) for col in build_cols], axis=1)
    _, inverse = np.unique(np.concatenate([probe, build], axis=0), axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)  # numpy<2.3 returns an (n, 1) inverse for axis=0
    return _NumpyKernels.hash_join(inverse[: len(probe)], inverse[len(probe) :])


def join_block(
    schema: Tuple[str, ...],
    cols: List[object],
    count: int,
    names: Tuple[str, ...],
    block_cols: List[object],
    block_count: int,
    counters: WorkCounters,
    kernels,
) -> Tuple[Tuple[str, ...], List[object], int]:
    """Hash-join a pattern block into the columnar pipeline.

    Mirrors :func:`~repro.relstore.executor.join_id_pattern_rows` decision
    for decision — the empty guard, the pipeline-seed handover, shared-key
    probing versus the cartesian fallback — and charges ``rows_joined`` per
    produced tuple at the same point, so counters and output order are
    bit-identical.
    """
    new_names = tuple(name for name in names if name not in schema)
    if count == 0 or block_count == 0:
        merged = schema + new_names
        return merged, [kernels.empty() for _ in merged], 0

    if not schema and count == 1:
        # The pipeline seed [()]: the pattern block becomes the pipeline.
        counters.rows_joined += block_count
        return tuple(names), list(block_cols), block_count

    deadline = current_deadline()
    if deadline is not None:
        deadline.check(counters)
    shared = [name for name in names if name in schema]
    name_position = {name: i for i, name in enumerate(names)}
    if shared:
        if len(shared) == 1:
            left, right, total = kernels.hash_join(
                cols[schema.index(shared[0])], block_cols[name_position[shared[0]]]
            )
        else:
            probe_cols = [cols[schema.index(name)] for name in shared]
            build_cols = [block_cols[name_position[name]] for name in shared]
            left, right, total = kernels.hash_join_multi(probe_cols, build_cols)
    else:
        left, right, total = kernels.cartesian(count, block_count)
    out_cols = [kernels.take(column, left) for column in cols]
    for name in new_names:
        out_cols.append(kernels.take(block_cols[name_position[name]], right))
    counters.rows_joined += total
    return schema + new_names, out_cols, total


def _transpose_id_rows(id_rows, width: int, kernels) -> List[object]:
    if not id_rows:
        return [kernels.empty() for _ in range(width)]
    return [kernels.from_ints(column) for column in zip(*id_rows)]


def join_columnar_table(
    schema: Tuple[str, ...],
    cols: List[object],
    count: int,
    table: ResultTable,
    space: QueryTermSpace,
    counters: WorkCounters,
    kernels,
    as_view: bool = False,
) -> Tuple[Tuple[str, ...], List[object], int]:
    """Join a migrated intermediate-result table into the columnar pipeline.

    Charging mirrors :func:`~repro.relstore.executor.join_id_result_table`:
    the table's rows are charged (as view rows when ``as_view``) only when
    the pipeline is non-empty, then the join itself runs through
    :func:`join_block` (whose seed/cartesian branches reproduce the row
    path's output order and ``rows_joined`` exactly).
    """
    table_vars = tuple(table.variables)
    new_names = tuple(name for name in table_vars if name not in schema)
    if count == 0:
        merged = schema + new_names
        return merged, [kernels.empty() for _ in merged], 0
    if as_view:
        counters.view_rows_scanned += len(table)
    else:
        counters.rows_scanned += len(table)
    id_rows = table.encoded_rows(space.encode)
    block_cols = _transpose_id_rows(id_rows, len(table_vars), kernels)
    return join_block(schema, cols, count, table_vars, block_cols, len(id_rows), counters, kernels)


def join_columnar_tables(
    schema: Tuple[str, ...],
    cols: List[object],
    count: int,
    extra_tables: Optional[Iterable[ResultTable]],
    space: QueryTermSpace,
    counters: WorkCounters,
    tables_are_views: bool,
    work_budget: Optional[float],
    kernels,
) -> Tuple[Tuple[str, ...], List[object], int]:
    """The pipeline prologue: join migrated tables, budget-checked per table."""
    for table in extra_tables or ():
        schema, cols, count = join_columnar_table(
            schema, cols, count, table, space, counters, kernels, as_view=tables_are_views
        )
        check_work_budget(counters, work_budget)
    return schema, cols, count


def _filter_selection(
    schema: Tuple[str, ...],
    cols: List[object],
    count: int,
    filters,
    space: QueryTermSpace,
    kernels,
):
    """Surviving row indices under the query's filters, or ``None`` for all.

    Semantics are byte-for-byte those of
    :func:`~repro.relstore.executor._apply_id_filters` — the id fast path for
    equal ids, the unsafe-datatype carve-out, the decode fallback — but every
    operand id is decoded **once, in batch, before the loop** via
    :meth:`QueryTermSpace.decode_map` (decoding is side-effect-free, so
    pre-decoding ids the row engine would skip cannot diverge), which is the
    REP007 discipline: no per-row decode calls inside the loop.
    """
    compiled = []
    for flt in filters:
        left = _compile_filter_side(flt.left, schema, space)
        right = _compile_filter_side(flt.right, schema, space)
        if left[0] == "unbound" or right[0] == "unbound":
            # An unbound operand fails the filter for every row.
            return kernels.from_ints([]), 0
        compiled.append((flt, left, right))

    operand_ids = set()
    positions = set()
    for _flt, (left_kind, left_value, _), (right_kind, right_value, _) in compiled:
        if left_kind == "const":
            operand_ids.add(left_value)
        else:
            positions.add(left_value)
        if right_kind == "const":
            operand_ids.add(right_value)
        else:
            positions.add(right_value)
    operand_cols = {position: kernels.tolist(cols[position]) for position in positions}
    for column in operand_cols.values():
        operand_ids.update(column)
    id_to_term = space.decode_map(operand_ids)

    def verdict_for(flt, left_kind, left_id, right_kind, right_id) -> bool:
        if left_id == right_id:
            term = id_to_term[left_id]
            if not (isinstance(term, Literal) and term.datatype in _UNSAFE_EQUAL_DATATYPES):
                return flt.operator in _TRUE_ON_EQUAL
            # Numeric literals fall through to Filter.evaluate: a double
            # may be NaN (no comparison holds, even reflexively) and a
            # malformed integer lexical must raise like the reference.
        fallback: Binding = {}
        if left_kind == "var":
            fallback[flt.left.name] = id_to_term[left_id]  # type: ignore[union-attr]
        if right_kind == "var":
            fallback[flt.right.name] = id_to_term[right_id]  # type: ignore[union-attr]
        return bool(flt.evaluate(fallback))

    # Verdicts are a pure function of the operand-id pair, so each distinct
    # (filter, left, right) triple is evaluated once — at its first occurrence
    # in row order, which keeps malformed-lexical ValueErrors surfacing at
    # exactly the row the per-row loop would raise them.
    verdicts: Dict[Tuple[int, int, int], bool] = {}
    get_verdict = verdicts.get
    deadline = current_deadline()
    keep: List[int] = []
    append = keep.append
    for i in range(count):
        if deadline is not None and not i % PROBE_STRIDE:
            deadline.check()
        keep_row = True
        for index, (flt, (left_kind, left_value, _), (right_kind, right_value, _)) in enumerate(
            compiled
        ):
            left_id = operand_cols[left_value][i] if left_kind == "var" else left_value
            right_id = operand_cols[right_value][i] if right_kind == "var" else right_value
            key = (index, left_id, right_id)
            verdict = get_verdict(key)
            if verdict is None:
                verdict = verdict_for(flt, left_kind, left_id, right_kind, right_id)
                verdicts[key] = verdict
            if not verdict:
                keep_row = False
                break
        if keep_row:
            append(i)
    if len(keep) == count:
        return None, count
    return kernels.from_ints(keep), len(keep)


def finish_columnar_pipeline(
    schema: Tuple[str, ...],
    cols: List[object],
    count: int,
    query: SelectQuery,
    counters: WorkCounters,
    space: QueryTermSpace,
    kernels,
) -> ExecutionResult:
    """The columnar epilogue: filters, projection to the bound columns,
    DISTINCT on id vectors, LIMIT by slicing, then **one batch decode** of
    the surviving projected ids into bindings.

    Shared by the unsharded and sharded columnar executors so late
    materialization (and result accounting) cannot drift between them.
    """
    deadline = current_deadline()
    if deadline is not None:
        deadline.check(counters)
    selection = None
    if query.filters and count:
        selection, count = _filter_selection(schema, cols, count, query.filters, space, kernels)

    names = query.projected_names()
    bound = [(name, schema.index(name)) for name in names if name in schema]
    projected = []
    for _name, position in bound:
        column = cols[position]
        projected.append(column if selection is None else kernels.take(column, selection))

    if query.distinct:
        distinct = kernels.distinct_selection(projected, count)
        projected = [kernels.take(column, distinct) for column in projected]
        count = len(distinct)
    if query.limit is not None and count > query.limit:
        projected = [column[: query.limit] for column in projected]
        count = query.limit

    lists = [kernels.tolist(column) for column in projected]
    id_to_term = space.decode_map(value for column in lists for value in column)
    bound_names = [name for name, _ in bound]
    bindings: List[Binding] = [
        {name: id_to_term[column[i]] for name, column in zip(bound_names, lists)}
        for i in range(count)
    ]
    counters.results_produced += len(bindings)
    return ExecutionResult(
        bindings=bindings,
        variables=tuple(names),
        counters=counters,
        store="relational",
    )


# ---------------------------------------------------------------------- #
# The executor
# ---------------------------------------------------------------------- #
class ColumnarExecutor:
    """Evaluates plans against a :class:`ColumnarTripleTable` with batch
    kernels; signature-compatible with
    :class:`~repro.relstore.executor.RelationalExecutor`."""

    def __init__(self, table: ColumnarTripleTable):
        if not isinstance(table, ColumnarTripleTable):
            raise QueryExecutionError("the columnar executor needs a ColumnarTripleTable")
        self._table = table

    def execute(
        self,
        query: SelectQuery,
        plan: RelationalPlan,
        work_budget: Optional[float] = None,
        extra_tables: Optional[Iterable[ResultTable]] = None,
        tables_are_views: bool = False,
        compiled: Optional[CompiledPlan] = None,
    ) -> ExecutionResult:
        table = self._table
        kernels = table.kernels
        dictionary = table.dictionary
        if compiled is None:
            compiled = compile_plan(plan, dictionary)
        counters = WorkCounters(queries_issued=1)
        space = QueryTermSpace(dictionary)
        schema: Tuple[str, ...] = ()
        cols: List[object] = []
        count = 1  # the pipeline seed: one zero-width row, exactly [()]
        schema, cols, count = join_columnar_tables(
            schema, cols, count, extra_tables, space, counters, tables_are_views, work_budget, kernels
        )

        for step in compiled.steps:
            # Guard before scanning: once the pipeline is empty, later steps
            # must charge zero work, exactly like the row engines.
            if count == 0:
                break
            names, block_cols, block_count = self._step_block(step, counters)
            schema, cols, count = join_block(
                schema, cols, count, names, block_cols, block_count, counters, kernels
            )
            check_work_budget(counters, work_budget)

        return finish_columnar_pipeline(schema, cols, count, query, counters, space, kernels)

    # ------------------------------------------------------------------ #
    # Access paths
    # ------------------------------------------------------------------ #
    def _step_block(self, step: CompiledStep, counters: WorkCounters):
        """One plan step's pattern block, charging work like
        :meth:`RelationalExecutor._step_rows`: scans flow through the cached
        column blocks, point lookups ride the (few-row) secondary indexes and
        are transposed into columns."""
        table = self._table
        kernels = table.kernels
        matcher = step.matcher
        if step.access_path == "table_scan":
            return table.match_full(matcher, counters)

        if step.predicate_id is None:
            return _empty_block(matcher.var_names, kernels)

        if step.access_path == "index_subject":
            counters.index_lookups += 1
            if step.subject_id is None:
                return _empty_block(matcher.var_names, kernels)
            return table.match_index(matcher, step.predicate_id, 0, step.subject_id, counters)
        if step.access_path == "index_object":
            counters.index_lookups += 1
            if step.object_id is None:
                return _empty_block(matcher.var_names, kernels)
            return table.match_index(matcher, step.predicate_id, 2, step.object_id, counters)
        if step.access_path == "partition_scan":
            return table.match_partition(matcher, step.predicate_id, counters)
        raise QueryExecutionError(  # pragma: no cover - mirrors RelationalExecutor
            f"unknown access path {step.access_path!r}"
        )
