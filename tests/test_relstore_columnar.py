"""Columnar engine internals: kernel strategies, cached column blocks,
engine plumbing validation, and the planner's kernel-cost/skew hook.

The differential suite (``test_differential_engine.py``) proves the columnar
engine indistinguishable from the reference oracle end to end; this module
pins down the pieces that make that hold — kernel output *order*, block
invalidation on mutations, the numpy feature probe, and the skew-aware
planner regression the batch cost model exists to prevent.
"""

from __future__ import annotations

import pytest

from repro import DualStore, RelationalStore, ShardedRelationalStore
from repro.errors import QueryExecutionError
from repro.rdf import IRI, Triple
from repro.relstore import columnar
from repro.relstore.columnar import (
    ColumnarTripleTable,
    _NumpyKernels,
    _StdlibKernels,
    numpy_available,
    select_kernels,
)
from repro.relstore.executor import relational_work_units
from repro.relstore.planner import KernelCostModel, kernel_costs_for_engine, plan_query
from repro.serve import QueryService, ServiceConfig
from repro.sparql import parse_query

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not importable")


def ex(name: str) -> IRI:
    return IRI(f"http://example.org/{name}")


# --------------------------------------------------------------------------- #
# Kernel strategies: both backends must emit the same gather order
# --------------------------------------------------------------------------- #
@needs_numpy
def test_numpy_and_stdlib_hash_joins_emit_identical_gather_order():
    probe = [5, 3, 5, 9, 1, 3]
    build = [3, 5, 3, 7, 5, 3]
    left_s, right_s, total_s = _StdlibKernels.hash_join(probe, build)
    left_n, right_n, total_n = _NumpyKernels.hash_join(
        _NumpyKernels.from_ints(probe), _NumpyKernels.from_ints(build)
    )
    assert total_s == total_n
    assert list(left_n) == list(left_s)
    assert list(right_n) == list(right_s)
    # Probe rows in pipeline order; within a key, build rows in block order.
    assert list(left_s) == sorted(left_s)
    assert list(right_s[:2]) == [1, 4]  # probe[0]=5 matches build rows 1 then 4


@needs_numpy
def test_numpy_distinct_selection_keeps_first_occurrence_order():
    keys = [7, 2, 7, 5, 2, 7, 5]
    assert list(_NumpyKernels.distinct_selection([_NumpyKernels.from_ints(keys)], len(keys))) == [
        0,
        1,
        3,
    ]
    assert _StdlibKernels.distinct_selection([keys], len(keys)) == [0, 1, 3]
    # Multi-column keys: (1,1) repeats, (1,2) is new.
    a, b = [1, 1, 1], [1, 2, 1]
    pair = [_NumpyKernels.from_ints(a), _NumpyKernels.from_ints(b)]
    assert list(_NumpyKernels.distinct_selection(pair, 3)) == [0, 1]
    assert _StdlibKernels.distinct_selection([a, b], 3) == [0, 1]


@needs_numpy
def test_numpy_and_stdlib_cartesian_agree():
    assert list(map(list, _NumpyKernels.cartesian(2, 3)[:2])) == list(
        map(list, _StdlibKernels.cartesian(2, 3)[:2])
    )


def test_select_kernels_honours_the_stdlib_kill_switch(monkeypatch):
    monkeypatch.setenv(columnar.FORCE_STDLIB_ENV, "1")
    assert select_kernels() is _StdlibKernels
    assert not columnar.numpy_enabled()
    # An explicit True still overrides the probe (the bench uses this).
    if numpy_available():
        assert select_kernels(True) is _NumpyKernels


def test_select_kernels_fails_loudly_when_numpy_is_forced_but_absent(monkeypatch):
    monkeypatch.setattr(columnar, "_numpy", None)
    with pytest.raises(QueryExecutionError):
        select_kernels(True)
    assert select_kernels(None) is _StdlibKernels  # probe degrades silently


# --------------------------------------------------------------------------- #
# Cached column blocks follow the row table through mutations
# --------------------------------------------------------------------------- #
def _columnar_store() -> RelationalStore:
    store = RelationalStore(engine="columnar")
    store.load(
        [
            Triple(ex("a"), ex("p"), ex("x")),
            Triple(ex("b"), ex("p"), ex("y")),
            Triple(ex("c"), ex("q"), ex("z")),
        ]
    )
    return store

def test_insert_invalidates_only_the_touched_predicate_block():
    store = _columnar_store()
    table = store.table
    assert isinstance(table, ColumnarTripleTable)
    p_id = table.dictionary.lookup(ex("p"))
    q_id = table.dictionary.lookup(ex("q"))
    p_block = table.partition_columns(p_id)
    q_block = table.partition_columns(q_id)
    full = table.full_columns()
    assert p_block[2] == 2 and q_block[2] == 1 and full[3] == 3

    store.insert([Triple(ex("d"), ex("p"), ex("w"))])
    assert table._full_columns is None  # full scan covers every predicate
    assert q_id in table._partition_columns  # untouched predicate survives
    assert p_id not in table._partition_columns
    assert table.partition_columns(p_id)[2] == 3
    assert table.partition_columns(q_id) is q_block


def test_delete_drops_only_its_predicate_block_and_compact_drops_every_block():
    store = _columnar_store()
    table = store.table
    p_id = table.dictionary.lookup(ex("p"))
    q_id = table.dictionary.lookup(ex("q"))
    table.partition_columns(p_id)
    q_block = table.partition_columns(q_id)
    table.full_columns()
    store.delete(Triple(ex("a"), ex("p"), ex("x")))
    assert table.tombstone_count == 1  # one tombstone, two live rows: no compaction
    assert p_id not in table._partition_columns and table._full_columns is None
    assert table.partition_columns(q_id) is q_block  # untouched predicate survives
    assert table.partition_columns(p_id)[2] == 1
    # Tombstoned rows were already excluded; compaction must not resurrect.
    assert table.compact() == 1
    assert table._partition_columns == {}
    assert table.partition_columns(q_id)[2] == 1


def test_delete_keeps_other_blocks_and_matches_the_idspace_engine():
    triples = [
        Triple(ex(f"s{i}"), ex(pred), ex(f"s{(i * 7 + shift) % 12}"))
        for i in range(12)
        for pred, shift in (("p", 1), ("q", 2), ("r", 5))
    ]
    columnar_store = RelationalStore(engine="columnar")
    idspace_store = RelationalStore(engine="idspace")
    for store in (columnar_store, idspace_store):
        store.load(triples)
    queries = [
        parse_query(
            "SELECT ?a ?c WHERE { ?a <http://example.org/p> ?b . ?b <http://example.org/q> ?c . }"
        ),
        parse_query(
            "SELECT ?a ?b WHERE { ?a <http://example.org/q> ?b . ?b <http://example.org/r> ?a . }"
        ),
        parse_query("SELECT ?a ?b WHERE { ?a <http://example.org/r> ?b . }"),
    ]
    table = columnar_store.table
    ids = {name: table.dictionary.lookup(ex(name)) for name in ("p", "q", "r")}
    for victim in (triples[0], triples[4], triples[9]):
        for query in queries:  # warm every block
            columnar_store.execute(query)
        blocks = {name: table.partition_columns(pid) for name, pid in ids.items()}
        for store in (columnar_store, idspace_store):
            assert store.delete(victim)
        assert table.tombstone_count <= len(table)
        touched = victim.predicate.value.rsplit("/", 1)[1]
        for name, pid in ids.items():
            if name == touched:
                assert pid not in table._partition_columns
            else:
                assert table._partition_columns[pid] is blocks[name]
        assert table._full_columns is None
        for query in queries:
            got = columnar_store.execute(query)
            want = idspace_store.execute(query)
            assert got.bindings == want.bindings
            assert got.counters == want.counters


def test_extract_predicate_drops_that_predicates_block():
    store = _columnar_store()
    table = store.table
    p_id = table.dictionary.lookup(ex("p"))
    q_id = table.dictionary.lookup(ex("q"))
    table.partition_columns(p_id)
    table.partition_columns(q_id)
    table.extract_predicate(q_id)
    assert q_id not in table._partition_columns
    assert table._full_columns is None
    assert table.partition_columns(q_id)[2] == 0


# --------------------------------------------------------------------------- #
# Engine plumbing fails fast on misconfiguration
# --------------------------------------------------------------------------- #
def test_unknown_engine_names_are_rejected_everywhere():
    with pytest.raises(ValueError):
        RelationalStore(engine="columnarr")
    with pytest.raises(ValueError):
        ShardedRelationalStore(shards=2, engine="reference")


def test_dualstore_rejects_an_engine_conflicting_with_an_explicit_store():
    with pytest.raises(ValueError):
        DualStore(relational_store=RelationalStore(engine="reference"), engine="columnar")
    dual = DualStore(engine="columnar")
    assert dual.relational.engine == "columnar"
    assert isinstance(dual.relational.table, ColumnarTripleTable)


def test_service_config_engine_mismatch_fails_at_construction():
    dual = DualStore(engine="columnar").load([Triple(ex("a"), ex("p"), ex("x"))])
    with pytest.raises(ValueError):
        QueryService(dual, ServiceConfig(engine="idspace"))
    service = QueryService(dual, ServiceConfig(engine="columnar"))
    result = service.run_query(parse_query("SELECT ?s WHERE { ?s <http://example.org/p> ?o . }"))
    assert len(result.result) == 1


def test_sharded_snapshot_round_trips_the_engine():
    store = ShardedRelationalStore(shards=2, engine="columnar")
    store.load([Triple(ex("a"), ex("p"), ex("x")), Triple(ex("b"), ex("p"), ex("y"))])
    restored = ShardedRelationalStore.restore_state(store.snapshot_state(), store.dictionary)
    assert restored.engine == "columnar"
    assert all(isinstance(table, ColumnarTripleTable) for table in restored._tables)
    legacy = store.snapshot_state()
    legacy.pop("engine")  # pre-columnar snapshots carry no engine entry
    assert ShardedRelationalStore.restore_state(legacy, store.dictionary).engine == "idspace"


# --------------------------------------------------------------------------- #
# The planner's kernel-cost hook and the skew guard
# --------------------------------------------------------------------------- #
def test_kernel_costs_for_engine_maps_every_bundled_engine():
    assert kernel_costs_for_engine("columnar").batch_setup > 0
    for engine in ("reference", "idspace", "sqlite", "made-up"):
        assert kernel_costs_for_engine(engine).batch_setup == 0
    # The skew parameters are shared: plans cannot depend on the engine.
    row, batch = kernel_costs_for_engine("idspace"), kernel_costs_for_engine("columnar")
    assert (row.skew_guard, row.skew_blend) == (batch.skew_guard, batch.skew_blend)


def _skewed_triples():
    """A hot-key predicate the average-based estimate wildly underprices.

    ``hasTag``: 60 subjects share the ``Popular`` tag (the hot key) while 60
    more carry singleton tags, so the average object lookup is ~2 rows but
    the one lookup queries actually issue touches 60.  ``hasRole`` is the
    honest competitor: 12 rows, all ``Admin``.  ``knows`` connects them with
    deliberately asymmetric selectivity: only half the Popular subjects know
    an Admin, plus ten unpopular subjects who do.
    """
    triples = []
    for i in range(60):
        triples.append(Triple(ex(f"a{i}"), ex("hasTag"), ex("Popular")))
        triples.append(Triple(ex(f"b{i}"), ex("hasTag"), ex(f"unique{i}")))
    for i in range(12):
        triples.append(Triple(ex(f"d{i}"), ex("hasRole"), ex("Admin")))
    for i in range(30):
        triples.append(Triple(ex(f"a{i}"), ex("knows"), ex(f"d{i % 12}")))
    for i in range(30, 60):
        triples.append(Triple(ex(f"a{i}"), ex("knows"), ex(f"e{i}")))
    for i in range(10):
        triples.append(Triple(ex(f"b{i}"), ex("knows"), ex("d0")))
    return triples


SKEW_QUERY = """
SELECT ?x ?y WHERE {
  ?x <http://example.org/hasTag> <http://example.org/Popular> .
  ?y <http://example.org/hasRole> <http://example.org/Admin> .
  ?x <http://example.org/knows> ?y .
}
"""


def test_skew_guard_demotes_the_hot_key_lookup():
    """With skew statistics the plan leads with the honest 12-row lookup;
    pricing lookups at the average (skew guard disabled) front-loads the
    hot-key lookup instead — the regression the guard exists to prevent."""
    store = RelationalStore(engine="columnar")
    store.load(_skewed_triples())
    query = parse_query(SKEW_QUERY)

    plan = store.plan(query)
    assert plan.steps[0].pattern.predicate == ex("hasRole")
    assert plan.steps[2].pattern.predicate == ex("hasTag")

    blind = KernelCostModel(name="no-skew-guard", skew_guard=1e18)
    old_plan = plan_query(query, store.statistics(), kernel_costs=blind)
    assert old_plan.steps[0].pattern.predicate == ex("hasTag")

    # Engine invariance: every bundled cost model picks the same join order.
    idspace = RelationalStore()
    idspace.load(_skewed_triples())
    assert [s.pattern for s in idspace.plan(query)] == [s.pattern for s in plan]

    # The reordering is not cosmetic: executing the old ordering joins
    # through the 60-row hot-key pipeline and does strictly more work.
    new_run = store.execute(query)
    old_run = store.execute(query, pattern_order=[s.pattern for s in old_plan])
    assert {tuple(sorted(b.items())) for b in new_run.bindings} == {
        tuple(sorted(b.items())) for b in old_run.bindings
    }
    assert new_run.counters.rows_joined < old_run.counters.rows_joined
    assert relational_work_units(new_run.counters) < relational_work_units(old_run.counters)

    # And both engines execute the skew-aware plan identically.
    cold = idspace.execute(query)
    assert cold.bindings == new_run.bindings
    assert cold.counters.as_dict() == new_run.counters.as_dict()


def test_skew_statistics_survive_the_payload_round_trip():
    store = RelationalStore(engine="columnar")
    store.load(_skewed_triples())
    stats = store.statistics()
    hot = stats.per_predicate[ex("hasTag")]
    assert hot.max_object_rows == 60
    assert hot.worst_object_rows == 60

    from repro.relstore.stats import TableStatistics

    restored = TableStatistics.from_payload(stats.to_payload())
    assert restored.per_predicate[ex("hasTag")].max_object_rows == 60

    # Pre-skew payloads (3-entry lists) fall back to the average estimate.
    legacy_payload = stats.to_payload()
    for entry in legacy_payload["per_predicate"].values():
        del entry[3:]
    legacy = TableStatistics.from_payload(legacy_payload)
    legacy_hot = legacy.per_predicate[ex("hasTag")]
    assert legacy_hot.max_object_rows == 0
    assert legacy_hot.worst_object_rows == legacy_hot.object_lookup_rows
