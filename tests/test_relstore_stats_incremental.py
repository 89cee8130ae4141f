"""Write-path maintenance against from-scratch oracles.

Both relational stores keep their statistics in a
:class:`~repro.relstore.stats.StatisticsTracker` fed row by row, keep a live
row count per predicate in every :class:`~repro.relstore.table.TripleTable`,
and let tables compact themselves once tombstones outnumber live rows.  None
of that may be observable:

* after every step of a seeded random write sequence — inserts, deletes,
  re-inserts of deleted triples, deletes of absent triples, compactions,
  sharded promotions — ``statistics()`` equals a from-scratch pass
  (:func:`~repro.relstore.stats.predicate_statistics` over a full scan, and
  :func:`~repro.relstore.stats.collect_statistics` where there is one
  table) field for field and in key order, and ``partition_sizes()`` equals
  a count by scan; the same holds across ``restore_with_log`` of a snapshot
  plus its WAL, and for the writes that follow it;
* a table that compacted itself answers every template family with
  byte-identical bindings and bit-identical work counters compared with an
  uncompacted table of the same contents restored from a snapshot.
"""

from __future__ import annotations

import json
import random
import sys
import threading
from collections import Counter, defaultdict

import pytest

from repro import (
    DualStore,
    QueryService,
    RelationalStore,
    ServiceConfig,
    ShardedRelationalStore,
    ShardingConfig,
    SnapshotPolicy,
    generate_watdiv,
    generate_yago,
    watdiv_workload,
)
from repro.persist.wal import restore_with_log
from repro.rdf import IRI, Triple
from repro.rdf.dictionary import TermDictionary
from repro.relstore.stats import TableStatistics, collect_statistics, predicate_statistics

#: Aggressive skew settings so inserts promote predicates (extract_predicate).
AGGRESSIVE = ShardingConfig(skew_threshold=0.2, min_subject_shard_rows=16)

UNSHARDED_ENGINES = ("reference", "idspace", "columnar")
SHARDED_CASES = [(shards, engine) for shards in (1, 4) for engine in ("idspace", "columnar")]
STEPS = 60


# --------------------------------------------------------------------------- #
# Oracles
# --------------------------------------------------------------------------- #
def _tables(store):
    return store._tables if isinstance(store, ShardedRelationalStore) else [store.table]


def _dictionary(store):
    return store.table.dictionary if isinstance(store, RelationalStore) else store.dictionary


def _scanned_rows(store):
    return [row for table in _tables(store) for row in table.scan()]


def oracle_statistics(store) -> TableStatistics:
    """Statistics counted from scratch over a full scan of every table."""
    rows = _scanned_rows(store)
    decode = _dictionary(store).decode
    by_predicate = defaultdict(list)
    for row in rows:
        by_predicate[decode(row[1])].append(row)
    order = sorted(by_predicate, key=lambda p: p.value)
    return TableStatistics(
        total_rows=len(rows),
        per_predicate={p: predicate_statistics(by_predicate[p]) for p in order},
    )


def assert_matches_oracle(store, context: str) -> None:
    """Statistics and partition sizes equal a from-scratch scan, in order."""
    oracle = oracle_statistics(store)
    expected = list(oracle.per_predicate.items())
    statistics = store.statistics()
    assert statistics.total_rows == oracle.total_rows == len(store), context
    assert list(statistics.per_predicate.items()) == expected, context
    if isinstance(store, RelationalStore):
        scratch = collect_statistics(store.table)
        assert scratch.total_rows == statistics.total_rows, context
        assert list(scratch.per_predicate.items()) == expected, context

    decode = _dictionary(store).decode
    counted = Counter(decode(row[1]) for row in _scanned_rows(store))
    assert list(store.partition_sizes().items()) == [(p, counted[p]) for p, _ in expected], context
    assert store.predicates() == list(oracle.per_predicate), context
    for table in _tables(store):
        assert table.tombstone_count <= len(table), context


# --------------------------------------------------------------------------- #
# Seeded write sequences
# --------------------------------------------------------------------------- #
def _pool(seed: int):
    """Base triples to load plus never-loaded triples to write with."""
    base = generate_yago(target_triples=500, seed=seed).triples
    seen = set(base)
    extra = [t for t in generate_yago(target_triples=700, seed=seed).triples if t not in seen]
    return list(base), extra


def ex(name: str) -> IRI:
    return IRI(f"http://example.org/{name}")


#: A triple none of whose terms was ever stored.
UNKNOWN = Triple(ex("nobody"), ex("knows"), ex("nothing"))


def drive(store, write, rng: random.Random, present, absent, deleted, steps: int, context: str):
    """Apply ``steps`` random writes through ``write(op, triples)``; check
    the store against the oracle after every one.  ``present``/``absent``/
    ``deleted`` are the caller's model of the contents (mutated in place)."""
    for step in range(steps):
        kind = rng.choice(("insert", "insert", "delete", "delete", "reinsert", "absent", "compact"))
        if kind == "insert" and absent:
            batch = rng.sample(absent, min(len(absent), rng.randint(1, 12)))
            # Duplicates of stored rows must not count twice.
            batch += rng.sample(sorted(present, key=str), min(len(present), 2))
            write("insert", batch)
            for triple in batch:
                if triple not in present:
                    present.add(triple)
                    absent.remove(triple)
        elif kind == "delete" and present:
            batch = rng.sample(sorted(present, key=str), min(len(present), rng.randint(1, 12)))
            write("delete", batch)
            for triple in batch:
                present.discard(triple)
                deleted.append(triple)
        elif kind == "reinsert" and deleted:
            batch = [t for t in rng.sample(deleted, min(len(deleted), 6)) if t not in present]
            write("insert", batch)
            present.update(batch)
            deleted[:] = [t for t in deleted if t not in present]
        elif kind == "absent":
            batch = [UNKNOWN] + [t for t in deleted[:3] if t not in present]
            write("delete", batch)
        else:
            for table in _tables(store):
                table.compact()
        assert_matches_oracle(store, f"{context} step {step} ({kind})")


def _store_writer(store):
    def write(op, triples):
        if op == "insert":
            store.insert(triples)
        else:
            for triple in triples:
                store.delete(triple)

    return write


def _run_store_case(store, seed: int, context: str):
    base, extra = _pool(seed)
    rng = random.Random(seed)
    store.load(base)
    assert_matches_oracle(store, f"{context} after load")
    present, deleted = set(base), []
    # Writes before the tracker exists only drop statistics; the first
    # statistics() call then builds it by one scan.
    fresh = type(store).restore_state(
        json.loads(json.dumps(store.snapshot_state())),
        TermDictionary.from_payload(_dictionary(store).to_payload()),
    )
    assert fresh._tracker is None and fresh._statistics is not None
    fresh.delete(base[0])
    fresh.insert(extra[:3])
    assert fresh._statistics is None and fresh._tracker is None
    assert_matches_oracle(fresh, f"{context} restored")
    write = _store_writer(store)
    drive(store, write, rng, present, list(extra), deleted, STEPS, context)
    # A predicate that loses its last row disappears, and comes back.
    smallest = min(store.predicates(), key=lambda p: (store.partition_size(p), p.value))
    rows = store.partition(smallest)
    write("delete", rows)
    assert smallest not in store.predicates()
    assert_matches_oracle(store, f"{context} without {smallest.value}")
    write("insert", rows)
    assert_matches_oracle(store, f"{context} with {smallest.value} back")
    return store


@pytest.mark.parametrize("engine", UNSHARDED_ENGINES)
@pytest.mark.parametrize("seed", (3, 17))
def test_unsharded_statistics_track_every_write(engine, seed):
    _run_store_case(RelationalStore(engine=engine), seed, f"{engine}/seed{seed}")


@pytest.mark.parametrize("shards,engine", SHARDED_CASES)
@pytest.mark.parametrize("seed", (3, 17))
def test_sharded_statistics_track_every_write(shards, engine, seed):
    store = ShardedRelationalStore(shards=shards, config=AGGRESSIVE, engine=engine)
    _run_store_case(store, seed, f"sharded{shards}/{engine}/seed{seed}")
    if shards > 1:
        assert store.subject_sharded_predicates(), "no promotion exercised"


def test_promotion_moves_rows_without_changing_statistics():
    store = ShardedRelationalStore(shards=4, config=AGGRESSIVE)
    mega = ex("mega")
    store.load(Triple(ex(f"s{i}"), ex("p"), ex(f"o{i % 5}")) for i in range(40))
    assert_matches_oracle(store, "before promotion")
    assert store._tracker is not None
    store.insert(Triple(ex(f"s{i}"), mega, ex(f"o{i % 3}")) for i in range(60))
    assert mega in store.subject_sharded_predicates()
    assert_matches_oracle(store, "after promotion")


@pytest.mark.parametrize("make_store", [RelationalStore, lambda: ShardedRelationalStore(shards=4)])
def test_concurrent_readers_all_see_the_refreshed_statistics(make_store):
    """Readers refresh statistics on plan binding, several at once; each
    must get the statistics of the current contents, never a half-applied
    refresh (writes stay exclusive, as the serving gate guarantees)."""
    base, extra = _pool(5)
    store = make_store()
    store.load(base)
    store.statistics()
    readers = 6
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(25):
            batch = extra[round_ * 4 : round_ * 4 + 4]
            store.insert(batch)
            store.delete(base[round_])
            barrier = threading.Barrier(readers)
            seen, errors = [], []

            def read():
                try:
                    barrier.wait(timeout=10)
                    seen.append(store.statistics().to_payload())
                except Exception as exc:  # reported below, with the round
                    errors.append(exc)

            threads = [
                threading.Thread(target=read, name=f"reader-{i}", daemon=True)
                for i in range(readers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads), f"round {round_}: reader hung"
            assert not errors, f"round {round_}: {errors[0]!r}"
            assert len(seen) == readers
            expected = oracle_statistics(store).to_payload()
            assert all(payload == expected for payload in seen), round_
    finally:
        sys.setswitchinterval(switch)


# --------------------------------------------------------------------------- #
# Snapshot + WAL restore, then more writes on the restored store
# --------------------------------------------------------------------------- #
RESTORE_CASES = [{"engine": engine} for engine in UNSHARDED_ENGINES] + [
    {"shards": shards, "sharding": AGGRESSIVE, "engine": engine} for shards, engine in SHARDED_CASES
]


def _case_id(dual_kwargs) -> str:
    return "-".join(str(v) for k, v in dual_kwargs.items() if k != "sharding")


@pytest.mark.parametrize("dual_kwargs", RESTORE_CASES, ids=_case_id)
def test_restore_with_log_keeps_statistics_exact(dual_kwargs, tmp_path):
    base, extra = _pool(29)
    rng = random.Random(29)
    dual = DualStore(**dual_kwargs).load(base)
    present, absent, deleted = set(base), list(extra), []
    policy = SnapshotPolicy(path=tmp_path, every_mutations=10_000, log=True, keep=2)
    with QueryService(dual, ServiceConfig(snapshot=policy)) as service:

        def write(op, triples):
            if op == "insert":
                service.insert(triples)
            else:
                service.delete(triples)

        drive(dual.relational, write, rng, present, absent, deleted, STEPS // 2, "live")
        warm = restore_with_log(tmp_path).dual
    restored = warm.relational
    assert restored.statistics().to_payload() == dual.relational.statistics().to_payload()
    assert warm.design.partition_sizes == dual.design.partition_sizes
    assert_matches_oracle(restored, "restored")

    def write_restored(op, triples):
        if op == "insert":
            warm.insert(triples)
        else:
            warm.delete(triples)

    drive(restored, write_restored, rng, present, absent, deleted, STEPS // 2, "restored")
    assert warm.design.partition_sizes == restored.partition_sizes()


# --------------------------------------------------------------------------- #
# Self-compaction is invisible
# --------------------------------------------------------------------------- #
def _restored_copy(store: RelationalStore) -> RelationalStore:
    return RelationalStore.restore_state(
        json.loads(json.dumps(store.snapshot_state())),
        TermDictionary.from_payload(store.table.dictionary.to_payload()),
    )


@pytest.mark.parametrize("engine", UNSHARDED_ENGINES)
def test_self_compaction_is_invisible_to_every_template_family(engine):
    dataset = generate_watdiv(target_triples=500, seed=31)
    rng = random.Random(7)
    queries = []
    for family in ("linear", "star", "snowflake", "complex"):
        workload = watdiv_workload(dataset, family=family, seed=rng.randrange(10_000))
        queries.extend(workload.randomized(seed=rng.randrange(10_000))[:6])
    triples = list(dataset.triples)
    store = RelationalStore(engine=engine)
    store.load(triples)
    table = store.table
    present, missing = list(triples), []
    compactions = 0
    for _ in range(1600):
        if missing and (len(present) < len(triples) // 2 or rng.random() < 0.4):
            triple = missing.pop(rng.randrange(len(missing)))
            store.insert([triple])
            present.append(triple)
        else:
            victim = present.pop(rng.randrange(len(present)))
            missing.append(victim)
            compacts_now = table.tombstone_count + 1 > len(table) - 1
            twin = _restored_copy(store) if compacts_now else None
            before = table.tombstone_count
            assert store.delete(victim)
            assert (table.tombstone_count < before) == compacts_now
            if twin is not None:
                compactions += 1
                assert twin.delete(victim)
                assert table.tombstone_count == 0 and twin.table.tombstone_count == 1
                for index, query in enumerate(queries):
                    got, want = store.execute(query), twin.execute(query)
                    context = f"{engine} compaction {compactions} query {index}"
                    assert got.variables == want.variables, context
                    assert got.bindings == want.bindings, context
                    assert got.counters.as_dict() == want.counters.as_dict(), context
        assert table.tombstone_count <= len(table)
    assert compactions >= 2
