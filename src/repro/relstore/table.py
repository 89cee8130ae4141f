"""The relational triple table and its secondary indexes.

The relational store keeps the *entire* knowledge graph in a single
dictionary-encoded triple table (the classic ``(subject, predicate, object)``
layout the paper describes as the most commonly used relational layout),
plus secondary indexes:

* predicate → row ids (the per-partition index used for partition extraction
  and predicate-bound scans),
* (predicate, subject) → row ids,
* (predicate, object) → row ids.

Rows are identified by dense integer row ids; deletions leave tombstones so
row ids stay stable until the table compacts itself (once tombstones
outnumber live rows).  A live-row count per predicate is kept alongside, so
sizes and the predicate list never scan.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import StorageError
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import IRI, Triple

__all__ = ["TripleTable", "Row"]

#: One stored row: (subject_id, predicate_id, object_id)
Row = Tuple[int, int, int]


class TripleTable:
    """A dictionary-encoded triple table with secondary indexes."""

    def __init__(self, dictionary: TermDictionary | None = None):
        self.dictionary = dictionary if dictionary is not None else TermDictionary()
        self._rows: List[Optional[Row]] = []
        self._row_set: Set[Row] = set()
        self._by_predicate: Dict[int, List[int]] = defaultdict(list)
        self._by_predicate_subject: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        self._by_predicate_object: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        self._tombstones = 0
        #: predicate id -> live rows; predicates without live rows have no entry.
        self._live_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Loading and mutation
    # ------------------------------------------------------------------ #
    def insert(self, triple: Triple) -> bool:
        """Insert a triple; return ``True`` when it was new."""
        return self.insert_row(self.dictionary.encode_triple(triple))

    def insert_row(self, row: Row) -> bool:
        """Insert an already-encoded row (sharded routing encodes first)."""
        if row in self._row_set:
            return False
        row_id = len(self._rows)
        self._rows.append(row)
        self._row_set.add(row)
        subject_id, predicate_id, object_id = row
        self._by_predicate[predicate_id].append(row_id)
        self._by_predicate_subject[(predicate_id, subject_id)].append(row_id)
        self._by_predicate_object[(predicate_id, object_id)].append(row_id)
        self._live_counts[predicate_id] = self._live_counts.get(predicate_id, 0) + 1
        return True

    def insert_all(self, triples: Iterable[Triple]) -> int:
        return sum(1 for triple in triples if self.insert(triple))

    def delete(self, triple: Triple) -> bool:
        """Delete a triple; return ``True`` when it was present."""
        row = self.dictionary.lookup_triple(triple)
        return row is not None and self.delete_row(row)

    def delete_row(self, row: Row) -> bool:
        """Delete an already-encoded row; return ``True`` when it was present.

        The slot is found through the row's ``(predicate, subject)`` bucket,
        so a delete costs one point lookup, not a partition walk.  The slot
        becomes a tombstone (index entries are filtered lazily on read)
        until tombstones outnumber live rows and the table compacts itself.
        """
        if row not in self._row_set:
            return False
        self._row_set.remove(row)
        subject_id, predicate_id, _ = row
        rows = self._rows
        for row_id in self._by_predicate_subject[(predicate_id, subject_id)]:
            if rows[row_id] == row:
                rows[row_id] = None
                break
        self._tombstones += 1
        remaining = self._live_counts[predicate_id] - 1
        if remaining:
            self._live_counts[predicate_id] = remaining
        else:
            del self._live_counts[predicate_id]
        # Each compaction costs O(slots) and follows at least as many deletes
        # as there are live rows left: amortized O(1) per delete, and the
        # table never holds more than about twice its live rows.
        if self._tombstones > len(self._row_set):
            self.compact()
        return True

    # ------------------------------------------------------------------ #
    # Size and statistics
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._row_set)

    @property
    def tombstone_count(self) -> int:
        return self._tombstones

    def predicates(self) -> List[IRI]:
        """All predicates present, decoded, sorted by IRI value."""
        decode = self.dictionary.decode
        out = [term for term in map(decode, self._live_counts) if isinstance(term, IRI)]
        return sorted(out, key=lambda p: p.value)

    def predicate_cardinality(self, predicate: IRI) -> int:
        predicate_id = self.dictionary.lookup(predicate)
        if predicate_id is None:
            return 0
        return self.live_row_count(predicate_id)

    def live_row_count(self, predicate_id: int) -> int:
        """Live rows of one predicate (a maintained count, no scan)."""
        return self._live_counts.get(predicate_id, 0)

    def cardinalities(self) -> Dict[IRI, int]:
        return {p: self.predicate_cardinality(p) for p in self.predicates()}

    # ------------------------------------------------------------------ #
    # Access paths (the physical operators call these)
    # ------------------------------------------------------------------ #
    def scan(self) -> Iterator[Row]:
        """Full table scan over live rows."""
        for row in self._rows:
            if row is not None:
                yield row

    def scan_predicate(self, predicate_id: int) -> Iterator[Row]:
        """Index range scan over one predicate partition."""
        for row_id in self._by_predicate.get(predicate_id, ()):
            row = self._rows[row_id]
            if row is not None:
                yield row

    def lookup_subject(self, predicate_id: int, subject_id: int) -> Iterator[Row]:
        """Point lookup on the (predicate, subject) index."""
        for row_id in self._by_predicate_subject.get((predicate_id, subject_id), ()):
            row = self._rows[row_id]
            if row is not None:
                yield row

    def lookup_object(self, predicate_id: int, object_id: int) -> Iterator[Row]:
        """Point lookup on the (predicate, object) index."""
        for row_id in self._by_predicate_object.get((predicate_id, object_id), ()):
            row = self._rows[row_id]
            if row is not None:
                yield row

    def contains(self, triple: Triple) -> bool:
        row = self.dictionary.lookup_triple(triple)
        return row is not None and row in self._row_set

    # ------------------------------------------------------------------ #
    # Partition extraction (data shipped to the graph store)
    # ------------------------------------------------------------------ #
    def partition(self, predicate: IRI) -> List[Triple]:
        """Decode every live triple of one predicate."""
        predicate_id = self.dictionary.lookup(predicate)
        if predicate_id is None:
            return []
        return [self.dictionary.decode_triple(row) for row in self.scan_predicate(predicate_id)]

    def extract_predicate(self, predicate_id: int) -> List[Row]:
        """Remove and return every live row of one predicate.

        Used by the sharded store when a mega-predicate is promoted from
        predicate-sharding to subject-sharding and its rows must move to
        other shards.  Removed slots become tombstones; the secondary-index
        entries are filtered lazily on read like every other deletion.
        """
        removed: List[Row] = []
        for row_id in self._by_predicate.get(predicate_id, ()):
            row = self._rows[row_id]
            if row is not None:
                self._rows[row_id] = None
                self._row_set.remove(row)
                self._tombstones += 1
                removed.append(row)
        self._by_predicate.pop(predicate_id, None)
        self._live_counts.pop(predicate_id, None)
        return removed

    def compact(self) -> int:
        """Rebuild the table without tombstones; return rows reclaimed.

        Live rows keep their row-id order (the order :meth:`dump_rows` and a
        snapshot restore use), so every scan and index bucket yields the
        same rows in the same order as before; live counts do not change.
        """
        if self._tombstones == 0:
            return 0
        live = [row for row in self._rows if row is not None]
        reclaimed = self._tombstones
        self._rows = []
        self._row_set = set()
        self._by_predicate = defaultdict(list)
        self._by_predicate_subject = defaultdict(list)
        self._by_predicate_object = defaultdict(list)
        self._tombstones = 0
        for row in live:
            row_id = len(self._rows)
            self._rows.append(row)
            self._row_set.add(row)
            subject_id, predicate_id, object_id = row
            self._by_predicate[predicate_id].append(row_id)
            self._by_predicate_subject[(predicate_id, subject_id)].append(row_id)
            self._by_predicate_object[(predicate_id, object_id)].append(row_id)
        return reclaimed

    # ------------------------------------------------------------------ #
    # Durable snapshots (repro.persist)
    # ------------------------------------------------------------------ #
    def dump_rows(self) -> List[int]:
        """Live rows flattened to ``[s0, p0, o0, s1, p1, o1, ...]``.

        Rows appear in row-id order with tombstones skipped — the compacted
        equivalent of the table.  Re-inserting them in this order rebuilds
        every secondary index with the same per-predicate entry order, so
        scans (and therefore query results and work counters) are identical
        to the snapshotted table's.
        """
        flat: List[int] = []
        extend = flat.extend
        for row in self._rows:
            if row is not None:
                extend(row)
        return flat

    def load_rows(self, flat: List[int]) -> int:
        """Insert rows previously produced by :meth:`dump_rows`; returns the
        number inserted.  The dictionary must already contain every id."""
        if len(flat) % 3:
            raise StorageError(f"flat row payload length {len(flat)} is not a multiple of 3")
        inserted = 0
        for offset in range(0, len(flat), 3):
            if self.insert_row((flat[offset], flat[offset + 1], flat[offset + 2])):
                inserted += 1
        return inserted

    def require_term_id(self, term) -> int:
        """Encode a concrete term, failing loudly if it was never stored."""
        term_id = self.dictionary.lookup(term)
        if term_id is None:
            raise StorageError(f"term {term!r} does not occur in the relational store")
        return term_id
