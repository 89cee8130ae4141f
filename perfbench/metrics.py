"""Metric names, units, and the per-layer numbers derived from a trace.

``BENCHMARK.json`` declares the same names and units; the smoke test checks
that the two agree.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from common import mean, percentile
from spans import Span, Tracer

ROUTES = ("graph", "split", "relational")

E2E_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "qps": "1/s",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "success_rate": "ratio",
    "server_rss_mb": "MiB",
    "restore_s": "s",
    "disk_bytes_per_triple": "B/triple",
}

LAYER_UNITS: Dict[str, str] = {
    "sparql.canonical_ms": "ms",
    "sparql.parse_ms": "ms",
    "serve.resolve_ms": "ms",
    "serve.plan_cache_hit_rate": "ratio",
    "serve.result_cache_hit_rate": "ratio",
    "serve.invalidations_per_write": "entries",
    "serve.write_p50_ms": "ms",
    "serve.write_p99_ms": "ms",
    "core.identify_ms": "ms",
    "core.process_ms": "ms",
    **{f"core.route_share.{route}": "ratio" for route in ROUTES},
    **{f"core.route_ms.{route}": "ms" for route in ROUTES},
    **{f"core.model_ratio.{route}": "ratio" for route in ROUTES},
    "core.modelled_s": "s",
    "core.migrated_rows": "rows",
    "relstore.execute_ms": "ms",
    "relstore.rows_scanned_per_result": "rows/result",
    "relstore.insert_ms": "ms",
    "relstore.delete_ms": "ms",
    "relstore.stats_ms": "ms",
    "graphstore.execute_ms": "ms",
    "graphstore.edges_traversed_per_result": "edges/result",
    "endpoint.encode_ms": "ms",
    "endpoint.response_bytes": "B",
    "endpoint.transport_ms": "ms",
    "tuner.epoch_ms": "ms",
    "tuner.moves": "count",
    "persist.wal_append_ms": "ms",
    "persist.wal_bytes": "B",
    "persist.snapshot_ms": "ms",
    "persist.restore_ms": "ms",
    "gc.pause_ms": "ms",
    "gc.collections": "count",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Per-layer counts that must repeat exactly across runs with one seed.
DETERMINISTIC = (
    "relstore.rows_scanned_per_result",
    "graphstore.edges_traversed_per_result",
    "endpoint.response_bytes",
    *(f"core.route_share.{route}" for route in ROUTES),
    "core.modelled_s",
    "core.migrated_rows",
    "persist.wal_bytes",
    "tuner.moves",
    "serve.plan_cache_hit_rate",
    "serve.result_cache_hit_rate",
    "serve.invalidations_per_write",
)


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _mean_self_ms(spans: List[Span]) -> float:
    return _ms(mean([span.self_time for span in spans]))


def _per_request_ms(spans: List[Span]) -> float:
    """Mean, over the requests that contain any, of the summed durations."""
    totals: Dict[Optional[int], float] = defaultdict(float)
    for span in spans:
        totals[span.request] += span.duration
    return _ms(mean(list(totals.values())))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    *,
    plan: Tuple[int, int],
    result: Tuple[int, int],
    invalidations: int,
    wal_bytes: int,
    transport_ms: float,
    overhead_ms: float,
    overhead_pct: float,
) -> Dict[str, float]:
    """Every per-layer metric, from the spans of one traced replay.

    ``plan`` and ``result`` are the (hits, misses) of the service's two
    caches.  Times are self times (a span minus its children) averaged per
    call, except where the name says otherwise: ``core.route_ms.*`` is the
    whole routed execution per query, ``serve.write_*`` whole write
    requests, ``relstore.insert_ms``/``delete_ms`` the relational share of
    one write batch, ``relstore.stats_ms`` statistics time per write,
    ``tuner.epoch_ms`` a whole epoch, and the ``gc.*`` numbers totals over
    the traced replay.
    """
    writes = [span.duration for span in tracer.named("request", "write")]
    processes = tracer.named("core.process", "read")
    executes = tracer.named("relstore.execute", "read")
    graphs = tracer.named("graphstore.execute", "read")
    encodes = tracer.named("endpoint.encode", "read")
    epochs = tracer.named("tuner.epoch")
    metrics: Dict[str, float] = {
        "sparql.canonical_ms": _mean_self_ms(tracer.named("sparql.canonical", "read")),
        "sparql.parse_ms": _mean_self_ms(tracer.named("sparql.parse", "read")),
        "serve.resolve_ms": _mean_self_ms(tracer.named("serve.resolve", "read")),
        "serve.plan_cache_hit_rate": _ratio(plan[0], sum(plan)),
        "serve.result_cache_hit_rate": _ratio(result[0], sum(result)),
        "serve.invalidations_per_write": _ratio(invalidations, len(writes)),
        "serve.write_p50_ms": _ms(percentile(writes, 50)) if writes else 0.0,
        "serve.write_p99_ms": _ms(percentile(writes, 99)) if writes else 0.0,
        "core.identify_ms": _mean_self_ms(tracer.named("core.identify", "read")),
        "core.process_ms": _mean_self_ms(processes),
        "core.modelled_s": sum(span.attrs["modelled_s"] for span in processes),
        "core.migrated_rows": sum(span.attrs["migrated"] for span in processes),
        "relstore.execute_ms": _mean_self_ms(executes),
        "relstore.rows_scanned_per_result": _ratio(
            sum(span.attrs["rows_scanned"] for span in executes),
            sum(span.attrs["results"] for span in executes),
        ),
        "relstore.insert_ms": _per_request_ms(tracer.named("relstore.insert", "write")),
        "relstore.delete_ms": _per_request_ms(tracer.named("relstore.delete", "write")),
        "relstore.stats_ms": _ratio(
            _ms(sum(span.duration for span in tracer.named("relstore.statistics"))), len(writes)
        ),
        "graphstore.execute_ms": _mean_self_ms(graphs),
        "graphstore.edges_traversed_per_result": _ratio(
            sum(span.attrs["edges"] for span in graphs),
            sum(span.attrs["results"] for span in graphs),
        ),
        "endpoint.encode_ms": _mean_self_ms(encodes),
        "endpoint.response_bytes": mean([span.attrs["bytes"] for span in encodes]),
        "endpoint.transport_ms": transport_ms,
        "tuner.epoch_ms": _ms(mean([span.duration for span in epochs])),
        "tuner.moves": sum(span.attrs["moves"] for span in epochs),
        "persist.wal_append_ms": _mean_self_ms(tracer.named("persist.wal_append")),
        "persist.wal_bytes": wal_bytes,
        "persist.snapshot_ms": _ms(mean([s.duration for s in tracer.named("persist.snapshot")])),
        "persist.restore_ms": _ms(mean([s.duration for s in tracer.named("persist.restore")])),
        "gc.pause_ms": _ms(sum(tracer.gc_pauses)),
        "gc.collections": len(tracer.gc_pauses),
        "trace.overhead_ms": overhead_ms,
        "trace.overhead_pct": overhead_pct,
    }
    for route in ROUTES:
        on_route = [span for span in processes if span.attrs["route"] == route]
        metrics[f"core.route_share.{route}"] = _ratio(len(on_route), len(processes))
        metrics[f"core.route_ms.{route}"] = _ms(mean([span.duration for span in on_route]))
        ratios = [span.duration / span.attrs["modelled_s"] for span in on_route if span.attrs["modelled_s"]]
        metrics[f"core.model_ratio.{route}"] = percentile(ratios, 50) if ratios else 0.0
    return {name: metrics[name] for name in LAYER_UNITS}
