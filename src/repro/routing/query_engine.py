"""Query-engine accounting: the vectorized pair evaluator vs the seed loop.

`repro.core.simulate.route_shard` evaluates a shard of (source, target)
pairs.  Two engines produce bit-identical results:

* ``"batch"`` (the default) — compile the built scheme's tables once into
  flat numpy int arrays (:mod:`repro.routing.compiled_query`) and walk an
  entire shard of pairs per vectorized step, decoding realized weights
  from additive integer keys only at emit time;
* ``"reference"`` — the seed per-pair loop: one
  :meth:`~repro.routing.model.RoutingScheme.route` call per pair, hop by
  hop through Python ``local_decision`` evaluations.

The batch engine is a pure throughput play and silently steps aside
whenever it cannot reproduce the reference bit-for-bit: no numpy (the
``repro[fast]`` optional extra), an algebra without exactly-additive
integer keys, an unsupported scheme family, or any run that needs
hop-level fidelity — active packet-trace capture and telemetry-enabled
runs always take the reference loop, so traces and per-pair histograms
keep their exact per-hop semantics.  Every such step-down is counted on
``query_engine.batch_fallbacks`` (tagged with a reason) and on the
process-local stats served to ``repro profile``'s ``query`` block.

No user setting picks the engine: the code runs the batch engine
wherever it can.  The reference loop stays reachable for comparison by
making :func:`repro.routing.compiled_query.evaluate_shard` decline.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.metrics import enabled as _telemetry_enabled
from repro.obs.metrics import metrics as _telemetry

#: Process-local engine usage counters.  Unlike the telemetry registry these
#: are always on (they cost one dict update per *shard*, not per pair) —
#: the batch engine only runs with telemetry disabled, so a metric-only
#: account would never see its successes.
_STATS: Dict[str, object] = {
    "batch_shards": 0,
    "batch_pairs": 0,
    "reference_pairs": 0,
    "fallbacks": {},
}


def resolve_query_engine() -> str:
    """The pair-evaluation engine the code picks: always ``"batch"``.

    ``"batch"`` means vectorized shard evaluation where eligible and the
    reference loop otherwise (see the module docstring); ``repro
    profile`` and benchmark provenance report this value.
    """
    return "batch"


def count_query_fallback(reason: str, pairs: int = 0) -> None:
    """One shard (or pair) stepped down to the reference loop, and why."""
    fallbacks = _STATS["fallbacks"]
    fallbacks[reason] = fallbacks.get(reason, 0) + 1
    if pairs:
        _STATS["reference_pairs"] += int(pairs)
    if _telemetry_enabled():
        _telemetry().counter("query_engine.batch_fallbacks",
                             reason=reason).inc()


def note_batch_shard(pairs: int) -> None:
    """One shard ran through the vectorized engine end to end."""
    _STATS["batch_shards"] += 1
    _STATS["batch_pairs"] += int(pairs)


def query_stats() -> Dict[str, object]:
    """A snapshot of the process-local engine usage counters."""
    return {
        "batch_shards": _STATS["batch_shards"],
        "batch_pairs": _STATS["batch_pairs"],
        "reference_pairs": _STATS["reference_pairs"],
        "fallbacks": dict(_STATS["fallbacks"]),
    }


def reset_query_stats() -> None:
    """Zero the process-local counters (tests and profile runs)."""
    _STATS["batch_shards"] = 0
    _STATS["batch_pairs"] = 0
    _STATS["reference_pairs"] = 0
    _STATS["fallbacks"] = {}
