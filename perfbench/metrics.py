"""Every metric the benchmark reports, with the end-to-end metric each
per-layer metric is predicted to move.

``BENCHMARK.json`` at the repository root lists the same names, units
and directions; ``run.py`` refuses to run when the two disagree, so
this table and the benchmark's declared metrics cannot drift apart.

End-to-end metrics are shared by all four workloads, so each is
defined per workload on that workload's *operation* — the smallest
result its one closed-loop caller receives:

* ``sweep-serial`` / ``sweep-supervised``: one pair of the all-pairs
  sweep (``throughput_per_s`` is pairs per second of sweep wall time;
  the latency percentiles are ``PairOutcome.seconds``, the paper's
  Figure 8 y-axis);
* ``corpus-query``: one query or incremental re-index
  (``throughput_per_s`` counts both; the latency percentiles are the
  queries', nine in ten operations — re-index latency is printed as
  ``add_p50_ms``);
* ``compose-chain``: one fold step (``throughput_per_s`` is steps per
  second of ``compose_all`` wall time, i.e. models / ``merge_s``; the
  latency percentiles are ``ComposeStep.seconds``).

Times (``setup_s``, ``throughput_per_s``, the latencies) are in
calibrated seconds: scaled by the run's own calibration loop to a
machine where that loop takes ``calib.REFERENCE_LOOP_S`` (see
``calib.py``), because the machine's speed drifts by more than any
bound between runs.  The readable report prints the raw numbers too.

Failed or wrong operations are the result line's ``failed`` over
``attempted``, not a metric: a metric must never read 0.

Per-layer metrics come from the traced run and are *per unit of
work*: one sweep, one ``compose_all``, or one pass of thirty
corpus-query operations.  Counts are exact per unit; seconds are
totals per unit.  A layer idle on a workload reports 0.
"""

from __future__ import annotations

#: ``(name, unit, better, bound)``
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_SWEEP = "throughput_per_s on sweep-serial"
_SUPERVISED = "throughput_per_s on sweep-supervised"
_QUERY = "op_p50_ms and op_p90_ms on corpus-query"
_CHAIN = "throughput_per_s on compose-chain"

#: ``(name, unit, better, predicted end-to-end target)``
PER_LAYER = (
    ("compose.step_n", "count", "lower", f"{_SWEEP}; {_CHAIN}"),
    (
        "compose.step_s", "s", "lower",
        f"{_SWEEP} (~87% of wall); {_CHAIN}; a small share of "
        "sweep-supervised",
    ),
    ("compose.phase.reactions_s", "s", "lower", f"{_SWEEP}; {_CHAIN}"),
    ("compose.phase.species_s", "s", "lower", f"{_SWEEP}; {_CHAIN}"),
    ("compose.phase.rest_s", "s", "lower", f"{_SWEEP}; {_CHAIN}"),
    ("compose.index_build_n", "count", "lower", _SWEEP),
    ("compose.index_build_s", "s", "lower", _SWEEP),
    ("compose.self_s", "s", "lower", f"{_SWEEP}; {_CHAIN}"),
    ("match_all.glue_s", "s", "lower", _SWEEP),
    (
        "match_all.pair_p50_us", "us", "lower",
        "op_p50_ms on sweep-serial and sweep-supervised",
    ),
    (
        "match_all.pair_p99_us", "us", "lower",
        "op_p90_ms on sweep-serial and sweep-supervised",
    ),
    ("artifact_store.compute_n", "count", "lower", f"{_SUPERVISED}; ~7% of sweep-serial"),
    ("artifact_store.compute_s", "s", "lower", f"{_SUPERVISED}; ~7% of sweep-serial"),
    ("artifact_store.get_n", "count", "lower", _SUPERVISED),
    ("artifact_store.miss_n", "count", "lower", _SUPERVISED),
    ("artifact_store.hit_ratio", "ratio", "higher", f"{_SUPERVISED} (base: artifact_store.get_n)"),
    ("artifact_store.put_n", "count", "lower", _SUPERVISED),
    ("artifact_store.fetch_n", "count", "lower", _SUPERVISED),
    ("artifact_store.fetch_bytes", "bytes", "lower", _SUPERVISED),
    ("artifact_store.self_s", "s", "lower", f"{_SUPERVISED}; {_SWEEP}"),
    (
        "sbml.parse_n", "count", "lower",
        "setup_s everywhere; throughput_per_s on sweep-supervised "
        "(rehydration); op_p50_ms on corpus-query (candidate loads)",
    ),
    ("sbml.parse_s", "s", "lower", f"setup_s everywhere; {_SUPERVISED}; {_QUERY}"),
    ("sbml.self_s", "s", "lower", f"setup_s everywhere; {_QUERY}"),
    ("coordinator.busy_frac", "ratio", "higher", _SUPERVISED),
    ("coordinator.retries", "count", "lower", _SUPERVISED),
    ("coordinator.steals", "count", "lower", _SUPERVISED),
    ("coordinator.quarantined", "count", "lower", _SUPERVISED),
    ("coordinator.self_s", "s", "lower", _SUPERVISED),
    ("shards.journal_write_n", "count", "lower", _SUPERVISED),
    ("shards.journal_write_s", "s", "lower", _SUPERVISED),
    ("shards.self_s", "s", "lower", _SUPERVISED),
    ("transport.send_n", "count", "lower", f"{_SUPERVISED}; zero elsewhere"),
    ("transport.send_bytes", "bytes", "lower", f"{_SUPERVISED}; zero elsewhere"),
    ("transport.send_s", "s", "lower", f"{_SUPERVISED}; zero elsewhere"),
    ("transport.recv_n", "count", "lower", f"{_SUPERVISED}; zero elsewhere"),
    ("transport.recv_s", "s", "lower", f"{_SUPERVISED}; zero elsewhere"),
    ("transport.self_s", "s", "lower", f"{_SUPERVISED}; zero elsewhere"),
    ("signature.build_n", "count", "lower", f"{_QUERY}; setup_s on corpus-query"),
    ("signature.build_s", "s", "lower", f"{_QUERY}; setup_s on corpus-query"),
    ("signature.self_s", "s", "lower", f"{_QUERY}; setup_s on corpus-query"),
    ("corpus_index.open_s", "s", "lower", _QUERY),
    ("corpus_index.query_s", "s", "lower", _QUERY),
    ("corpus_index.candidates_per_query", "count", "lower", _QUERY),
    ("corpus_index.prune_rate", "ratio", "higher", f"{_QUERY} (base: indexed models per query)"),
    ("corpus_index.add_s", "s", "lower", "add_p50_ms on corpus-query"),
    ("corpus_index.save_s", "s", "lower", "add_p50_ms on corpus-query"),
    ("corpus_index.segments", "count", "lower", f"{_QUERY}; add_p50_ms on corpus-query"),
    ("corpus_index.self_s", "s", "lower", _QUERY),
    ("session.step_n", "count", "lower", _CHAIN),
    ("session.step_s", "s", "lower", _CHAIN),
    ("session.glue_s", "s", "lower", _CHAIN),
    ("calib.cpu_loop_s", "s", "lower", "none: box-speed control for every workload"),
    ("calib.cpu_speedup", "ratio", "higher", "none: the parallel ceiling sweep-supervised runs under"),
    ("trace.overhead", "ratio", "lower", "none: traced over untraced wall time, minus 1"),
    ("trace.units", "count", "higher", "none: units of work the per-unit numbers average over"),
)

UNITS = {name: unit for name, unit, _, _ in END_TO_END}
UNITS.update({name: unit for name, unit, _, _ in PER_LAYER})
