"""One benchmark for the matching system.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for what each exercises and why):
``sweep-serial``, ``sweep-supervised``, ``corpus-query`` and
``compose-chain``.  Each is one closed-loop caller.  The run
generates its inputs from ``--seed``, times the set-up, measures the
closed loop for ``--seconds``, checks every output, and prints a
readable report followed by one JSON line — the last line of standard
output — holding ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
warm-up unit, measures the first half of the time untraced and the
second half with timing
wrappers installed on each layer's public functions, and reports the
per-layer metrics, the calibration control and ``trace.overhead``.
Both modes time the calibration loop.  The traced run writes its spans
to ``.perfbench_out/trace/`` and checks that the exact work counters
of every unit — and of every earlier traced run of the same seed —
are identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> float:
    """The highest of the usual percentiles with at least ten samples
    beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if count * (1 - q / 100.0) >= 10:
            return q
    return 50.0


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def check_benchmark_json(metrics, workloads) -> None:
    """Refuse to run when BENCHMARK.json and metrics.py disagree."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if end_to_end != list(metrics.END_TO_END):
        raise SystemExit("BENCHMARK.json end_to_end disagrees with perfbench/metrics.py")
    if per_layer != [entry[:3] for entry in metrics.PER_LAYER]:
        raise SystemExit("BENCHMARK.json per_layer disagrees with perfbench/metrics.py")
    if [w["name"] for w in spec["workloads"]] != list(workloads):
        raise SystemExit("BENCHMARK.json workloads disagree with perfbench/workloads.py")


def measure(workload, seconds: float, clock, snapshots=None):
    """Closed loop: units back to back until ``seconds`` have passed
    (at least one), with a calibration sample after each.  With
    ``snapshots``, record each unit's exact counter deltas into it."""
    units = []
    deadline = time.perf_counter() + seconds
    previous = {}
    while not units or time.perf_counter() < deadline:
        units.append(workload.run_unit())
        clock.sample()
        if snapshots is not None:
            counts = dict(workload.tracer.counts)
            delta = {
                name: value - previous.get(name, 0)
                for name, value in counts.items()
                if not name.startswith(workload.volatile_counts)
            }
            delta["ops"] = units[-1].ops
            snapshots.append({k: v for k, v in sorted(delta.items()) if v})
            previous = counts
    return units


def end_to_end(units, setup_s, scale):
    """The end-to-end metrics, times in calibrated seconds."""
    latencies = [s for unit in units for s in unit.latencies]
    return {
        "setup_s": setup_s * scale,
        # A unit that failed at once may have taken no measurable time.
        "throughput_per_s": sum(u.ops for u in units)
        / max(sum(u.wall for u in units), 1e-9)
        / scale,
        "op_p50_ms": percentile(latencies, 50) * 1000.0 * scale,
        "op_p90_ms": percentile(latencies, 90) * 1000.0 * scale,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracing, dumps, units, extras):
    """Per-unit layer numbers from the span dumps of every process."""
    counts, seconds, span_s, selfs = Counter(), Counter(), Counter(), Counter()
    for dump in dumps:
        counts.update(dump["counts"])
        seconds.update(dump["seconds"])
        for _, _, name, _, start, end in dump["spans"]:
            span_s[name] += end - start
        selfs.update(tracing.self_seconds(dump["spans"]))
    n = len(units)

    def per(value):
        return value / n

    phases = {
        name[len("compose.phase."):]: value
        for name, value in seconds.items()
        if name.startswith("compose.phase.")
    }
    reactions = phases.get("reactions", 0.0)
    species = phases.get("species", 0.0)
    gets = counts["artifact_store.get"]
    queries = counts["corpus_index.query"]
    hits = counts["corpus_index.hits"]
    pair_seconds = [s for u in units for s in u.notes.get("pair_seconds", [])]
    result = {
        "compose.step_n": per(counts["compose.step"]),
        "compose.step_s": per(span_s["compose.step"]),
        "compose.phase.reactions_s": per(reactions),
        "compose.phase.species_s": per(species),
        "compose.phase.rest_s": per(sum(phases.values()) - reactions - species),
        "compose.index_build_n": per(counts["compose.index_build"]),
        "compose.index_build_s": per(span_s["compose.index_build"]),
        "compose.self_s": per(selfs["compose"]),
        "match_all.glue_s": per(selfs["match_all"]),
        "match_all.pair_p50_us": percentile(pair_seconds, 50) * 1e6,
        "match_all.pair_p99_us": percentile(pair_seconds, 99) * 1e6,
        "artifact_store.compute_n": per(counts["artifact_store.compute"]),
        "artifact_store.compute_s": per(span_s["artifact_store.compute"]),
        "artifact_store.get_n": per(gets),
        "artifact_store.miss_n": per(counts["artifact_store.miss"]),
        "artifact_store.hit_ratio": counts["artifact_store.hit"] / gets if gets else 0.0,
        "artifact_store.put_n": per(
            counts["artifact_store.put"] + counts["artifact_store.put_blob"]
        ),
        "artifact_store.fetch_n": per(counts["artifact_store.fetch"]),
        "artifact_store.fetch_bytes": per(counts["artifact_store.fetch_bytes"]),
        "artifact_store.self_s": per(selfs["artifact_store"]),
        "sbml.parse_n": per(counts["sbml.parse"]),
        "sbml.parse_s": per(span_s["sbml.parse"]),
        "sbml.self_s": per(selfs["sbml"]),
        "coordinator.busy_frac": 0.0,
        "coordinator.retries": 0.0,
        "coordinator.steals": 0.0,
        "coordinator.quarantined": 0.0,
        "coordinator.self_s": per(selfs["coordinator"]),
        "shards.journal_write_n": per(counts["shards.journal"]),
        "shards.journal_write_s": per(span_s["shards.journal"]),
        "shards.self_s": per(selfs["shards"]),
        "transport.send_n": per(counts["transport.send"]),
        "transport.send_bytes": per(counts["transport.send_bytes"]),
        "transport.send_s": per(span_s["transport.send"]),
        "transport.recv_n": per(counts["transport.recv"]),
        "transport.recv_s": per(span_s["transport.recv"]),
        "transport.self_s": per(selfs["transport"]),
        "signature.build_n": per(counts["signature.build"]),
        "signature.build_s": per(span_s["signature.build"]),
        "signature.self_s": per(selfs["signature"]),
        "corpus_index.open_s": per(span_s["corpus_index.open"]),
        "corpus_index.query_s": per(span_s["corpus_index.query"]),
        "corpus_index.candidates_per_query": (
            counts["signature.congruence"] / queries if queries else 0.0
        ),
        "corpus_index.prune_rate": counts["corpus_index.pruned"] / hits if hits else 0.0,
        "corpus_index.add_s": per(span_s["corpus_index.add"]),
        "corpus_index.save_s": per(span_s["corpus_index.save"]),
        "corpus_index.segments": 0.0,
        "corpus_index.self_s": per(selfs["corpus_index"]),
        "session.step_n": 0.0,
        "session.step_s": 0.0,
        "session.glue_s": per(selfs["session"]),
        "trace.units": float(n),
    }
    result.update(extras)
    return result, selfs


def check_counts(workload, seed, snapshots, params_key) -> list:
    """Every traced unit must repeat the first one's exact counters,
    and so must every earlier traced run of this seed."""
    problems = []
    first = snapshots[0]
    for position, snapshot in enumerate(snapshots[1:], start=2):
        if snapshot != first:
            problems.append(f"work counters of unit {position} differ from unit 1")
    path = OUT / "counts" / f"{workload.name}-seed{seed}-{params_key}.json"
    if path.exists():
        if json.loads(path.read_text()) != first:
            problems.append(f"work counters differ from the earlier run in {path.name}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(first, indent=1, sort_keys=True))
    return problems


def run(args, workdir: Path):
    from perfbench import calib, metrics, tracing, workloads

    check_benchmark_json(metrics, workloads.WORKLOADS)
    references = {}
    if args.references.exists():
        references = json.loads(args.references.read_text())
    params_key = workloads.params_key(args.workload)
    table = references.get(args.workload, {})
    recorded = None
    if table.get("params") == params_key:
        recorded = table["seeds"].get(str(args.seed))
    workload = workloads.WORKLOADS[args.workload](workdir, args.seed, recorded)

    workload.prepare()
    clock = calib.Clock()
    workload.between_ops = clock.sample
    clock.sample()
    setups = []
    for _ in range(workload.setup_rounds):
        setups.append(workload.setup())
        clock.sample()
    setup_s = statistics.median(setups)
    _, cpu_speedup = calib.calibrate()

    lines = [
        f"workload {args.workload}, seed {args.seed}, reference {workload.reference_source}",
        f"setup_s: {setup_s:.4f} s (median of {len(setups)} set-ups)",
    ]
    if args.trace == 0:
        units = measure(workload, args.seconds, clock)
        values = end_to_end(units, setup_s, clock.scale())
        measured = units
    else:
        half = args.seconds / 2.0
        # One unit first, so the untraced half is as warm as the traced
        # one and the overhead is the wrappers' alone.
        warm = [workload.run_unit()]
        clock.sample()
        marks = [len(clock.samples)]
        base = measure(workload, half, clock)
        marks.append(len(clock.samples))
        tracer = tracing.Tracer()
        workload.tracer = tracer
        snapshots = []
        tracer.install()
        try:
            traced = measure(workload, half, clock, snapshots)
        finally:
            tracer.uninstall()
            workload.tracer = None
        dumps = [tracer.dump()] + workload.remote_dumps
        trace_path = OUT / "trace" / f"{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(dumps))
        values, selfs = per_layer(
            tracing, dumps, traced, workload.layer_extras(traced)
        )
        base_wall = statistics.mean(u.wall for u in base)
        traced_wall = statistics.mean(u.wall for u in traced)
        # Each half against its own calibration samples, so drift of
        # the machine between the halves does not read as overhead.
        values["trace.overhead"] = (
            traced_wall * clock.scale(marks[1]) / (base_wall * clock.scale(*marks)) - 1.0
        )
        values["calib.cpu_loop_s"] = clock.loop_s()
        values["calib.cpu_speedup"] = cpu_speedup
        for problem in check_counts(workload, args.seed, snapshots, params_key):
            workload.fail(problem)
        # The main process's layer self times cover its traced units'
        # timed operations; against the untraced units (both in
        # calibrated seconds) they differ by the tracing overhead.
        main_self = tracing.self_seconds(dumps[0]["spans"])
        accounted = sum(main_self.values()) / len(traced) * clock.scale(marks[1])
        untraced = base_wall * clock.scale(*marks)
        lines.append(
            f"trace: {len(traced)} traced / {len(base)} untraced units, overhead "
            f"{values['trace.overhead']:+.3f}; main-process layer self times sum to "
            f"{accounted:.4f} s per unit against {untraced:.4f} s untraced "
            f"({accounted / untraced - 1.0:+.3f}, calibrated)"
        )
        lines.append(
            "self time per unit: "
            + ", ".join(f"{layer} {selfs[layer] / len(traced):.4f} s" for layer in tracing.LAYERS)
        )
        lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
        measured = warm + base + traced
        values = {name: values[name] for name, _, _, _ in metrics.PER_LAYER}

    lines.append(
        f"calib: cpu loop {clock.loop_s():.4f} s (mean of {len(clock.samples)} "
        f"samples; calibrated times x{clock.scale():.3f}), {cpu_speedup:.2f}x on "
        f"{os.cpu_count()} processes"
    )
    latencies = [s for unit in measured for s in unit.latencies]
    tail = tail_percentile(len(latencies))
    lines.extend(workload.report_lines(measured))
    lines.append(
        f"op latency (raw): p50 {percentile(latencies, 50) * 1000:.3f} ms, "
        f"p{tail:g} {percentile(latencies, tail) * 1000:.3f} ms (n={len(latencies)})"
    )
    attempted = sum(unit.attempted for unit in measured)
    failed = sum(unit.failed for unit in measured)
    lines.append(f"error_rate: {failed / attempted:.4f} ({failed} of {attempted} failed)")
    for name, value in values.items():
        lines.append(f"  {name} = {value:.6g} {metrics.UNITS[name]}")
    for problem in workload.problems:
        lines.append(f"CHECK FAILED: {problem}")
    print("\n".join(lines))
    return {
        "correct": failed == 0 and not workload.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name]}
            for name, value in values.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--references",
        type=Path,
        default=Path(__file__).resolve().parent / "references.json",
        help="recorded reference digests (default: perfbench/references.json)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print("error: BENCHMARK.json missing at the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(workdir / "tmp")
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
