"""Multi-core scaling of the digest-shipped all-pairs sweep.

``match_all(workers=N)`` runs the supervised coordinator over a
temporary out-dir: every worker gets a ``(label, digest)`` manifest —
a few dozen bytes per model — in its ``welcome`` instead of the
pickled corpus, and rehydrates models from the sweep's
:class:`~repro.core.artifact_store.ArtifactStore` on first touch.
This benchmark records what that buys:

* **pairs/s at 1/2/4/8 workers** — the in-process engine at 1, the
  supervised coordinator with ``match_all``'s ``4 * N`` shards above
  (the worker-count ladder is CLI-overridable), every rung against
  one pre-populated store so it measures steady-state rehydration,
  not the one-time spill — plus the scaling efficiency
  ``rate(N) / (N * rate(1))``;
* **the welcome payload**: the pickled manifest vs the pickled corpus
  the pre-format-5 boundary shipped — the acceptance number showing
  the per-worker data volume does not grow with corpus *content*,
  only with its length;
* **the worker boundary** (the ``loopback`` row): bytes per framed
  ``pair-done`` message and its round-trip latency over the
  ``socket.socketpair()`` local workers use vs loopback TCP — the
  per-message cost a sweep pays to move a worker off-host.

Results land in the ``scaling`` section of ``BENCH_compose.json``
(read-modify-write: sections owned by other benchmarks are carried
over, and ``bench_compose_all`` carries this one).

The efficiency gate is configurable because meaningful multi-core
numbers need actual cores: on the 1-core reference container every
N-worker rung measures pure overhead, so CI gates with a low bar
(default 0.15 — "2 workers must not be worse than ~3.3x slower than
serial") that catches boundary regressions (payload bloat, per-pair
IPC) without demanding parallel speedup the box cannot give.

Run standalone::

    PYTHONPATH=src python -m benchmarks.bench_scaling
    PYTHONPATH=src python -m benchmarks.bench_scaling --workers 1,2 --gate
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.core import transport
from repro.core.artifact_store import ArtifactStore, CorpusManifest
from repro.core.coordinator import CoordinatorConfig, SweepCoordinator
from repro.core.match_all import match_all
from repro.corpus import generate_corpus

from benchmarks._common import emit, write_csv

#: Machine-readable results, shared with bench_compose_all.
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_compose.json"

#: The ladder the paper-style scaling curve samples.
DEFAULT_WORKERS = (1, 2, 4, 8)

#: The CI bar for ``--gate`` on the reference container (see module
#: docstring): efficiency at ``--gate-workers`` must clear this.
#: Context for the number: on 1 core, N workers cap at ``1/N``
#: efficiency by construction (0.5 at the default 2-worker rung), and
#: the measured steady state there is ~0.2 — pool spawn plus per-pair
#: IPC at this corpus scale.  0.15 is the overhead-only floor: it
#: trips on boundary regressions (payload bloat, chatty workers) while
#: never demanding parallel speedup the box cannot give.
DEFAULT_GATE_EFFICIENCY = 0.15


def payload_numbers(models, store_root) -> dict:
    """Welcome bytes: manifest boundary vs pickled-corpus boundary."""
    labels = [model.id or f"model-{i}" for i, model in enumerate(models)]
    manifest = CorpusManifest.build(models, labels, ArtifactStore(store_root))
    manifest_bytes = len(pickle.dumps(manifest))
    corpus_bytes = len(pickle.dumps(list(models)))
    return {
        "models": len(models),
        "manifest_bytes": manifest_bytes,
        "pickled_corpus_bytes": corpus_bytes,
        "bytes_per_model": {
            "manifest": round(manifest_bytes / len(models), 1),
            "pickled_corpus": round(corpus_bytes / len(models), 1),
        },
        "ratio": round(corpus_bytes / manifest_bytes, 1),
    }


def _round_trip_seconds(client, server, message, messages) -> float:
    """Mean round-trip time of ``message`` over one already-connected
    channel pair, echoed by a thread — transport cost only, no process
    scheduling noise."""

    def echo():
        for _ in range(messages):
            server.send(server.recv())

    thread = threading.Thread(target=echo)
    thread.start()
    started = time.perf_counter()
    for _ in range(messages):
        client.send(message)
        client.recv()
    elapsed = time.perf_counter() - started
    thread.join()
    return elapsed / messages


def loopback_numbers(models, messages=500) -> dict:
    """The worker boundary's per-message cost: bytes on the wire for
    one framed ``pair-done``, and its round-trip latency over the
    socketpair local workers use vs loopback TCP."""
    matrix = match_all(models[:2])
    outcome = matrix.outcomes[0]
    message = ("pair-done", 0, outcome, (0, 1))
    frame_bytes = transport._HEADER.size + len(
        pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    )

    parent, child = (
        transport.FramedConnection(end) for end in socket.socketpair()
    )
    try:
        pair_rtt = _round_trip_seconds(parent, child, message, messages)
    finally:
        parent.close()
        child.close()

    listener = transport.Listener("127.0.0.1", 0)
    try:
        client = transport.connect(*listener.address)
        server, _ = listener.accept()
    finally:
        listener.close()
    try:
        tcp_rtt = _round_trip_seconds(client, server, message, messages)
    finally:
        client.close()
        server.close()

    return {
        "messages": messages,
        "pair_done_frame_bytes": frame_bytes,
        "socketpair_round_trip_us": round(pair_rtt * 1e6, 1),
        "tcp_round_trip_us": round(tcp_rtt * 1e6, 1),
        "tcp_over_socketpair": round(tcp_rtt / pair_rtt, 2),
    }


def sweep_seconds(models, workers, store_root, scratch) -> float:
    """One timed sweep against the pre-populated store: ``workers=1``
    is the serial in-process reference, ``workers > 1`` the
    supervised coordinator ``match_all(workers=N)`` runs, over a fresh
    out-dir whose artifact store is that same store."""
    if workers == 1:
        started = time.perf_counter()
        matrix = match_all(models, store=store_root)
        seconds = time.perf_counter() - started
        assert matrix.pair_count > 0
        return seconds
    out_dir = Path(tempfile.mkdtemp(dir=scratch))
    (out_dir / "artifacts").symlink_to(store_root, target_is_directory=True)
    pairs = len(models) * (len(models) + 1) // 2
    shards = min(4 * workers, pairs)
    started = time.perf_counter()
    report = SweepCoordinator(
        models,
        shards=shards,
        out_dir=out_dir,
        fingerprint=f"bench-scaling:{len(models)}:{shards}",
        config=CoordinatorConfig(workers=workers),
        progress=False,
    ).run()
    seconds = time.perf_counter() - started
    assert report.exit_code == 0 and report.pair_count == pairs
    return seconds


def measure(models, worker_ladder, rounds) -> dict:
    """Best-of-``rounds`` pairs/s per worker count."""
    pairs = len(models) * (len(models) + 1) // 2
    scratch = Path(tempfile.mkdtemp(prefix="bench-scaling-"))
    results = {}
    try:
        store_root = scratch / "artifacts"
        # Populate the store (and the payload numbers) untimed.
        payload = payload_numbers(models, store_root)
        for workers in worker_ladder:
            best = min(
                sweep_seconds(models, workers, store_root, scratch)
                for _ in range(rounds)
            )
            results[workers] = {
                "seconds": round(best, 6),
                "pairs_per_second": round(pairs / best, 2),
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    base_rate = results[worker_ladder[0]]["pairs_per_second"]
    for workers, row in results.items():
        row["efficiency"] = round(
            row["pairs_per_second"] / (workers * base_rate), 3
        )
    return {"pairs": pairs, "payload": payload, "workers": results}


def write_scaling_json(section: dict) -> Path:
    """Merge the ``scaling`` section into BENCH_compose.json without
    touching the sections other benchmarks own."""
    try:
        payload = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        payload = {}
    payload["scaling"] = section
    BENCH_JSON.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    return BENCH_JSON


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=12,
                        help="generated corpus size")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--workers", default=",".join(str(w) for w in DEFAULT_WORKERS),
        help="comma-separated worker ladder (first entry is the "
             "serial reference)",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="exit 1 when scaling efficiency at --gate-workers falls "
             "below --gate-efficiency",
    )
    parser.add_argument("--gate-workers", type=int, default=2)
    parser.add_argument(
        "--gate-efficiency", type=float, default=DEFAULT_GATE_EFFICIENCY,
        help=f"efficiency floor for --gate (default "
             f"{DEFAULT_GATE_EFFICIENCY}: overhead-only bar for "
             f"single-core runners; raise on real multi-core boxes)",
    )
    args = parser.parse_args(argv)

    worker_ladder = [int(w) for w in args.workers.split(",") if w.strip()]
    if not worker_ladder or worker_ladder[0] != 1:
        parser.error("--workers must start at 1 (the serial reference)")
    if args.gate and args.gate_workers not in worker_ladder:
        parser.error("--gate-workers must be on the --workers ladder")

    models = list(generate_corpus(count=args.count, seed=args.seed))
    print(
        f"corpus: {len(models)} models, "
        f"{args.count * (args.count + 1) // 2} pairs, "
        f"workers {worker_ladder}, cpu_count {os.cpu_count()} "
        f"(best of {args.rounds})"
    )

    section = measure(models, worker_ladder, args.rounds)
    section["corpus"] = {"count": args.count, "seed": args.seed}
    section["rounds"] = args.rounds
    section["cpu_count"] = os.cpu_count()
    section["python"] = platform.python_version()
    section["loopback"] = loopback_numbers(models)

    payload = section["payload"]
    loopback = section["loopback"]
    emit("")
    emit("Digest-shipped sweep scaling")
    emit(
        f"welcome payload: manifest {payload['manifest_bytes']} B vs "
        f"pickled corpus {payload['pickled_corpus_bytes']} B "
        f"({payload['ratio']}x smaller, "
        f"{payload['bytes_per_model']['manifest']} B/model)"
    )
    emit(
        f"worker boundary: pair-done frame "
        f"{loopback['pair_done_frame_bytes']} B; round trip "
        f"{loopback['tcp_round_trip_us']} us over loopback TCP vs "
        f"{loopback['socketpair_round_trip_us']} us over a socketpair "
        f"({loopback['tcp_over_socketpair']}x, "
        f"mean of {loopback['messages']} round trips)"
    )
    emit(f"{'workers':>8} {'seconds':>9} {'pairs/s':>9} {'efficiency':>11}")
    for workers in worker_ladder:
        row = section["workers"][workers]
        emit(
            f"{workers:>8} {row['seconds']:>9.3f} "
            f"{row['pairs_per_second']:>9.1f} {row['efficiency']:>11.3f}"
        )
    write_csv(
        "scaling_curve.csv",
        ["workers", "seconds", "pairs_per_second", "efficiency"],
        [
            (
                str(workers),
                f"{section['workers'][workers]['seconds']:.6f}",
                f"{section['workers'][workers]['pairs_per_second']:.2f}",
                f"{section['workers'][workers]['efficiency']:.3f}",
            )
            for workers in worker_ladder
        ],
    )

    if args.gate:
        measured = section["workers"][args.gate_workers]["efficiency"]
        section["gate"] = {
            "workers": args.gate_workers,
            "efficiency": measured,
            "threshold": args.gate_efficiency,
        }
        write_scaling_json(_stringify_worker_keys(section))
        if measured < args.gate_efficiency:
            print(
                f"FAIL: scaling efficiency {measured:.3f} at "
                f"{args.gate_workers} workers is below the "
                f"{args.gate_efficiency} gate",
                file=sys.stderr,
            )
            return 1
        return 0
    write_scaling_json(_stringify_worker_keys(section))
    return 0


def _stringify_worker_keys(section: dict) -> dict:
    """JSON object keys are strings; make the round-trip explicit."""
    section = dict(section)
    section["workers"] = {
        str(workers): row for workers, row in section["workers"].items()
    }
    return section


if __name__ == "__main__":
    sys.exit(main())
