"""Supervision cost — the fault-tolerant coordinator vs the serial
in-process sweep.

The coordinator (:class:`repro.core.coordinator.SweepCoordinator`)
adds leases, heartbeats, per-shard journal writes, the corpus
manifest build and worker IPC on top of the same
:class:`~repro.core.match_all._PairEngine` the in-process
``match_all`` runs.  All of that machinery sits *outside* the per-pair
hot path — journal writes are per shard attempt, heartbeats ride the
worker's idle poll — so on W cores a healthy sweep (no faults
injected) should approach ``1/W`` of the serial wall time.  The
coordinator is the only parallel executor, so its reference is the
serial engine: ``overhead = supervised / serial - 1`` (negative when
the workers win), recorded in docs/perf.md.

Both sides compute the same pairs of the same corpus; the supervised
side also writes its per-shard CSVs and artifact store.

Run standalone::

    PYTHONPATH=src python -m benchmarks.bench_supervised_sweep
    PYTHONPATH=src python -m benchmarks.bench_supervised_sweep --gate
"""

from __future__ import annotations

import argparse
import shutil
import tempfile
import time
from pathlib import Path

from repro.core.artifact_store import corpus_fingerprint
from repro.core.coordinator import CoordinatorConfig, SweepCoordinator
from repro.core.match_all import match_all
from repro.corpus import generate_corpus

from benchmarks._common import emit, write_csv

#: docs/perf.md's supervision-overhead bar.  ``--gate`` enforces a
#: looser 3x multiple of it so shared-runner noise doesn't flake the
#: job while a real hot-path regression (per-pair journal writes,
#: chatty heartbeats) still fails loudly.
TARGET_OVERHEAD = 0.03
GATE_OVERHEAD = 3 * TARGET_OVERHEAD


def serial_sweep(models) -> float:
    """The in-process engine over every pair: the reference."""
    started = time.perf_counter()
    match_all(models)
    return time.perf_counter() - started


def supervised_sweep(models, shards, workers, out_dir) -> float:
    started = time.perf_counter()
    report = SweepCoordinator(
        models,
        shards=shards,
        out_dir=out_dir,
        fingerprint=corpus_fingerprint(models, extra=("shards", shards)),
        config=CoordinatorConfig(workers=workers),
        progress=False,
    ).run()
    seconds = time.perf_counter() - started
    assert report.exit_code == 0, "healthy sweep must exit clean"
    return seconds


def measure(models, shards, workers, rounds):
    """Best-of-``rounds`` wall time for each side, a fresh out-dir per
    supervised round so no run inherits a resumable journal or a warm
    artifact store."""
    serial = supervised = float("inf")
    for _ in range(rounds):
        scratch = Path(tempfile.mkdtemp(prefix="bench-supervise-"))
        try:
            serial = min(serial, serial_sweep(models))
            supervised = min(
                supervised,
                supervised_sweep(
                    models, shards, workers, scratch / "supervised"
                ),
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    return serial, supervised


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=16,
                        help="generated corpus size")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--gate", action="store_true",
        help=f"exit 1 when overhead exceeds {GATE_OVERHEAD:.0%} "
             f"(3x the {TARGET_OVERHEAD:.0%} docs/perf.md target, "
             f"headroom for noisy shared runners)",
    )
    args = parser.parse_args(argv)

    models = list(generate_corpus(count=args.count, seed=args.seed))
    pairs = args.count * (args.count + 1) // 2
    print(
        f"corpus: {len(models)} models, {pairs} pairs, "
        f"{args.shards} shards, {args.workers} workers "
        f"(best of {args.rounds})"
    )

    serial, supervised = measure(
        models, args.shards, args.workers, args.rounds
    )
    overhead = supervised / serial - 1

    emit("")
    emit("Supervised sweep vs serial (healthy run, no faults)")
    emit(f"{'path':>24} {'seconds':>9} {'pairs/s':>9}")
    for label, seconds in (
        ("serial match_all", serial),
        ("SweepCoordinator", supervised),
    ):
        emit(f"{label:>24} {seconds:>9.3f} {pairs / seconds:>9.1f}")
    emit(
        f"{'overhead':>24} {overhead:>8.1%}  "
        f"(target < {TARGET_OVERHEAD:.0%})"
    )
    write_csv(
        "supervised_overhead.csv",
        ["path", "seconds"],
        [("serial", f"{serial:.6f}"), ("supervised", f"{supervised:.6f}"),
         ("overhead", f"{overhead:.4f}")],
    )

    if args.gate and overhead > GATE_OVERHEAD:
        print(
            f"FAIL: supervision overhead {overhead:.1%} exceeds the "
            f"{GATE_OVERHEAD:.0%} gate"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
