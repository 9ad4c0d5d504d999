"""N-way composition: session ``compose_all`` vs naive cold fold, per
merge plan, and the batched all-pairs engine.

The legacy workflow for composing n models was a hand-rolled left
fold over ``compose(a, b)``, cold-starting the engine (options,
synonym table, caches) on every step and re-copying the growing
accumulator each time.  ``ComposeSession.compose_all`` owns that
state across steps, folds in place, carries the accumulator's derived
artifacts (used ids, unit registry, initial values) between steps,
moves intermediate components instead of copying them, and lets a
merge plan choose the order.

This benchmark measures all of it on a 10-model corpus chain (models
in generation order, the order a real workload would hand them over
in), plus the batched all-pairs engine on the subsampled corpus, and
records the numbers machine-readably in ``BENCH_compose.json`` at the
repo root so the perf trajectory is tracked across PRs.

Usage::

    python -m benchmarks.bench_compose_all            # report + CSV + JSON
    python -m benchmarks.bench_compose_all --rounds 9
    python -m benchmarks.bench_compose_all --smoke    # CI: fail on crash only

The pytest-benchmark entries time the individual strategies; the
standalone run prints the paper-style comparison table and asserts
the acceptance bar (session+greedy vs naive, ``ACCEPTANCE_SPEEDUP``)
unless ``--smoke``, plus the all-pairs regression gate under
``--gate-allpairs``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable, List, Sequence

from repro import Composer, ComposeSession, match_all
from repro.corpus import corpus_by_size, generate_corpus
from repro.sbml.model import Model
from benchmarks._common import emit, write_csv

#: Number of models in the chain (the acceptance scenario).
CHAIN_LENGTH = 10

#: Machine-readable results, tracked across PRs at the repo root.
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_compose.json"

#: Session-greedy must beat the naive cold fold by this factor.
#: History: the bar was 1.3x when the naive path cold-started every
#: piece of the engine; the hash-consed math core (PR 4) accelerated
#: the *shared* machinery — component copies, interning, mapping
#: resolution — so the naive baseline itself got ~30% faster and the
#: relative gap legitimately narrowed (absolute times: naive 44→31 ms,
#: session fold 25→18 ms on the reference container).  The bar now
#: guards "sessions are never slower than cold folds, with margin"
#: rather than a fixed reuse ratio.
ACCEPTANCE_SPEEDUP = 1.1


def chain_models(seed: int = 42) -> List[Model]:
    """Ten corpus models in generation order (NOT size-sorted)."""
    corpus = generate_corpus(seed=seed)
    return corpus[:: max(1, len(corpus) // CHAIN_LENGTH)][:CHAIN_LENGTH]


def naive_cold_fold(models: Sequence[Model]) -> Model:
    """The pre-session idiom: a fresh engine per step, accumulator
    re-copied by every ``compose`` call."""
    accumulator = models[0]
    for model in models[1:]:
        accumulator, _ = Composer().compose(accumulator, model)
    return accumulator


def session_compose(models: Sequence[Model], plan: str) -> Model:
    return ComposeSession().compose_all(models, plan=plan).model


def _best_of(fn: Callable[[], object], rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def compare(models: Sequence[Model], rounds: int = 5):
    """(label, seconds, speedup-vs-naive) for each strategy."""
    naive = _best_of(lambda: naive_cold_fold(models), rounds)
    rows = [("naive-cold-fold", naive, 1.0)]
    for plan in ("fold", "tree", "greedy"):
        seconds = _best_of(lambda: session_compose(models, plan), rounds)
        rows.append((f"session-{plan}", seconds, naive / seconds))
    return rows


# ---------------------------------------------------------------------------
# pytest-benchmark entries
# ---------------------------------------------------------------------------


def bench_naive_cold_fold(benchmark):
    models = chain_models()
    benchmark(lambda: naive_cold_fold(models))


def bench_session_fold(benchmark):
    models = chain_models()
    benchmark(lambda: session_compose(models, "fold"))


def bench_session_greedy(benchmark):
    models = chain_models()
    benchmark(lambda: session_compose(models, "greedy"))


def bench_session_tree(benchmark):
    models = chain_models()
    benchmark(lambda: session_compose(models, "tree"))


def bench_compose_all_speedup(benchmark):
    """Session+greedy must beat the naive cold fold on the chain."""
    models = chain_models()
    rows = benchmark.pedantic(
        lambda: compare(models, rounds=3), rounds=1, iterations=1
    )
    emit("")
    emit(f"compose_all — {CHAIN_LENGTH}-model corpus chain")
    for label, seconds, speedup in rows:
        emit(f"  {label:>18}: {seconds * 1000:8.2f} ms  ({speedup:.2f}x)")
    by_label = {label: speedup for label, _, speedup in rows}
    assert by_label["session-greedy"] > 1.0


# ---------------------------------------------------------------------------
# Standalone entry point
# ---------------------------------------------------------------------------


def _allpairs_numbers(
    seed: int, stride: int, workers: int, rounds: int = 3
) -> dict:
    """The batched all-pairs sweep on the subsampled corpus.

    Single-worker by default: that is the tracked configuration (the
    regression gate compares it across PRs), because worker fan-out
    measures the machine where the engine's own speed is what the
    repo optimises.  Best-of-``rounds``, matching the strategy rows —
    a single sweep is too noisy to gate on.
    """
    corpus = corpus_by_size(generate_corpus(seed=seed))[::stride]
    matrix = match_all(corpus, workers=workers)
    for _ in range(max(0, rounds - 1)):
        candidate = match_all(corpus, workers=workers)
        if candidate.seconds < matrix.seconds:
            matrix = candidate
    return {
        "engine": "match_all",
        "models": matrix.model_count,
        "pairs": matrix.pair_count,
        "workers": matrix.workers,
        "seconds": round(matrix.seconds, 6),
        "pairs_per_second": round(matrix.pairs_per_second, 2),
    }


def _read_committed_baseline() -> dict:
    """The BENCH_compose.json this run is about to overwrite — the
    committed baseline the allpairs regression gate compares against.
    Missing or unreadable baselines gate nothing (first run, fresh
    clone mid-edit...)."""
    try:
        return json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def write_bench_json(
    rows, allpairs: dict, rounds: int, smoke: bool
) -> Path:
    """Record the run in BENCH_compose.json (pairs/sec, wall time per
    plan) for cross-PR tracking.

    Read-modify-write: sections other benchmarks own (``corpus_query``
    from ``bench_corpus_query``, ``corpus_scale`` from
    ``bench_corpus_scale``, ``scaling`` from ``bench_scaling``) are
    carried over from the committed file, not dropped."""
    committed = _read_committed_baseline()
    payload = {
        "benchmark": "compose_all",
        "smoke": smoke,
        "rounds": rounds,
        "chain_models": CHAIN_LENGTH,
        "machine": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "strategies": {
            label: {
                "seconds": round(seconds, 6),
                "speedup_vs_naive": round(speedup, 3),
            }
            for label, seconds, speedup in rows
        },
        "allpairs": allpairs,
        **{
            section: committed[section]
            for section in ("corpus_query", "corpus_scale", "scaling")
            if section in committed
        },
        "notes": (
            "Composition runs serially in process; docs/perf.md "
            "covers the measured numbers."
        ),
    }
    BENCH_JSON.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    return BENCH_JSON


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--stride", type=int, default=8,
        help="corpus subsampling stride for the all-pairs section",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the all-pairs sweep (default 1 — "
             "the single-worker number is the tracked/gated "
             "configuration)",
    )
    parser.add_argument(
        "--allpairs-rounds", type=int, default=3,
        help="best-of rounds for the all-pairs section (default 3: "
             "the tracked/gated number needs noise immunity); "
             "independent of --rounds, which drives the strategy rows",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: run everything, fail on crash, skip the "
             "timing acceptance bar",
    )
    parser.add_argument(
        "--gate-allpairs", action="store_true",
        help="fail (exit 1) when allpairs pairs/sec regresses more "
             "than 20%% against the committed BENCH_compose.json "
             "baseline (independent of --smoke)",
    )
    args = parser.parse_args(argv)

    models = chain_models(seed=args.seed)
    sizes = [model.network_size() for model in models]
    print(f"chain: {len(models)} models, sizes {sizes}")

    rows = compare(models, rounds=args.rounds)
    print(f"\ncompose_all — {CHAIN_LENGTH}-model corpus chain "
          f"(best of {args.rounds})")
    print(f"{'strategy':>18} {'ms':>10} {'speedup':>9}")
    for label, seconds, speedup in rows:
        print(f"{label:>18} {seconds * 1000:>10.2f} {speedup:>8.2f}x")

    write_csv(
        "compose_all_chain.csv",
        ["strategy", "seconds", "speedup_vs_naive"],
        [(label, f"{s:.6f}", f"{x:.3f}") for label, s, x in rows],
    )

    baseline = _read_committed_baseline()
    allpairs = _allpairs_numbers(
        args.seed, args.stride, args.workers, rounds=args.allpairs_rounds
    )
    print(
        f"\nall-pairs (batched match_all engine): "
        f"{allpairs['pairs']} pairs over {allpairs['models']} models "
        f"in {allpairs['seconds']:.2f}s "
        f"({allpairs['pairs_per_second']:.0f} pairs/s, "
        f"workers={allpairs['workers']})"
    )

    path = write_bench_json(rows, allpairs, args.rounds, args.smoke)
    print(f"machine-readable results: {path}")

    if args.gate_allpairs:
        committed = (baseline.get("allpairs") or {}).get("pairs_per_second")
        if not committed:
            print("allpairs gate: no committed baseline, nothing to gate")
        else:
            floor = 0.8 * float(committed)
            measured = allpairs["pairs_per_second"]
            print(
                f"allpairs gate: {measured:.1f} pairs/s vs committed "
                f"baseline {committed:.1f} (floor {floor:.1f})"
            )
            if measured < floor:
                print(
                    "FAIL: allpairs throughput regressed more than 20% "
                    "against the committed BENCH_compose.json baseline",
                    file=sys.stderr,
                )
                return 1

    by_label = {label: speedup for label, _, speedup in rows}
    greedy = by_label["session-greedy"]
    print(f"\nsession-greedy speedup vs naive cold fold: {greedy:.2f}x "
          f"(acceptance bar: {ACCEPTANCE_SPEEDUP:.2f}x)")
    if args.smoke:
        print("smoke mode: timing bar skipped")
        return 0
    if greedy < ACCEPTANCE_SPEEDUP:
        print(
            f"FAIL: below the {ACCEPTANCE_SPEEDUP:.2f}x acceptance bar",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
