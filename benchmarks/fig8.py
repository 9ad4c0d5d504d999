"""Standalone Figure 8 sweep.

Usage::

    python -m benchmarks.fig8          # subsampled (every 8th model)
    python -m benchmarks.fig8 --full   # all 187 models, 17,578 pairs
    python -m benchmarks.fig8 --stride 4

Prints the paper-style series — log10(composition time in ms) for
each pair in ascending size order — and writes the raw points to
``benchmarks/results/fig8_full.csv``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.corpus import corpus_by_size, generate_corpus
from benchmarks._common import (
    fig8_sweep,
    log10_ms,
    summarize_series,
    write_csv,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true", help="run all 187 models"
    )
    parser.add_argument(
        "--stride", type=int, default=8, help="corpus subsampling stride"
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="run the sweep on N supervised worker processes",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    corpus = corpus_by_size(generate_corpus(seed=args.seed))
    if not args.full:
        corpus = corpus[:: args.stride]
    print(
        f"corpus: {len(corpus)} models, sizes "
        f"{corpus[0].network_size()}..{corpus[-1].network_size()} "
        f"(generated in {time.perf_counter() - started:.1f}s)"
    )
    pairs = len(corpus) * (len(corpus) + 1) // 2
    print(f"composing {pairs} pairs in ascending size order ...")

    started = time.perf_counter()
    results = fig8_sweep(corpus, workers=args.workers)
    elapsed = time.perf_counter() - started

    name = "fig8_full.csv" if args.full else "fig8_sampled.csv"
    path = write_csv(
        name,
        ["combined_size", "seconds", "log10_ms"],
        [(size, f"{s:.6f}", f"{log10_ms(s):.3f}") for size, s in results],
    )

    print()
    print("Figure 8 — log10(compose time ms) vs size (nodes+edges)")
    print(f"{'size range':>12} {'pairs':>6} {'mean ms':>10} {'log10 ms':>9}")
    for size_range, count, mean_ms, log_value in summarize_series(
        results, buckets=14
    ):
        bar = "#" * max(1, int((log_value + 2) * 8))
        print(
            f"{size_range:>12} {count:>6} {mean_ms:>10.3f} "
            f"{log_value:>9.2f}  {bar}"
        )
    print()
    print(f"{pairs} compositions in {elapsed:.1f}s; raw series: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
