"""``sbmlcompose`` command line front end.

Subcommands::

    sbmlcompose merge a.xml b.xml [c.xml ...] -o merged.xml \
        [--plan fold|tree|greedy] [--log merge.log]
    sbmlcompose sweep a.xml b.xml c.xml [...] [--workers N] [-o pairs.csv] \
        [--shards K [--shard-id I] --out-dir DIR [--resume]] \
        [--supervise [--worker-timeout S] [--max-retries N] \
         [--poison-threshold K] [--chaos FILE] [--listen HOST:PORT]] \
        [--deterministic] [--store-max-entries N]
    sbmlcompose worker --connect HOST:PORT [--store DIR] [--chaos FILE]
    sbmlcompose sweep-status --out-dir DIR
    sbmlcompose sweep-merge --out-dir DIR [-o merged.csv]
    sbmlcompose store verify DIR [--keep-corrupt]
    sbmlcompose corpus index model.xml [...] --index corpus.idx \
        [--store DIR [--store-max-entries N]] [--evict-to N] \
        [--workers N] [--compact]
    sbmlcompose corpus query query.xml --index corpus.idx \
        [--top-k K] [--with-pruned] [--deterministic] [-o results.csv]
    sbmlcompose corpus query query.xml --linear model.xml [...]
    sbmlcompose diff a.xml b.xml
    sbmlcompose validate model.xml
    sbmlcompose simulate model.xml --t-end 10 --steps 500 -o trace.csv
    sbmlcompose split model.xml --out-prefix part

The ``merge`` subcommand is the paper's tool grown n-way: it accepts
two *or more* models, composes them through one
:class:`~repro.core.session.ComposeSession` following the selected
merge plan, and writes the warning log to a file exactly as §3
describes ("writes a warning to a log file informing the user ... of
decisions taken") — now including per-step summaries and per-component
provenance.  Composition runs serially in process.

``sweep`` is the paper's Figure 8 experiment as a command: compose
every pair of the given models through the batched
:func:`~repro.core.match_all.match_all` engine and report what united,
what conflicted and how fast the pairs went.  ``--workers N`` (N > 1)
runs the sweep under the supervised coordinator described below, over
a temporary out-dir; the rows are the in-process sweep's.  With
``--shards K`` the pair matrix is partitioned deterministically
(:func:`~repro.core.shards.partition_pairs`) and each shard's results
land as a separate CSV under ``--out-dir``, journaled by a
:class:`~repro.core.shards.SweepCheckpoint` so a killed sweep resumes
(``--resume``) from the first incomplete shard; per-model artifacts
are spilled to a content-addressed store under the same directory and
shared by every shard.  Pass ``--shard-id I`` to compute exactly one
shard (e.g. one shard per machine); omit it to run all shards
sequentially, each one checkpointed, in process (``--workers N`` with
N > 1 needs ``--supervise`` here).  ``sweep-merge`` unions the shard
files back into one report that is byte-identical to an unsharded
``sweep --deterministic`` run of the same corpus.  ``--prescreen``
routes the sweep through the vectorized structural prescreen
(:class:`~repro.core.signature.Prescreen`): provably trivial pairs
skip the phase machinery and get synthesized rows, byte-identical to
what the full run would have written.

``sweep --supervise`` hands the sharded sweep to the fault-tolerant
:class:`~repro.core.coordinator.SweepCoordinator`: worker processes
hold journal *leases* on their shards, heartbeat while idle, are
killed and their shards stolen when silent past ``--worker-timeout``,
and pairs that repeatedly kill their worker are quarantined to
``quarantine.json`` so the sweep completes without them (exit status 3
distinguishes that degraded completion).  Supervised sweeps are
**digest-shipped**: the corpus is spilled to the artifact store once
and every worker receives only a
:class:`~repro.core.artifact_store.CorpusManifest` of ``(label,
digest)`` pairs, rehydrating each model from its format-5 store entry
on first touch.  With ``--store-max-entries`` the active corpus's
digests are pinned, so post-run eviction can never drop an entry a
worker still rehydrates from.  ``sweep-status`` reports leases,
retry/steal counters and the quarantine alongside per-shard
completion; ``store verify`` audits the artifact store, moving corrupt
blobs into its ``corrupt/`` subdirectory.  ``--chaos FILE`` arms the
deterministic fault-injection harness (:mod:`repro.core.chaos`) — how
CI's chaos smoke drives worker crashes, stalls and torn journal writes
reproducibly.

``sweep --supervise --listen HOST:PORT`` additionally accepts **remote
workers** — ``sbmlcompose worker --connect HOST:PORT`` run on any
machine — over the framed socket transport
(:mod:`repro.core.transport`).  Remote workers run the same worker
function as local ones (which use the same handshake over a
socketpair) and join the same lease/steal/quarantine machinery; a bare
``--listen :PORT`` binds loopback only.  A worker without the shared
filesystem rehydrates store entries through the in-protocol
digest-fetch request and caches them in its ``--store`` directory (a
private temporary store by default).  ``--workers 0 --listen ...``
runs a listen-only coordinator that supervises remote workers
exclusively.

``corpus`` is the search subsystem: ``corpus index`` builds (or
incrementally updates) a persistent, segmented
:class:`~repro.core.corpus_index.CorpusIndex` over model signatures —
``--workers N`` fans the signature computation for unindexed models
over a process pool, ``--compact`` merges the accumulated segments
and tombstones (the LSM maintenance pass) — and ``corpus query``
answers "find matches for this model" by walking the index's
memory-mapped posting lists, running the full matcher only on the
candidates the prescreen logic cannot synthesize (capped at
``--top-k``) — sublinear retrieval instead of a linear scan.  With
``--top-k 0 --with-pruned --deterministic`` the result CSV is
byte-identical to ``corpus query --linear`` over the same corpus
files, which is exactly what the CI corpus smoke jobs diff.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from datetime import datetime
from pathlib import Path

from repro.core.artifact_store import (
    ArtifactStore,
    corpus_fingerprint,
    model_digest,
)
from repro.core.compose import index_options_key
from repro.core.corpus_index import CorpusIndex
from repro.core.match_all import (
    PairOutcome,
    match_all,
    match_all_sharded,
    match_query,
    read_outcomes_csv,
    write_outcomes,
    write_outcomes_csv,
)
from repro.core.signature import ModelSignature, Prescreen
from repro.core.options import ComposeOptions
from repro.core.plan import plan_names
from repro.core import chaos
from repro.core.coordinator import (
    EXIT_QUARANTINED,
    CoordinatorConfig,
    Quarantine,
    SweepCoordinator,
    run_remote_worker,
)
from repro.core.transport import parse_address
from repro.core.shards import (
    SweepCheckpoint,
    SweepStateError,
    shard_result_filename,
)
from repro.core.session import ComposeSession
from repro.errors import ReproError
from repro.eval.sbml_diff import diff_models
from repro.graph.decompose import connected_components
from repro.sbml.reader import read_sbml_file
from repro.sbml.validate import validate_model
from repro.sbml.writer import write_sbml, write_sbml_file
from repro.sim.odes import simulate

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbmlcompose",
        description="Unsupervised SBML model composition (EDBT 2010 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    merge = sub.add_parser("merge", help="compose two or more SBML models")
    merge.add_argument(
        "models", type=Path, nargs="+", metavar="model",
        help="input SBML files (two or more)",
    )
    merge.add_argument("-o", "--output", type=Path, default=None)
    merge.add_argument("--log", type=Path, default=None,
                       help="write the warning/provenance log to this file")
    merge.add_argument(
        "--plan", choices=plan_names(), default="fold",
        help="merge order for 3+ models (default: left fold)",
    )
    merge.add_argument(
        "--semantics",
        choices=["heavy", "light", "none"],
        default="heavy",
    )
    merge.add_argument(
        "--index", choices=["hash", "linear", "sorted"], default="hash"
    )
    merge.add_argument(
        "--strict", action="store_true",
        help="fail on the first conflict instead of warning",
    )

    sweep = sub.add_parser(
        "sweep",
        help="compose every pair of the given models (Figure 8 style)",
    )
    sweep.add_argument(
        "models", type=Path, nargs="+", metavar="model",
        help="input SBML files (two or more)",
    )
    sweep.add_argument(
        "-o", "--output", type=Path, default=None,
        help="write the per-pair outcome table to this CSV file",
    )
    sweep.add_argument(
        "--no-self", action="store_true",
        help="skip composing each model with itself",
    )
    sweep.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes (default 1: in process).  N > 1 runs "
             "the supervised coordinator; with --shards or --out-dir "
             "it needs --supervise.  0 only with --supervise --listen",
    )
    sweep.add_argument(
        "--semantics",
        choices=["heavy", "light", "none"],
        default="heavy",
    )
    sweep.add_argument(
        "--deterministic", action="store_true",
        help="omit the wall-time column from the CSV, making the "
             "output byte-identical across runs (and to sweep-merge)",
    )
    sweep.add_argument(
        "--shards", type=int, default=1, metavar="K",
        help="partition the pair matrix into K deterministic shards "
             "(requires --out-dir; results land as one CSV per shard)",
    )
    sweep.add_argument(
        "--shard-id", type=int, default=None, metavar="I",
        help="compute only shard I of K (e.g. one shard per machine); "
             "joins the sweep already journaled in --out-dir, so "
             "shard-by-shard runs accumulate; omit to run every shard "
             "sequentially, each checkpointed",
    )
    sweep.add_argument(
        "--out-dir", type=Path, default=None, metavar="DIR",
        help="directory for shard CSVs, the checkpoint journal and "
             "the shared per-model artifact store",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="skip shards the checkpoint journal records as complete "
             "(refuses to resume onto a different corpus or layout)",
    )
    sweep.add_argument(
        "--fresh-indexes", action="store_true",
        help="rebuild the target-side phase indexes on every pair "
             "instead of reusing the per-model index artifacts (the "
             "ablation/differential reference; outcomes are identical "
             "either way)",
    )
    sweep.add_argument(
        "--store-max-entries", type=int, default=None, metavar="N",
        help="after the run, evict the least-recently-used artifact "
             "store entries beyond N (the store grows one entry per "
             "distinct model otherwise); this sweep's corpus entries "
             "are pinned — digest-shipped workers rehydrate from them",
    )
    sweep.add_argument(
        "--prescreen", action="store_true",
        help="skip pairs the structural prescreen proves trivial and "
             "synthesize their rows (byte-identical to the full sweep)",
    )
    sweep.add_argument(
        "--supervise", action="store_true",
        help="drive the sharded sweep through the fault-tolerant "
             "coordinator: N worker processes with shard leases, "
             "heartbeats, retry/backoff, work stealing and poison-"
             "pair quarantine (requires --out-dir; exit 3 when the "
             "sweep completed by quarantining pairs)",
    )
    sweep.add_argument(
        "--worker-timeout", type=float, default=30.0, metavar="SECONDS",
        help="supervised mode: seconds of worker silence before the "
             "coordinator declares it stalled, kills it and steals "
             "its shard (default: 30)",
    )
    sweep.add_argument(
        "--max-retries", type=int, default=3, metavar="N",
        help="supervised mode: failed attempts a shard may consume "
             "beyond its first before the sweep aborts; attempts that "
             "quarantined a poison pair ride free (default: 3)",
    )
    sweep.add_argument(
        "--poison-threshold", type=int, default=2, metavar="K",
        help="supervised mode: strikes (worker deaths or errors "
             "attributed to one pair) before the pair is quarantined "
             "(default: 2)",
    )
    sweep.add_argument(
        "--chaos", type=Path, default=None, metavar="FILE",
        help="arm the deterministic fault-injection spec in FILE "
             "(JSON, see repro.core.chaos) for this run — the chaos "
             "harness behind the robustness tests and CI smoke",
    )
    sweep.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="supervised mode: also accept remote socket workers "
             "(`sbmlcompose worker --connect HOST:PORT`) on this "
             "address; they join the same lease/steal/quarantine "
             "machinery as local workers.  With --workers 0 the "
             "coordinator supervises remote workers exclusively.  "
             "Port 0 binds an ephemeral port (printed at startup).  "
             "A bare :PORT binds 127.0.0.1; the protocol is "
             "pickle-based, so listen on all interfaces (0.0.0.0:PORT) "
             "only on a trusted network",
    )

    worker = sub.add_parser(
        "worker",
        help="remote sweep worker: connect to a supervising "
             "coordinator and compute shards it assigns",
    )
    worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the coordinator's sweep --supervise --listen address",
    )
    worker.add_argument(
        "--store", type=Path, default=None, metavar="DIR",
        help="local artifact store: point at the shared store when "
             "there is one; default is a private temporary store "
             "filled on demand through the digest-fetch protocol "
             "(and removed at exit)",
    )
    worker.add_argument(
        "--chaos", type=Path, default=None, metavar="FILE",
        help="arm the deterministic fault-injection spec in FILE for "
             "this worker (the spec's state_dir must be reachable)",
    )

    corpus = sub.add_parser(
        "corpus",
        help="persistent corpus search: index models, query one "
             "against the library",
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)

    corpus_index = corpus_sub.add_parser(
        "index",
        help="build or incrementally update a persistent corpus index",
    )
    corpus_index.add_argument(
        "models", type=Path, nargs="*", metavar="model",
        help="SBML files to (re-)index (may be empty for a "
             "maintenance-only run, e.g. --compact)",
    )
    corpus_index.add_argument(
        "--index", type=Path, required=True, metavar="DIR",
        help="the index directory to create or update",
    )
    corpus_index.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="fan signature computation for unindexed models over N "
             "processes (needs the models spilled to a store; a "
             "temporary one is used unless --store is given)",
    )
    corpus_index.add_argument(
        "--compact", action="store_true",
        help="after indexing, merge all segments and tombstones into "
             "one fresh segment (LSM maintenance)",
    )
    corpus_index.add_argument(
        "--semantics", choices=["heavy", "light", "none"], default="heavy",
        help="key options the index is built under (queries must use "
             "the same)",
    )
    corpus_index.add_argument(
        "--store", type=Path, default=None, metavar="DIR",
        help="artifact store to rehydrate signatures from / spill "
             "model artifacts to",
    )
    corpus_index.add_argument(
        "--store-max-entries", type=int, default=None, metavar="N",
        help="after indexing, evict LRU artifact store entries beyond "
             "N — models this index serves are pinned and never "
             "evicted (needs --store)",
    )
    corpus_index.add_argument(
        "--evict-to", type=int, default=None, metavar="N",
        help="after indexing, drop least-recently-used index entries "
             "down to N models",
    )

    corpus_query = corpus_sub.add_parser(
        "query",
        help="match one model against an indexed corpus (or a linear "
             "scan reference)",
    )
    corpus_query.add_argument(
        "query", type=Path, metavar="model",
        help="the query SBML file",
    )
    corpus_query.add_argument(
        "--index", type=Path, default=None, metavar="FILE",
        help="query this corpus index (sublinear retrieval)",
    )
    corpus_query.add_argument(
        "--linear", type=Path, nargs="+", default=None, metavar="model",
        help="reference mode: full linear scan over these SBML files "
             "instead of an index",
    )
    corpus_query.add_argument(
        "--top-k", type=int, default=10, metavar="K",
        help="run the full matcher on at most K index candidates "
             "(0 = no cap; default 10)",
    )
    corpus_query.add_argument(
        "--with-pruned", action="store_true",
        help="include synthesized rows for candidates the prescreen "
             "proved trivial (required for byte-diff against --linear)",
    )
    corpus_query.add_argument(
        "--deterministic", action="store_true",
        help="omit the wall-time column from the CSV (byte-comparable "
             "across runs and modes)",
    )
    corpus_query.add_argument(
        "-o", "--output", type=Path, default=None,
        help="write the result table to this CSV file",
    )
    corpus_query.add_argument(
        "--semantics", choices=["heavy", "light", "none"], default="heavy",
    )
    corpus_query.add_argument(
        "--store", type=Path, default=None, metavar="DIR",
        help="artifact store for query/candidate artifacts",
    )

    sweep_status = sub.add_parser(
        "sweep-status",
        help="print per-shard completion, leases, retries and "
             "quarantine of a sharded sweep",
    )
    sweep_status.add_argument(
        "--out-dir", type=Path, required=True, metavar="DIR",
        help="the sharded sweep's output directory",
    )

    store = sub.add_parser(
        "store",
        help="inspect and maintain an on-disk artifact store",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_verify = store_sub.add_parser(
        "verify",
        help="scan every store entry, quarantining corrupt blobs",
    )
    store_verify.add_argument(
        "store_dir", type=Path, metavar="DIR",
        help="the artifact store directory (e.g. SWEEP_DIR/artifacts)",
    )
    store_verify.add_argument(
        "--keep-corrupt", action="store_true",
        help="report corrupt blobs but leave them in place instead of "
             "moving them to the corrupt/ subdirectory",
    )

    sweep_merge = sub.add_parser(
        "sweep-merge",
        help="union shard result files into one all-pairs report",
    )
    sweep_merge.add_argument(
        "--out-dir", type=Path, required=True, metavar="DIR",
        help="the sharded sweep's output directory",
    )
    sweep_merge.add_argument(
        "-o", "--output", type=Path, default=None,
        help="write the merged table to this CSV file (default: stdout)",
    )
    sweep_merge.add_argument(
        "--timings", action="store_true",
        help="keep the per-shard wall-time column instead of emitting "
             "the deterministic (byte-comparable) layout",
    )

    diff = sub.add_parser("diff", help="structurally compare two models")
    diff.add_argument("first", type=Path)
    diff.add_argument("second", type=Path)

    validate = sub.add_parser("validate", help="semantic validation")
    validate.add_argument("model", type=Path)

    simulate_cmd = sub.add_parser("simulate", help="deterministic simulation")
    simulate_cmd.add_argument("model", type=Path)
    simulate_cmd.add_argument("--t-end", type=float, default=10.0)
    simulate_cmd.add_argument("--steps", type=int, default=500)
    simulate_cmd.add_argument("-o", "--output", type=Path, default=None)

    split = sub.add_parser("split", help="split into connected components")
    split.add_argument("model", type=Path)
    split.add_argument("--out-prefix", type=str, default="part")
    return parser


def _cmd_merge(args) -> int:
    if len(args.models) < 2:
        print("error: merge needs at least two models", file=sys.stderr)
        return 2
    models = [read_sbml_file(path).model for path in args.models]
    options = ComposeOptions(
        semantics=args.semantics,
        index=args.index,
    )
    if args.strict:
        options = options.strict()
    result = ComposeSession(options).compose_all(models, plan=args.plan)
    text = write_sbml(result.model)
    if args.output is not None:
        args.output.write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text)
    for step in result.steps:
        print(step.summary(), file=sys.stderr)
    print(result.summary(), file=sys.stderr)
    if args.log is not None:
        sections = [result.report.log_text()]
        sections.append(
            "\n".join(step.log_line() for step in result.steps)
        )
        sections.append(result.provenance_log())
        args.log.write_text(
            "\n".join(section for section in sections if section) + "\n",
            encoding="utf-8",
        )
        print(f"warning log: {args.log}", file=sys.stderr)
    return 0


def _shard_file(shard_id: int, shard_count: int) -> str:
    return shard_result_filename(shard_id, shard_count)


def _sweep_fingerprint(models, args) -> str:
    """Fingerprint binding a checkpoint to this corpus + run shape."""
    return corpus_fingerprint(
        models,
        extra=(
            "semantics", args.semantics,
            "include_self", not args.no_self,
            "shards", args.shards,
        ),
    )


def _cmd_sweep_supervised(args, models, options) -> int:
    """The ``--supervise`` path: hand the whole sharded sweep to the
    fault-tolerant coordinator instead of computing shards inline."""
    if args.shard_id is not None:
        print(
            "error: --supervise drives every shard itself; drop "
            "--shard-id",
            file=sys.stderr,
        )
        return 2
    if args.prescreen:
        print(
            "error: --supervise does not combine with --prescreen",
            file=sys.stderr,
        )
        return 2
    if args.workers == 0 and args.listen is None:
        print(
            "error: --workers 0 needs --listen (someone must do the "
            "work)",
            file=sys.stderr,
        )
        return 2
    coordinator = SweepCoordinator(
        models,
        options,
        shards=args.shards,
        out_dir=args.out_dir,
        fingerprint=_sweep_fingerprint(models, args),
        config=CoordinatorConfig(
            # The config floor is 1 (it doubles as the report's worker
            # count); a listen-only coordinator passes local_workers=0
            # below and spawns nothing.
            workers=max(1, args.workers),
            worker_timeout=args.worker_timeout,
            max_retries=args.max_retries,
            poison_threshold=args.poison_threshold,
        ),
        include_self=not args.no_self,
        resume=args.resume,
        prebuilt_indexes=not args.fresh_indexes,
        listen=args.listen,
        local_workers=args.workers if args.listen is not None else None,
    )
    if coordinator.listen_address is not None:
        host, port = coordinator.listen_address
        print(
            f"listening for remote workers on {host}:{port}",
            file=sys.stderr,
        )
    report = coordinator.run()
    if args.store_max_entries is not None:
        store = ArtifactStore(args.out_dir / "artifacts")
        # Pin the corpus: a digest-shipped worker of a concurrent (or
        # resumed) run over this directory rehydrates models from
        # exactly these entries, so LRU pressure must not drop them.
        pinned = (
            coordinator.manifest.digests
            if coordinator.manifest is not None
            else [model_digest(model) for model in models]
        )
        evicted = store.evict(
            max_entries=args.store_max_entries, pinned=pinned
        )
        if evicted:
            print(
                f"evicted {evicted} artifact store entr"
                f"{'y' if evicted == 1 else 'ies'} "
                f"(LRU beyond {args.store_max_entries})",
                file=sys.stderr,
            )
    if args.output is not None:
        write_outcomes_csv(
            args.output,
            _merged_sweep_outcomes(coordinator.checkpoint),
            deterministic=args.deterministic,
        )
        print(f"wrote {args.output}")
    for entry in report.quarantined:
        print(
            f"quarantined: pair ({entry['i']}, {entry['j']}) "
            f"[{entry['left']}+{entry['right']}] after "
            f"{entry['strikes']} strike(s) — see "
            f"{coordinator.quarantine.path}",
            file=sys.stderr,
        )
    print(report.summary(), file=sys.stderr)
    return report.exit_code


def _cmd_sweep_sharded(args, models, options) -> int:
    if args.out_dir is None:
        print(
            "error: "
            + ("--supervise" if args.supervise else "--shards")
            + " needs --out-dir",
            file=sys.stderr,
        )
        return 2
    if args.shard_id is not None and not 0 <= args.shard_id < args.shards:
        print(
            f"error: --shard-id must be in [0, {args.shards})",
            file=sys.stderr,
        )
        return 2
    if args.supervise:
        return _cmd_sweep_supervised(args, models, options)
    if args.workers > 1:
        print(
            "error: --shards/--out-dir sweeps run their shards in "
            "process; add --supervise to run them on --workers "
            f"{args.workers}",
            file=sys.stderr,
        )
        return 2
    checkpoint = SweepCheckpoint(
        args.out_dir,
        fingerprint=_sweep_fingerprint(models, args),
        shard_count=args.shards,
    )
    # A single-shard run is by definition one piece of a multi-run
    # sweep: it must join the journal other runs are building, never
    # reset it — so --shard-id implies resume semantics.
    completed = checkpoint.begin(
        resume=args.resume or args.shard_id is not None
    )
    store = ArtifactStore(args.out_dir / "artifacts")
    shard_ids = (
        [args.shard_id] if args.shard_id is not None else range(args.shards)
    )
    for shard_id in shard_ids:
        if shard_id in completed:
            print(
                f"shard {shard_id}/{args.shards}: already complete, skipping",
                file=sys.stderr,
            )
            continue
        matrix = match_all_sharded(
            models,
            options,
            shards=args.shards,
            shard_id=shard_id,
            include_self=not args.no_self,
            store=store,
            prebuilt_indexes=not args.fresh_indexes,
            prescreen=args.prescreen or None,
        )
        name = _shard_file(shard_id, args.shards)
        write_outcomes_csv(args.out_dir / name, matrix.outcomes)
        checkpoint.mark_complete(shard_id, name, matrix.pair_count)
        print(f"wrote {args.out_dir / name}")
        print(matrix.summary(), file=sys.stderr)
    if args.store_max_entries is not None:
        # Pin this sweep's corpus entries (see the supervised path) —
        # a later shard run or digest-shipped worker over the same
        # out-dir still rehydrates from them.
        evicted = store.evict(
            max_entries=args.store_max_entries,
            pinned=[model_digest(model) for model in models],
        )
        if evicted:
            print(
                f"evicted {evicted} artifact store entr"
                f"{'y' if evicted == 1 else 'ies'} "
                f"(LRU beyond {args.store_max_entries})",
                file=sys.stderr,
            )
    missing = checkpoint.missing_shards()
    if missing:
        print(
            f"{len(missing)} shard(s) still missing: "
            + ", ".join(str(shard_id) for shard_id in missing),
            file=sys.stderr,
        )
        if args.output is not None:
            print(
                f"note: {args.output} not written — the merged table "
                "needs every shard; rerun with the remaining shards "
                "or use sweep-merge once complete",
                file=sys.stderr,
            )
    elif args.output is not None:
        write_outcomes_csv(
            args.output,
            _merged_sweep_outcomes(checkpoint),
            deterministic=args.deterministic,
        )
        print(f"wrote {args.output}")
    else:
        print(
            "all shards complete; merge with "
            f"`sbmlcompose sweep-merge --out-dir {args.out_dir}`",
            file=sys.stderr,
        )
    return 0


def _cmd_sweep(args) -> int:
    if len(args.models) < 2:
        print("error: sweep needs at least two models", file=sys.stderr)
        return 2
    if args.listen is not None and not args.supervise:
        print("error: --listen needs --supervise", file=sys.stderr)
        return 2
    if args.workers < 0:
        print("error: --workers must not be negative", file=sys.stderr)
        return 2
    models = [read_sbml_file(path).model for path in args.models]
    options = ComposeOptions(semantics=args.semantics)
    if args.shards < 1:
        print("error: --shards must be at least 1", file=sys.stderr)
        return 2
    if args.store_max_entries is not None and args.out_dir is None:
        print(
            "error: --store-max-entries needs --out-dir (only sharded "
            "sweeps keep an on-disk artifact store)",
            file=sys.stderr,
        )
        return 2
    if args.chaos is not None:
        # Arm the deterministic fault spec for this run (and, via the
        # environment, for every worker process it spawns).
        chaos.install(chaos.ChaosSpec.load(args.chaos))
    try:
        if (
            args.shards > 1
            or args.out_dir is not None
            or args.supervise
        ):
            return _cmd_sweep_sharded(args, models, options)
        return _cmd_sweep_unsharded(args, models, options)
    finally:
        if args.chaos is not None:
            chaos.uninstall()


def _cmd_sweep_unsharded(args, models, options) -> int:
    matrix = match_all(
        models,
        options,
        workers=args.workers,
        include_self=not args.no_self,
        prebuilt_indexes=not args.fresh_indexes,
        prescreen=args.prescreen or None,
    )
    if args.output is not None:
        write_outcomes_csv(
            args.output, matrix.outcomes, deterministic=args.deterministic
        )
        print(f"wrote {args.output}")
    else:
        print(f"{'pair':>24} {'size':>6} {'ms':>9} "
              f"{'united':>6} {'added':>6} {'conflicts':>9}")
        for outcome in matrix.outcomes:
            pair = f"{outcome.left}+{outcome.right}"
            print(
                f"{pair:>24} {outcome.size:>6} "
                f"{outcome.seconds * 1000:>9.2f} {outcome.united:>6} "
                f"{outcome.added:>6} {outcome.conflicts:>9}"
            )
    print(matrix.summary(), file=sys.stderr)
    return 0


def _merged_sweep_outcomes(checkpoint):
    """Union a complete sweep's shard files, in canonical pair order.

    Raises :class:`SweepStateError` on missing shards or a pair that
    appears twice (shard files from mixed layouts).
    """
    missing = checkpoint.missing_shards()
    if missing:
        raise SweepStateError(
            "sweep incomplete: missing shard(s) "
            + ", ".join(str(shard_id) for shard_id in missing)
            + "; rerun `sweep --shards ... --resume` first"
        )
    outcomes = []
    seen = set()
    for shard_id in range(checkpoint.shard_count):
        path = checkpoint.out_dir / str(checkpoint.completed[shard_id]["file"])
        for outcome in read_outcomes_csv(path):
            pair = (outcome.i, outcome.j)
            if pair in seen:
                raise SweepStateError(
                    f"pair {pair} appears in more than one shard file"
                )
            seen.add(pair)
            outcomes.append(outcome)
    outcomes.sort(key=lambda outcome: (outcome.i, outcome.j))
    return outcomes


def _cmd_sweep_status(args) -> int:
    """Report a sharded sweep's progress without touching its state.

    Reads the checkpoint journal (and only the journal — the corpus
    is not loaded, no fingerprint is recomputed, nothing is locked or
    written), so it is safe to run while shard workers are active.
    Exit status: 0 when every shard is complete, 1 while shards are
    pending, 2 when the directory has no readable journal.
    """
    journal = SweepCheckpoint.read_journal(args.out_dir)
    shard_count = int(journal["shard_count"])
    completed = {
        int(shard_id): entry
        for shard_id, entry in dict(journal["completed"]).items()
    }
    leases = {
        int(shard_id): entry
        for shard_id, entry in dict(journal.get("leases", {})).items()
    }
    retries = {
        int(shard_id): entry
        for shard_id, entry in dict(journal.get("retries", {})).items()
    }
    quarantine = Quarantine.load(args.out_dir)
    total_pairs = sum(int(entry.get("pairs", 0)) for entry in completed.values())
    total_retries = sum(int(entry.get("count", 0)) for entry in retries.values())
    total_steals = sum(int(entry.get("steals", 0)) for entry in retries.values())
    fingerprint = str(journal["fingerprint"])
    supervised = (
        f", {total_retries} retr"
        f"{'y' if total_retries == 1 else 'ies'} "
        f"({total_steals} stolen), {len(quarantine)} quarantined pair(s)"
        if total_retries or total_steals or len(quarantine)
        else ""
    )
    print(
        f"sweep {args.out_dir}: {len(completed)}/{shard_count} shard(s) "
        f"complete, {total_pairs} pair(s) journaled"
        f"{supervised} (corpus {fingerprint[:12]}…)"
    )
    now = time.time()
    for shard_id in range(shard_count):
        entry = completed.get(shard_id)
        retry = retries.get(shard_id, {})
        rocky = (
            f"  [{int(retry.get('count', 0))} retr"
            f"{'y' if int(retry.get('count', 0)) == 1 else 'ies'}, "
            f"{int(retry.get('steals', 0))} stolen]"
            if retry
            else ""
        )
        if entry is not None:
            completed_at = entry.get("completed_at")
            when = (
                datetime.fromtimestamp(float(completed_at)).isoformat(
                    sep=" ", timespec="seconds"
                )
                if completed_at is not None
                else "?"
            )
            print(
                f"  shard {shard_id}: complete  {entry['file']}  "
                f"{entry.get('pairs', '?')} pair(s)  at {when}{rocky}"
            )
            continue
        lease = leases.get(shard_id)
        if lease is not None:
            expires = float(lease.get("expires_at", 0.0))
            status = "EXPIRED" if expires <= now else f"{expires - now:.0f}s left"
            print(
                f"  shard {shard_id}: leased to {lease.get('worker')} "
                f"({status}){rocky}"
            )
            continue
        print(f"  shard {shard_id}: pending{rocky}")
    for (i, j), entry in sorted(quarantine.entries.items()):
        print(
            f"  quarantined: pair ({i}, {j}) "
            f"[{entry.get('left')}+{entry.get('right')}] after "
            f"{entry.get('strikes')} strike(s)"
        )
    if len(completed) < shard_count:
        return 1
    return EXIT_QUARANTINED if len(quarantine) else 0


def _cmd_sweep_merge(args) -> int:
    checkpoint = SweepCheckpoint.open(args.out_dir)
    outcomes = _merged_sweep_outcomes(checkpoint)
    deterministic = not args.timings
    if args.output is not None:
        write_outcomes_csv(
            args.output, outcomes, deterministic=deterministic
        )
        print(f"wrote {args.output}")
    else:
        write_outcomes(sys.stdout, outcomes, deterministic=deterministic)
    print(
        f"merged {checkpoint.shard_count} shard(s), {len(outcomes)} pairs",
        file=sys.stderr,
    )
    return 0


def _cmd_diff(args) -> int:
    first = read_sbml_file(args.first).model
    second = read_sbml_file(args.second).model
    entries = diff_models(first, second)
    for entry in entries:
        print(entry)
    if not entries:
        print("models are structurally equivalent")
        return 0
    return 1


def _cmd_validate(args) -> int:
    model = read_sbml_file(args.model).model
    issues = validate_model(model)
    for issue in issues:
        print(issue)
    errors = [issue for issue in issues if issue.severity == "error"]
    if not errors:
        print(f"{args.model}: valid ({len(issues)} warning(s))")
        return 0
    return 1


def _cmd_simulate(args) -> int:
    model = read_sbml_file(args.model).model
    trace = simulate(model, args.t_end, args.steps)
    if args.output is not None:
        trace.write_csv(args.output)
        print(f"wrote {args.output}")
    else:
        for name in trace.species:
            print(f"{name:>16} {trace.sparkline(name)}")
        final = trace.final()
        print("final:", ", ".join(
            f"{name}={value:.4g}" for name, value in sorted(final.items())
        ))
    return 0


def _cmd_split(args) -> int:
    model = read_sbml_file(args.model).model
    parts = connected_components(model)
    for index, part in enumerate(parts):
        path = Path(f"{args.out_prefix}{index}.xml")
        write_sbml_file(part, path)
        print(
            f"wrote {path}: {part.num_nodes()} species, "
            f"{len(part.reactions)} reactions"
        )
    return 0


def _query_signature(model, options, index, store):
    """The query model's signature, rehydrated from the artifact
    store when its format-4 entry matches the index's key options."""
    if store is not None:
        artifacts = store.get_or_compute(model)
        candidate = getattr(artifacts, "signature", None)
        if (
            candidate is not None
            and getattr(candidate, "key_fingerprints", None) is not None
            and candidate.options_key == index.options_key
        ):
            return candidate
    return ModelSignature.build(model, options)


def _cmd_corpus_index(args) -> int:
    options = ComposeOptions(semantics=args.semantics)
    if args.store_max_entries is not None and args.store is None:
        print(
            "error: --store-max-entries needs --store",
            file=sys.stderr,
        )
        return 2
    if args.workers < 1:
        print("error: --workers must be positive", file=sys.stderr)
        return 2
    if args.index.exists():
        try:
            index = CorpusIndex.load(args.index)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if index.options_key != index_options_key(options):
            print(
                f"error: {args.index} was built under different key "
                f"options than --semantics {args.semantics}; use a "
                "separate index directory per option set",
                file=sys.stderr,
            )
            return 2
    else:
        index = CorpusIndex(options)
    store = ArtifactStore(args.store) if args.store is not None else None
    models = [read_sbml_file(path).model for path in args.models]
    added, refreshed = index.add_all(
        models,
        labels=[path.stem for path in args.models],
        paths=args.models,
        store=store,
        workers=args.workers,
    )
    dropped = []
    if args.evict_to is not None:
        dropped = index.evict(args.evict_to)
    index.save(args.index)
    if args.compact:
        report = index.compact()
        print(
            f"compacted {report['segments_merged']} segment(s) into "
            f"one ({report['models']} model(s), "
            f"{report['tombstones_cleared']} tombstone(s) cleared)",
            file=sys.stderr,
        )
    if args.store_max_entries is not None:
        evicted = store.evict(
            max_entries=args.store_max_entries, pinned=index.digests()
        )
        if evicted:
            print(
                f"evicted {evicted} unpinned artifact store entr"
                f"{'y' if evicted == 1 else 'ies'} "
                f"(LRU beyond {args.store_max_entries})",
                file=sys.stderr,
            )
    shape = index.stats()
    print(
        f"wrote {args.index}: {len(index)} model(s) "
        f"({added} new, {refreshed} refreshed"
        + (f", {len(dropped)} evicted" if dropped else "")
        + f"), {shape['segments']} segment(s), "
        f"{shape['posting_keys']} posting key(s)"
    )
    return 0


def _cmd_corpus_query(args) -> int:
    if (args.index is None) == (args.linear is None):
        print(
            "error: corpus query needs exactly one of --index or "
            "--linear",
            file=sys.stderr,
        )
        return 2
    if args.top_k < 0:
        print("error: --top-k must be non-negative", file=sys.stderr)
        return 2
    options = ComposeOptions(semantics=args.semantics)
    query_model = read_sbml_file(args.query).model
    query_label = args.query.stem
    store = ArtifactStore(args.store) if args.store is not None else None

    if args.linear is not None:
        labels = [path.stem for path in args.linear]
        candidates = [read_sbml_file(path).model for path in args.linear]
        matrix = match_query(query_model, candidates, options, store=store)
        rows = [
            replace(outcome, left=query_label, right=labels[outcome.j - 1])
            for outcome in matrix.outcomes
        ]
        pruned = 0
        summary = (
            f"query {query_label}: linear scan over "
            f"{len(candidates)} model(s)"
        )
    else:
        try:
            index = CorpusIndex.load(args.index)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if index.options_key != index_options_key(options):
            print(
                f"error: {args.index} was built under different key "
                f"options than --semantics {args.semantics}",
                file=sys.stderr,
            )
            return 2
        signature = _query_signature(query_model, options, index, store)
        ranked = index.rank(index.query(signature))
        blocked = [hit for hit in ranked if hit.blocked]
        selected = blocked if args.top_k == 0 else blocked[: args.top_k]
        loaded = []
        for hit in selected:
            entry = index.get(hit.digest)
            if entry.path is None:
                print(
                    f"warning: {hit.label}: no source path recorded in "
                    "the index; skipping full match for this candidate",
                    file=sys.stderr,
                )
                continue
            candidate = read_sbml_file(Path(entry.path)).model
            if model_digest(candidate) != hit.digest:
                print(
                    f"warning: {entry.path} changed since it was "
                    "indexed (stale digest); matching the current "
                    "file contents",
                    file=sys.stderr,
                )
            loaded.append((hit, candidate))
        rows = []
        if loaded:
            matrix = match_query(
                query_model,
                [candidate for _, candidate in loaded],
                options,
                store=store,
            )
            rows.extend(
                replace(
                    outcome,
                    j=loaded[outcome.j - 1][0].position + 1,
                    left=query_label,
                    right=loaded[outcome.j - 1][0].label,
                )
                for outcome in matrix.outcomes
            )
        pruned = len(ranked) - len(blocked)
        if args.with_pruned:
            query_size = query_model.network_size()
            for hit in ranked:
                if hit.blocked:
                    continue
                united, added, renamed, conflicts = hit.synthesized_counts(
                    signature.component_count
                )
                entry = index.get(hit.digest)
                rows.append(
                    PairOutcome(
                        i=0,
                        j=hit.position + 1,
                        left=query_label,
                        right=hit.label,
                        size=query_size + int(entry.signature.counts[25]),
                        seconds=0.0,
                        united=united,
                        added=added,
                        renamed=renamed,
                        conflicts=conflicts,
                    )
                )
        rows.sort(key=lambda outcome: (outcome.i, outcome.j))
        summary = (
            f"query {query_label}: {len(ranked)} indexed model(s), "
            f"{len(selected)} candidate(s) fully matched"
            + (
                f" (top {args.top_k} of {len(blocked)})"
                if args.top_k and len(blocked) > len(selected)
                else ""
            )
            + f", {pruned} prescreen-synthesized"
        )

    if args.output is not None:
        write_outcomes_csv(args.output, rows, deterministic=args.deterministic)
        print(f"wrote {args.output}")
    else:
        print(f"{'candidate':>24} {'size':>6} {'united':>6} "
              f"{'added':>6} {'renamed':>7} {'conflicts':>9}")
        for outcome in rows:
            print(
                f"{outcome.right:>24} {outcome.size:>6} "
                f"{outcome.united:>6} {outcome.added:>6} "
                f"{outcome.renamed:>7} {outcome.conflicts:>9}"
            )
    print(summary, file=sys.stderr)
    return 0


def _cmd_corpus(args) -> int:
    if args.corpus_command == "index":
        return _cmd_corpus_index(args)
    return _cmd_corpus_query(args)


def _cmd_store(args) -> int:
    # Only one subcommand today; argparse enforces store_command.
    store = ArtifactStore(args.store_dir)
    report = store.verify(quarantine=not args.keep_corrupt)
    print(report.summary())
    for digest in report.corrupt:
        print(f"  corrupt: {digest}", file=sys.stderr)
    for digest in report.incompatible:
        print(f"  incompatible format: {digest}", file=sys.stderr)
    for path in report.quarantined:
        print(f"  moved to {path}", file=sys.stderr)
    return 0 if report.clean else 1


def _cmd_worker(args) -> int:
    """The ``worker`` command: one remote sweep worker process."""
    try:
        host, port = parse_address(args.connect)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.chaos is not None:
        chaos.install(chaos.ChaosSpec.load(args.chaos))
    try:
        return run_remote_worker(host, port, store_dir=args.store)
    finally:
        if args.chaos is not None:
            chaos.uninstall()


_COMMANDS = {
    "merge": _cmd_merge,
    "sweep": _cmd_sweep,
    "worker": _cmd_worker,
    "sweep-status": _cmd_sweep_status,
    "sweep-merge": _cmd_sweep_merge,
    "corpus": _cmd_corpus,
    "store": _cmd_store,
    "diff": _cmd_diff,
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "split": _cmd_split,
}


def main(argv=None) -> int:
    """CLI entry point."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Bad argument values that argparse cannot validate (e.g.
        # --workers 0) surface as ValueError from the engine.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
