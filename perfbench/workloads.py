"""The four workloads: inputs, timed set-up, one unit of work, checks.

Each workload drives the program as one closed-loop caller: the next
operation starts only when the previous one returned.  Inputs are
generated from the seed with the ``biomodels_like`` generator and
written as SBML files; the program only ever reads those files back
(``read_sbml_file``, as the CLI does).

Every workload checks every output against a reference.  The
reference is the one recorded for the seed in ``references.json``
(``record.py`` writes it), or — for a seed that file does not cover —
computed at start-up by an independent path: the fresh-index sweep,
an in-memory index, or the legacy pairwise ``compose`` chain.  A
mismatch or an exception counts the unit's operations as failed; it
does not stop the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.options import ComposeOptions
from repro.corpus.biomodels_like import corpus_by_size, generate_corpus
from repro.sbml import reader, writer

from perfbench.tracing import load_dump

# Module objects, not names imported from them: a traced run swaps the
# modules' functions for wrappers, and calls must go through the swap.
# (``repro.core`` re-exports functions that shadow some submodules.)
store_mod = importlib.import_module("repro.core.artifact_store")
compose_mod = importlib.import_module("repro.core.compose")
coord_mod = importlib.import_module("repro.core.coordinator")
index_mod = importlib.import_module("repro.core.corpus_index")
match_mod = importlib.import_module("repro.core.match_all")
session_mod = importlib.import_module("repro.core.session")
sig_mod = importlib.import_module("repro.core.signature")

#: Input sizes per workload.  Changing a workload's entry invalidates
#: its recorded references (their ``params`` key no longer matches, so
#: references are computed at start-up until ``record.py`` runs again).
PARAMS = {
    # The generator's full 0..~500 nodes+edges range, size-sorted.
    "sweep-serial": {"models": 60},
    # The small-model end: models of at most ``max_size`` nodes+edges
    # out of ``generated``.
    "sweep-supervised": {"generated": 80, "max_size": 200, "shards": 8},
    # ``held_out`` models evenly spread over the size range, each used
    # once per pass: one in ten is re-indexed, the rest are queries.
    # Many distinct queries and a short candidate list keep a pass's
    # cost from hanging on a few seed-specific candidate sets.
    "corpus-query": {"library": 100, "held_out": 30, "top_k": 3},
    "compose-chain": {"models": 60},
}

OPTIONS = ComposeOptions(semantics="heavy")


def params_key(workload: str) -> str:
    return digest(PARAMS[workload])[:16]


def digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def rows_digest(outcomes) -> str:
    """Digest of the deterministic CSV rows (everything but seconds)."""
    return digest([list(outcome.key()) for outcome in outcomes])


def write_models(directory: Path, models, prefix_order: bool = False) -> List[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for position, model in enumerate(models):
        stem = f"{position:03d}_{model.id}" if prefix_order else model.id
        path = directory / f"{stem}.xml"
        writer.write_sbml_file(model, path)
        paths.append(path)
    return paths


def read_models(paths) -> list:
    return [reader.read_sbml_file(path).model for path in paths]


@dataclass
class Unit:
    """One unit of closed-loop work and what its checks found."""

    #: Wall seconds of the unit's timed operations.
    wall: float
    #: Operations completed (the throughput numerator).
    ops: int
    attempted: int
    failed: int
    #: Latency samples (seconds) behind the e2e percentiles.
    latencies: List[float]
    #: Workload-specific numbers for the report.
    notes: Dict[str, object] = field(default_factory=dict)


class Workload:
    name = ""
    #: Set-up repetitions; ``setup_s`` is their median.
    setup_rounds = 5
    #: Counter-name prefixes whose values depend on scheduling, left
    #: out of the exact-repeat check.
    volatile_counts: tuple = ()

    def __init__(self, workdir: Path, seed: int, recorded: Optional[object]):
        self.workdir = workdir
        self.seed = seed
        self.recorded = recorded
        self.reference = None
        self.reference_source = ""
        self.tracer = None
        #: Called every few operations inside a long unit (outside any
        #: timed region) to take a calibration sample.
        self.between_ops = lambda: None
        #: Check failures, as lines for the report.
        self.problems: List[str] = []
        #: Span dumps from other processes (the remote worker).
        self.remote_dumps: List[dict] = []

    # The benchmark's own work must not show up in a traced run.
    def untraced(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()

    def prepare(self) -> None:
        """Generate and write inputs; settle the reference."""
        self.generate()
        if self.recorded is not None:
            self.reference, self.reference_source = self.recorded, "recorded"
        else:
            self.reference, self.reference_source = (
                self.compute_reference(),
                "computed",
            )

    def generate(self) -> None:
        raise NotImplementedError

    def compute_reference(self):
        raise NotImplementedError

    def setup(self) -> float:
        """Run the timed set-up once; returns its seconds."""
        raise NotImplementedError

    def run_unit(self) -> Unit:
        raise NotImplementedError

    def layer_extras(self, units: List[Unit]) -> Dict[str, float]:
        return {}

    def report_lines(self, units: List[Unit]) -> List[str]:
        return []

    def fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)


def _pair_notes(outcomes) -> Dict[str, object]:
    return {"pair_seconds": [outcome.seconds for outcome in outcomes]}


def _pairs_per_s(units) -> str:
    return f"{sum(u.ops for u in units) / sum(u.wall for u in units):.1f} pairs/s"


# ---------------------------------------------------------------------------
# sweep-serial
# ---------------------------------------------------------------------------


class SweepSerial(Workload):
    """The paper's Figure 8: every unordered pair, self-pairs included,
    of a size-sorted corpus, one worker, no store/prescreen/transport."""

    name = "sweep-serial"

    def generate(self) -> None:
        models = corpus_by_size(
            generate_corpus(PARAMS[self.name]["models"], seed=self.seed)
        )
        self.generated = models
        self.paths = write_models(self.workdir / "corpus", models, prefix_order=True)
        count = len(models)
        self.pair_count = count * (count + 1) // 2

    def compute_reference(self):
        matrix = match_mod.match_all(
            self.generated, OPTIONS, workers=1, prebuilt_indexes=False
        )
        return rows_digest(matrix.outcomes)

    def setup(self) -> float:
        started = time.perf_counter()
        self.models = corpus_by_size(read_models(self.paths))
        return time.perf_counter() - started

    def run_unit(self) -> Unit:
        started = time.perf_counter()
        try:
            matrix = match_mod.match_all(self.models, OPTIONS, workers=1)
        except Exception:  # noqa: BLE001 - counted, run continues
            self.fail(traceback.format_exc(limit=3))
            wall = time.perf_counter() - started
            return Unit(wall, 0, self.pair_count, self.pair_count, [])
        wall = time.perf_counter() - started
        failed = 0
        if rows_digest(matrix.outcomes) != self.reference:
            failed = self.pair_count
            self.fail("sweep rows differ from the reference digest")
        notes = _pair_notes(matrix.outcomes)
        return Unit(
            wall,
            len(matrix.outcomes),
            self.pair_count,
            failed,
            notes["pair_seconds"],
            notes,
        )

    def report_lines(self, units):
        return [
            f"pairs_per_s (raw): {_pairs_per_s(units)} over {len(units)} "
            f"sweeps of {self.pair_count} pairs"
        ]


# ---------------------------------------------------------------------------
# sweep-supervised
# ---------------------------------------------------------------------------


class SweepSupervised(Workload):
    """``SweepCoordinator`` over the small-model end, cold out-dir each
    sweep, one local pipe worker plus one loopback TCP worker that
    starts with an empty store and rehydrates through digest-fetch."""

    name = "sweep-supervised"
    workers = 2
    # Which worker takes which shard is a race, so frame counts and
    # the remote worker's fetches vary from sweep to sweep.
    volatile_counts = ("transport.", "artifact_store.get_blob")

    def generate(self) -> None:
        generated = generate_corpus(PARAMS[self.name]["generated"], seed=self.seed)
        models = corpus_by_size(
            model
            for model in generated
            if model.network_size() <= PARAMS[self.name]["max_size"]
        )
        self.generated = models
        self.paths = write_models(self.workdir / "corpus", models, prefix_order=True)
        count = len(models)
        self.pair_count = count * (count + 1) // 2
        self.sweeps = 0

    def compute_reference(self):
        # The in-process engine over the same corpus.
        return rows_digest(
            match_mod.match_all(self.generated, OPTIONS, workers=1).outcomes
        )

    def setup(self) -> float:
        started = time.perf_counter()
        self.models = corpus_by_size(read_models(self.paths))
        return time.perf_counter() - started

    def _start_worker(self, address, out_dir: Path):
        store = out_dir / "remote-store"
        store.mkdir(parents=True)
        command = [
            sys.executable,
            str(Path(__file__).resolve().parent / "worker.py"),
            "--connect",
            f"{address[0]}:{address[1]}",
            "--store",
            str(store),
            "--trace",
            "1" if self.tracer is not None else "0",
            "--spans",
            str(out_dir / "remote-spans.json"),
        ]
        log = open(out_dir / "remote-worker.log", "w")
        try:
            worker = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log, text=True
            )
        finally:
            log.close()
        if worker.stdout.readline().strip() != "ready":
            self._stop_worker(worker, timeout=5)
            raise RuntimeError("remote worker failed to start")
        return worker

    @staticmethod
    def _stop_worker(worker, timeout: float) -> Optional[int]:
        try:
            code = worker.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()
            code = None
        worker.stdout.close()
        return code

    def run_unit(self) -> Unit:
        self.sweeps += 1
        out_dir = self.workdir / f"sweep-{self.sweeps}"
        out_dir.mkdir()
        worker = None
        wall = 0.0
        try:
            started = time.perf_counter()
            fingerprint = store_mod.corpus_fingerprint(
                self.models, extra=("shards", PARAMS[self.name]["shards"])
            )
            wall += time.perf_counter() - started
            coordinator = coord_mod.SweepCoordinator(
                self.models,
                OPTIONS,
                shards=PARAMS[self.name]["shards"],
                out_dir=out_dir,
                fingerprint=fingerprint,
                config=coord_mod.CoordinatorConfig(workers=1),
                progress=False,
                listen=("127.0.0.1", 0),
            )
            worker = self._start_worker(coordinator.listen_address, out_dir)
            started = time.perf_counter()
            report = coordinator.run()
            wall += time.perf_counter() - started
            code = self._stop_worker(worker, timeout=60)
            worker = None
        except Exception:  # noqa: BLE001 - counted, run continues
            self.fail(traceback.format_exc(limit=3))
            return Unit(wall, 0, self.pair_count, self.pair_count, [])
        finally:
            if worker is not None:
                self._stop_worker(worker, timeout=5)
        with self.untraced():
            if self.tracer is not None:
                dump = load_dump(out_dir / "remote-spans.json")
                if dump is None:
                    self.fail("remote worker wrote no spans")
                else:
                    self.remote_dumps.append(dump)
            outcomes = (
                match_mod.MatchMatrix.union(report.matrices).outcomes
                if report.matrices
                else []
            )
            failed = 0
            if code != 0:
                failed = self.pair_count
                self.fail(f"remote worker exited with {code}")
            elif report.exit_code != 0 or report.quarantined:
                failed = self.pair_count
                self.fail(f"sweep exit code {report.exit_code}, quarantined {len(report.quarantined)}")
            elif rows_digest(outcomes) != self.reference:
                failed = self.pair_count
                self.fail("supervised rows differ from the in-process sweep")
            shutil.rmtree(out_dir, ignore_errors=True)
        notes = _pair_notes(outcomes)
        notes.update(
            busy=sum(o.seconds for o in outcomes) / (wall * self.workers),
            retries=report.retries,
            steals=report.steals,
            quarantined=len(report.quarantined),
        )
        return Unit(
            wall, len(outcomes), self.pair_count, failed, notes["pair_seconds"], notes
        )

    def layer_extras(self, units):
        pair_seconds = [s for unit in units for s in unit.notes.get("pair_seconds", [])]
        count = len(units)
        # The local worker's spans are not collected: its compose time
        # is the PairOutcome.seconds of every pair, like the remote's.
        return {
            "compose.step_n": len(pair_seconds) / count,
            "compose.step_s": sum(pair_seconds) / count,
            "coordinator.busy_frac": statistics.mean(u.notes.get("busy", 0.0) for u in units),
            "coordinator.retries": sum(u.notes.get("retries", 0) for u in units) / count,
            "coordinator.steals": sum(u.notes.get("steals", 0) for u in units) / count,
            "coordinator.quarantined": sum(u.notes.get("quarantined", 0) for u in units) / count,
        }

    def report_lines(self, units):
        busy = statistics.median(unit.notes.get("busy", 0.0) for unit in units)
        return [
            f"pairs_per_s (raw): {_pairs_per_s(units)} over {len(units)} "
            f"supervised sweeps of {self.pair_count} pairs, {self.workers} "
            f"workers, median busy fraction {busy:.2f}"
        ]


# ---------------------------------------------------------------------------
# corpus-query
# ---------------------------------------------------------------------------


class CorpusQuery(Workload):
    """The ``corpus query --index`` path in process, nine queries to
    one incremental re-index."""

    name = "corpus-query"
    setup_rounds = 3

    def generate(self) -> None:
        held_out = PARAMS[self.name]["held_out"]
        models = generate_corpus(PARAMS[self.name]["library"] + held_out, seed=self.seed)
        last = len(models) - 1
        held = sorted({1 + (k * (last - 1)) // (held_out - 1) for k in range(held_out)})
        held_models = [models[position] for position in held]
        library = [m for position, m in enumerate(models) if position not in set(held)]
        adds = [m for k, m in enumerate(held_models) if k % 10 == 9]
        queries = [m for k, m in enumerate(held_models) if k % 10 != 9]
        self.library = library
        self.queries = queries
        self.adds = adds
        self.library_paths = write_models(self.workdir / "library", library)
        self.query_paths = write_models(self.workdir / "queries", queries)
        self.add_paths = write_models(self.workdir / "adds", adds)
        self.add_digests = [store_mod.model_digest(model) for model in adds]
        self.setup_index = self.workdir / "index-setup"
        self.write_index = self.workdir / "index-write"

    def compute_reference(self):
        index = index_mod.CorpusIndex(OPTIONS)
        index.add_all(
            self.library,
            labels=[path.stem for path in self.library_paths],
            paths=self.library_paths,
        )
        by_digest = {store_mod.model_digest(m): m for m in self.library}
        expected = []
        for model, path in zip(self.queries, self.query_paths):
            signature = sig_mod.ModelSignature.build(model, OPTIONS)
            ranked = index.rank(index.query(signature))
            selected = [hit for hit in ranked if hit.blocked][: PARAMS[self.name]["top_k"]]
            rows = []
            if selected:
                matrix = match_mod.match_query(
                    model,
                    [by_digest[hit.digest] for hit in selected],
                    OPTIONS,
                    prebuilt_indexes=False,
                )
                rows = [
                    replace(
                        o,
                        j=selected[o.j - 1].position + 1,
                        left=path.stem,
                        right=selected[o.j - 1].label,
                    )
                    for o in matrix.outcomes
                ]
            expected.append(_query_digest(ranked, rows))
        return expected

    def setup(self) -> float:
        shutil.rmtree(self.setup_index, ignore_errors=True)
        started = time.perf_counter()
        models = read_models(self.library_paths)
        index = index_mod.CorpusIndex(OPTIONS)
        index.add_all(
            models,
            labels=[path.stem for path in self.library_paths],
            paths=self.library_paths,
        )
        index.save(self.setup_index)
        return time.perf_counter() - started

    def _query(self, position: int):
        path = self.query_paths[position]
        started = time.perf_counter()
        query = reader.read_sbml_file(path).model
        index = index_mod.CorpusIndex.load(self.setup_index)
        if index.options_key != compose_mod.index_options_key(OPTIONS):
            raise RuntimeError("index built under other key options")
        signature = sig_mod.ModelSignature.build(query, OPTIONS)
        ranked = index.rank(index.query(signature))
        selected = [hit for hit in ranked if hit.blocked][: PARAMS[self.name]["top_k"]]
        loaded = []
        stale = 0
        for hit in selected:
            candidate = reader.read_sbml_file(Path(index.get(hit.digest).path)).model
            if store_mod.model_digest(candidate) != hit.digest:
                stale += 1
            loaded.append((hit, candidate))
        rows = []
        outcomes = []
        if loaded:
            matrix = match_mod.match_query(
                query, [candidate for _, candidate in loaded], OPTIONS
            )
            outcomes = matrix.outcomes
            rows = [
                replace(
                    o,
                    j=loaded[o.j - 1][0].position + 1,
                    left=path.stem,
                    right=loaded[o.j - 1][0].label,
                )
                for o in outcomes
            ]
        seconds = time.perf_counter() - started
        ok = stale == 0 and _query_digest(ranked, rows) == self.reference[position]
        return seconds, ok, outcomes

    def _reindex(self, number: int):
        path = self.add_paths[number]
        started = time.perf_counter()
        index = index_mod.CorpusIndex.load(self.write_index)
        model = reader.read_sbml_file(path).model
        index.add(model, path.stem, path=path)
        index.save(self.write_index)
        seconds = time.perf_counter() - started
        ok = (
            self.add_digests[number] in index
            and len(index) == len(self.library) + number + 1
        )
        return seconds, ok

    def run_unit(self) -> Unit:
        with self.untraced():
            shutil.rmtree(self.write_index, ignore_errors=True)
            shutil.copytree(self.setup_index, self.write_index)
        queries: List[float] = []
        adds: List[float] = []
        outcomes = []
        failed = 0
        next_query = 0
        for op in range(len(self.query_paths) + len(self.add_paths)):
            if op and op % 5 == 0:
                self.between_ops()
            try:
                if op % 10 == 9:
                    seconds, ok = self._reindex(op // 10)
                    adds.append(seconds)
                else:
                    seconds, ok, pairs = self._query(next_query)
                    next_query += 1
                    queries.append(seconds)
                    outcomes.extend(pairs)
            except Exception:  # noqa: BLE001 - counted, run continues
                self.fail(traceback.format_exc(limit=3))
                failed += 1
                continue
            if not ok:
                failed += 1
                self.fail(f"operation {op} differs from the reference")
        with self.untraced():
            final = index_mod.CorpusIndex.load(self.write_index)
            if len(final) != len(self.library) + len(adds) or not all(
                d in final for d in self.add_digests
            ):
                failed += 1
                self.fail("re-indexed models missing after reload")
            segments = final.stats()["segments"]
        notes = _pair_notes(outcomes)
        notes.update(add_seconds=adds, segments=segments)
        return Unit(
            sum(queries) + sum(adds),
            len(queries) + len(adds),
            len(self.query_paths) + len(self.add_paths),
            failed,
            queries,
            notes,
        )

    def layer_extras(self, units):
        return {
            "corpus_index.segments": statistics.mean(u.notes["segments"] for u in units)
        }

    def report_lines(self, units):
        adds = [s for unit in units for s in unit.notes["add_seconds"]]
        if not adds:
            return ["add_p50_ms: no incremental re-index completed"]
        return [
            f"add_p50_ms (raw): {statistics.median(adds) * 1000:.2f} ms "
            f"(n={len(adds)} incremental re-indexes)"
        ]


def _query_digest(ranked, rows) -> str:
    return digest(
        [
            [[hit.digest, hit.blocked] for hit in ranked],
            [list(row.key()) for row in rows],
        ]
    )


# ---------------------------------------------------------------------------
# compose-chain
# ---------------------------------------------------------------------------


class ComposeChain(Workload):
    """One serial session fold over the corpus in generation order."""

    name = "compose-chain"

    def generate(self) -> None:
        models = generate_corpus(PARAMS[self.name]["models"], seed=self.seed)
        self.generated = models
        self.paths = write_models(self.workdir / "corpus", models, prefix_order=True)
        self.steps = len(models) - 1

    def compute_reference(self):
        # The legacy pairwise shim chained by hand: byte-identical to a
        # session fold by the conformance matrix, sharing none of the
        # session's caches or carried state.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            accumulator = self.generated[0]
            for model in self.generated[1:]:
                accumulator, _ = compose_mod.compose(accumulator, model, OPTIONS)
        return store_mod.model_digest(accumulator)

    def setup(self) -> float:
        started = time.perf_counter()
        self.models = read_models(self.paths)
        return time.perf_counter() - started

    def run_unit(self) -> Unit:
        started = time.perf_counter()
        try:
            result = session_mod.ComposeSession(OPTIONS).compose_all(
                self.models, plan="fold"
            )
        except Exception:  # noqa: BLE001 - counted, run continues
            self.fail(traceback.format_exc(limit=3))
            return Unit(time.perf_counter() - started, 0, 1, 1, [])
        wall = time.perf_counter() - started
        with self.untraced():
            ok = (
                len(result.steps) == self.steps
                and store_mod.model_digest(result.model) == self.reference
            )
        if not ok:
            self.fail("merged model or step count differs from the reference")
        steps = [step.seconds for step in result.steps]
        return Unit(
            wall,
            len(steps),
            1,
            0 if ok else 1,
            steps,
            {"step_seconds": sum(steps), "step_n": len(steps)},
        )

    def layer_extras(self, units):
        count = len(units)
        return {
            "session.step_n": sum(u.notes.get("step_n", 0) for u in units) / count,
            "session.step_s": sum(u.notes.get("step_seconds", 0.0) for u in units) / count,
        }

    def report_lines(self, units):
        merges = sorted(unit.wall for unit in units)
        return [
            f"merge_s (raw): {statistics.median(merges):.3f} s "
            f"(median of {len(units)} fold merges of {self.steps + 1} models)"
        ]


WORKLOADS = {
    cls.name: cls
    for cls in (SweepSerial, SweepSupervised, CorpusQuery, ComposeChain)
}
