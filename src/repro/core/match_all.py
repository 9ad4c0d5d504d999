"""Batched all-pairs matching — the Figure 8 workload as an engine.

The paper's Figure 8 experiment composes every model of a corpus with
every other model (17,578 merges over 187 models).  Driving that with
one cold :func:`~repro.core.compose.compose` per pair repays the same
per-model preprocessing hundreds of times — each model appears in
``n`` pairs, and every appearance used to re-derive its unit registry,
its evaluated initial-value environment and its used-id set, the way
semanticSBML-era tooling re-parsed inputs per merge.  sirn-style
structural identity search batches corpus-scale comparisons instead;
:func:`match_all` is that idea for composition:

* per-model artifacts are computed **once** and shared across all of
  the model's pairs (handed to the engine as a carried
  :class:`~repro.core.compose.AccumState`), optionally spilled to /
  rehydrated from an on-disk
  :class:`~repro.core.artifact_store.ArtifactStore` so they survive
  across shard runs and resumed sweeps,
* one :class:`~repro.core.compose.Composer` serves the whole sweep
  (with ``options.memoize_patterns`` it also carries one
  :class:`~repro.core.pattern_cache.PatternCache`: model copies share
  their immutable math nodes, so canonical patterns are computed per
  expression, not per pair),
* with ``workers > 1`` the sweep runs under the supervised
  :class:`~repro.core.coordinator.SweepCoordinator` — local worker
  processes with leases, retries and poison-pair quarantine — and
  returns the same rows as the in-process engine,
* the sweep itself iterates deterministic **shards** of the pair
  matrix (:func:`~repro.core.shards.partition_pairs`):
  :func:`match_all` runs every shard in one process, while
  :func:`match_all_sharded` computes a single shard so K machines (or
  K sequential, individually checkpointed steps of one machine — see
  ``sbmlcompose sweep --shards``) can split a corpus that shouldn't
  monopolise one box.  The union of the K shard matrices is
  *identical* to the unsharded sweep, pair for pair.

The composed models themselves are discarded — an all-pairs sweep is
about the matching outcome (what united, what conflicted, how long it
took), and keeping ``n²/2`` merged models alive would dwarf the corpus.
Compose the few pairs you care about through a session afterwards.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core import chaos
from repro.core.artifact_store import (
    ArtifactStore,
    CorpusManifest,
    ModelArtifacts,
    compute_artifacts,
)
from repro.core.compose import (
    AccumState,
    BoundIndexSet,
    Composer,
    ModelIndexSet,
    index_options_key,
)
from repro.core.options import ComposeOptions
from repro.core.pattern_cache import PatternCache
from repro.core.session import stable_labels
from repro.core.shards import Shard, partition_pairs
from repro.core.signature import Prescreen
from repro.errors import ReproError
from repro.sbml.model import Model
from repro.sbml.reader import read_sbml
from repro.units.registry import UnitRegistry

__all__ = [
    "PairOutcome",
    "MatchMatrix",
    "match_all",
    "match_all_sharded",
    "match_query",
    "write_outcomes",
    "write_outcomes_csv",
    "read_outcomes_csv",
]

@dataclass(frozen=True)
class PairOutcome:
    """The matching outcome of composing one corpus pair."""

    i: int
    j: int
    left: str
    right: str
    #: Combined network size (paper Figure 8 x-axis: nodes + edges).
    size: int
    seconds: float
    united: int
    added: int
    renamed: int
    conflicts: int

    def row(self, deterministic: bool = False) -> Tuple:
        """CSV row (matches :meth:`MatchMatrix.csv_header`).

        ``deterministic=True`` drops the wall-time cell — the one
        field that varies between runs — leaving a row that is
        byte-identical however (and wherever) the pair was computed.
        """
        cells = [self.i, self.j, self.left, self.right, self.size]
        if not deterministic:
            cells.append(f"{self.seconds:.6f}")
        cells.extend((self.united, self.added, self.renamed, self.conflicts))
        return tuple(cells)

    def key(self) -> Tuple:
        """The run-invariant fields — everything but wall time.  Two
        computations of the same pair must agree on this exactly."""
        return self.row(deterministic=True)


@dataclass
class MatchMatrix:
    """Every pair outcome of an all-pairs sweep, plus sweep totals."""

    outcomes: List[PairOutcome]
    seconds: float
    model_count: int
    workers: int
    #: Set when this matrix holds one shard of a sharded sweep.
    shard_id: Optional[int] = None
    shard_count: Optional[int] = None
    #: Pairs whose outcome was synthesized by the structural prescreen
    #: instead of running the Figure 4/5 phases (their
    #: :class:`PairOutcome` rows are still present, byte-identical to
    #: what the full matcher would have produced).
    pruned: int = 0
    #: Pairs a supervised sweep quarantined as poison (they repeatedly
    #: killed their worker) — their rows are *absent*: the sweep
    #: degraded gracefully instead of looping or aborting.  See
    #: :class:`~repro.core.coordinator.SweepCoordinator` and the
    #: ``quarantine.json`` sidecar for the captured evidence.
    quarantined: int = 0

    @property
    def pair_count(self) -> int:
        return len(self.outcomes)

    @property
    def pairs_per_second(self) -> float:
        return self.pair_count / self.seconds if self.seconds > 0 else 0.0

    def series(self) -> List[Tuple[int, float]]:
        """``(combined size, seconds)`` per pair — the Figure 8 shape."""
        return [(o.size, o.seconds) for o in self.outcomes]

    @staticmethod
    def csv_header(deterministic: bool = False) -> List[str]:
        header = ["i", "j", "left", "right", "combined_size"]
        if not deterministic:
            header.append("seconds")
        header.extend(("united", "added", "renamed", "conflicts"))
        return header

    def summary(self) -> str:
        sharded = (
            f", shard {self.shard_id}/{self.shard_count}"
            if self.shard_id is not None
            else ""
        )
        prescreened = (
            f", {self.pruned} prescreen-synthesized" if self.pruned else ""
        )
        quarantined = (
            f", {self.quarantined} pair(s) QUARANTINED"
            if self.quarantined
            else ""
        )
        return (
            f"{self.pair_count} pairs over {self.model_count} models in "
            f"{self.seconds:.2f}s ({self.pairs_per_second:.1f} pairs/s, "
            f"workers={self.workers}{sharded}"
            f"{prescreened}{quarantined})"
        )

    @classmethod
    def union(cls, parts: Sequence["MatchMatrix"]) -> "MatchMatrix":
        """Union shard matrices back into one all-pairs matrix.

        Outcomes are re-sorted into canonical sweep order, so the
        union of a complete shard set is identical (pair for pair, in
        order) to the unsharded :func:`match_all` run — only the
        wall-time fields reflect the sharded execution.  Raises
        :class:`ValueError` on overlapping shards (a pair computed
        twice means the parts are not one sweep's shards).
        """
        if not parts:
            raise ValueError("cannot union zero shard matrices")
        model_counts = {part.model_count for part in parts}
        if len(model_counts) != 1:
            raise ValueError(
                f"shard matrices disagree on corpus size: "
                f"{sorted(model_counts)}"
            )
        seen: Dict[Tuple[int, int], PairOutcome] = {}
        for part in parts:
            for outcome in part.outcomes:
                pair = (outcome.i, outcome.j)
                if pair in seen:
                    raise ValueError(
                        f"pair {pair} appears in more than one shard"
                    )
                seen[pair] = outcome
        return cls(
            outcomes=[seen[pair] for pair in sorted(seen)],
            seconds=sum(part.seconds for part in parts),
            model_count=model_counts.pop(),
            workers=max(part.workers for part in parts),
            pruned=sum(part.pruned for part in parts),
            quarantined=sum(part.quarantined for part in parts),
        )


def write_outcomes(
    handle,
    outcomes: Sequence[PairOutcome],
    *,
    deterministic: bool = False,
) -> None:
    """Write an outcome table as CSV to an open text stream."""
    handle.write(",".join(MatchMatrix.csv_header(deterministic)) + "\n")
    for outcome in outcomes:
        handle.write(
            ",".join(str(cell) for cell in outcome.row(deterministic)) + "\n"
        )


def write_outcomes_csv(
    path: Union[str, Path],
    outcomes: Sequence[PairOutcome],
    *,
    deterministic: bool = False,
) -> None:
    """Write an outcome table as a CSV file.

    ``deterministic=True`` omits the ``seconds`` column, producing a
    file that is byte-identical across runs and shardings of the same
    corpus — the format ``sweep-merge`` emits and CI diffs against.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        write_outcomes(handle, outcomes, deterministic=deterministic)


def read_outcomes_csv(path: Union[str, Path]) -> List[PairOutcome]:
    """Read an outcome table written by :func:`write_outcomes_csv`
    (either column layout; a deterministic table reads back with
    ``seconds=0.0``)."""
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        for layout in (False, True):
            if header == MatchMatrix.csv_header(layout):
                deterministic = layout
                break
        else:
            raise ValueError(f"{path}: not a sweep outcome table")
        outcomes = []
        for line in handle:
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            cursor = iter(cells)
            i, j = int(next(cursor)), int(next(cursor))
            left, right = next(cursor), next(cursor)
            size = int(next(cursor))
            seconds = 0.0 if deterministic else float(next(cursor))
            outcomes.append(
                PairOutcome(
                    i=i,
                    j=j,
                    left=left,
                    right=right,
                    size=size,
                    seconds=seconds,
                    united=int(next(cursor)),
                    added=int(next(cursor)),
                    renamed=int(next(cursor)),
                    conflicts=int(next(cursor)),
                )
            )
    return outcomes


class _PairEngine:
    """Shared-artifact pairwise composer: one per sweep in process,
    one per supervised worker process.

    With ``store_root`` set, the in-memory memo gains an on-disk tier:
    artifacts missing from the memo are rehydrated from the
    content-addressed :class:`~repro.core.artifact_store.ArtifactStore`
    and computed-then-spilled only on a true miss, so shard runs and
    resumed sweeps share each model's preprocessing across processes.

    With ``manifest`` set (and ``models=None``), the engine is
    **digest-shipped**: it holds no corpus at all.  Each model is
    rehydrated from the store on first touch — the format-5 entry's
    canonical SBML text is parsed once per worker, and the same entry
    seeds the pattern table and phase-index rows, so a rehydrated
    model composes exactly like an in-memory one.  A manifest digest
    the store cannot resolve (evicted mid-sweep, or a pre-format-5
    entry without the blob) raises :class:`~repro.errors.ReproError`.
    """

    def __init__(
        self,
        options: Optional[ComposeOptions],
        models: Optional[Sequence[Model]],
        labels: Optional[Sequence[str]],
        store_root: Optional[str] = None,
        prebuilt_indexes: bool = True,
        manifest: Optional[CorpusManifest] = None,
        fetch=None,
    ):
        self.options = options or ComposeOptions()
        self.manifest = manifest
        #: Digest-fetch escape hatch for remote workers without the
        #: shared filesystem: ``fetch(digest) -> Optional[bytes]``
        #: (raw store-entry bytes, or ``None``), consulted only when
        #: the local store misses.  Fetched bytes are cached into the
        #: local store, so each entry crosses the wire at most once.
        self._fetch = fetch
        if manifest is not None:
            if store_root is None:
                raise ValueError(
                    "a digest-shipped engine needs a store_root to "
                    "rehydrate models from"
                )
            if models is not None:
                raise ValueError(
                    "pass models or a manifest, not both — a "
                    "digest-shipped engine rehydrates its corpus"
                )
            self.models = None
            self.labels = (
                list(labels) if labels is not None else list(manifest.labels)
            )
        else:
            if models is None:
                raise ValueError("models are required without a manifest")
            self.models = list(models)
            self.labels = list(labels)
        #: With prebuilt indexes on (the default), each model's twelve
        #: phase indexes are materialised once (from stored rows when
        #: a compatible store entry exists, built otherwise) and every
        #: pair the model is target of merges through copy-on-write
        #: overlays instead of rebuilding them.  ``False`` restores
        #: the per-pair fresh build — the differential reference the
        #: conformance matrix pins the prebuilt path against.
        self.prebuilt_indexes = prebuilt_indexes
        # One composer — and one pattern cache — for the whole sweep.
        # The cache is always on here (unlike one-shot merges, where
        # ``options.memoize_patterns`` defaults off because small-law
        # bookkeeping can cost more than it saves): it is *seeded*
        # from each model's precomputed pattern table the first time
        # the model's artifacts load, so the empty-restriction case —
        # the overwhelming majority — never computes a pattern during
        # a pair merge at all.
        self.pattern_cache = PatternCache()
        self.composer = Composer(
            self.options, pattern_cache=self.pattern_cache
        )
        self.store = ArtifactStore(store_root) if store_root else None
        self._artifacts: Dict[
            int,
            Tuple[
                Set[str],
                UnitRegistry,
                Dict[str, float],
                Optional[Dict[str, frozenset]],
            ],
        ] = {}
        #: Lazily bound per-model phase indexes — built only when a
        #: model is first used as a pair's *target* (a source-only
        #: model never pays the 12-phase key build).  ``None`` marks
        #: prebuilt indexes off.
        self._indexes: Dict[int, Optional[BoundIndexSet]] = {}
        #: Stored index rows rehydrated with the rest of a model's
        #: artifacts, held until (and unless) the model becomes a
        #: target.
        self._index_rows: Dict[int, Optional[ModelIndexSet]] = {}
        self._sizes: Dict[int, int] = {}
        #: Digest-shipped mode only: models parsed back out of store
        #: entries, and the entries themselves (one store read serves
        #: both the model and its artifacts — "parse once per worker").
        self._rehydrated: Dict[int, Model] = {}
        self._entries: Dict[int, ModelArtifacts] = {}

    def _manifest_entry(self, index: int) -> ModelArtifacts:
        """The store entry behind manifest position ``index``, read
        once per worker.  Raises when the digest no longer resolves to
        a rehydratable (format-5, blob-carrying) entry."""
        entry = self._entries.get(index)
        if entry is not None:
            return entry
        label, digest = self.manifest.entries[index]
        entry = self.store.get(digest)
        if (
            (entry is None or entry.sbml is None)
            and self._fetch is not None
        ):
            # Remote rehydration: pull the raw entry bytes
            # from the coordinator, land them in the local
            # store (so every later pair — and every later
            # sweep against this store — hits locally), then
            # re-read through the normal screening path.
            data = self._fetch(digest)
            if data:
                self.store.put_blob(digest, data)
                entry = self.store.get(digest)
        if entry is None or entry.sbml is None:
            problem = (
                "has no entry for it"
                if entry is None
                else "entry predates format 5 (no SBML blob)"
            )
            raise ReproError(
                f"digest-shipped worker cannot rehydrate model "
                f"{label!r} (digest {digest[:12]}...): store at "
                f"{self.store.root} {problem}.  If an eviction "
                f"removed it mid-sweep, pin the corpus "
                f"(evict(pinned=manifest.digests))."
            )
        self._entries[index] = entry
        return entry

    def _model(self, index: int) -> Model:
        """The corpus model at ``index`` — directly in in-memory mode,
        parsed (once) from its store entry in digest-shipped mode."""
        if self.models is not None:
            return self.models[index]
        model = self._rehydrated.get(index)
        if model is not None:
            return model
        model = read_sbml(self._manifest_entry(index).sbml).model
        self._rehydrated[index] = model
        return model

    def _model_artifacts(
        self, index: int
    ) -> Tuple[
        Set[str],
        UnitRegistry,
        Dict[str, float],
        Optional[Dict[str, frozenset]],
    ]:
        hit = self._artifacts.get(index)
        if hit is not None:
            return hit
        # Digest-shipped mode reads the manifest entry — the
        # same store read that rehydrated (or will rehydrate)
        # the model itself.  Without a store, the pattern
        # table is only worth computing when this sweep's
        # options will consult patterns; store-backed
        # artifacts stay complete regardless, because other
        # runs (with other semantics) rehydrate the same
        # entry.  The index rows are likewise only taken from
        # compute_artifacts when spilling to a store — a
        # locally built set routes its math keys through the
        # sweep's own seeded cache.
        if self.manifest is not None:
            artifacts = self._manifest_entry(index)
        elif self.store is not None:
            artifacts = self.store.get_or_compute(
                self._model(index)
            )
        else:
            artifacts = compute_artifacts(
                self._model(index),
                with_patterns=self.options.use_math_patterns,
                with_indexes=False,
                with_sbml=False,
            )
        if artifacts.patterns:
            self.pattern_cache.seed(artifacts.patterns)
        if self.prebuilt_indexes:
            self._index_rows[index] = artifacts.indexes
        hit = (
            artifacts.used_ids,
            artifacts.registry,
            artifacts.initial,
            getattr(artifacts, "id_sets", None),
        )
        self._artifacts[index] = hit
        return hit

    def _target_indexes(self, index: int) -> Optional[BoundIndexSet]:
        """The model's bound phase indexes, built on first use as a
        pair target (never for source-only models).  Call after
        :meth:`_model_artifacts` has populated the rows memo."""
        if not self.prebuilt_indexes:
            return None
        bound = self._indexes.get(index)
        if bound is not None:
            return bound
        model = self._model(index)
        index_set = self._index_rows.get(index)
        if index_set is None or not index_set.matches(self.options):
            # Stored rows absent (format-2 entry, no store) or
            # keyed under other options: build locally, once
            # per model.
            index_set = ModelIndexSet.build(
                model, self.options, self.pattern_cache
            )
        bound = index_set.bind(model, self.options)
        self._indexes[index] = bound
        return bound

    def _model_size(self, index: int) -> int:
        size = self._sizes.get(index)
        if size is None:
            size = self._model(index).network_size()
            self._sizes[index] = size
        return size

    def run_pair(self, i: int, j: int) -> PairOutcome:
        # Chaos injection site: a "kill" fault here is a worker dying
        # mid-pair, a "raise" fault is a poison pair, a "stall" fault
        # is a live-but-stuck worker.  Free when chaos is unarmed.
        chaos.trip("pair-start", i=i, j=j)
        left = self._model(i)
        right = self._model(j)
        used_ids, registry, initial, id_sets = self._model_artifacts(i)
        _, source_registry, source_initial, _ = self._model_artifacts(j)
        indexes = self._target_indexes(i)
        size = self._model_size(i) + self._model_size(j)
        started = time.perf_counter()
        target = left.copy_shallow()
        if id_sets is not None:
            # Seed the duplicate-id memos the adders' ``_check_unique``
            # would otherwise rebuild with an O(collection) scan on the
            # first add into each collection — per pair, the sweep's
            # largest remaining per-pair constant.  The seeded sets
            # are exactly what the scan would derive, so outcomes are
            # unchanged (the conformance matrix pins this).
            target.seed_id_sets(id_sets)
        # The target copy is part of the timed merge (it always was in
        # the per-pair engines this replaces), but it is *shallow*:
        # merges never mutate pre-existing target components, and the
        # composed model is discarded right below, so sharing the
        # component objects is safe and skips the sweep's largest
        # per-pair constant cost.  The carried state hands the copy
        # its precomputed artifacts — ids and values are identical
        # across a copy, and the registry is only read for unit
        # conversion until the unit phase rebuilds it.
        _, report, _ = self.composer.compose_step(
            target,
            right,
            copy_target=False,
            target_state=AccumState(
                used_ids=set(used_ids),
                registry=registry,
                initial=dict(initial),
            ),
            source_registry=source_registry,
            source_initial=source_initial,
            carry_state=False,
            ephemeral=True,
            # Bound to the *original* left model, whose component
            # objects the shallow copy above shares — the contract
            # prebound index sets require.
            target_indexes=indexes,
        )
        seconds = time.perf_counter() - started
        return PairOutcome(
            i=i,
            j=j,
            left=self.labels[i],
            right=self.labels[j],
            size=size,
            seconds=seconds,
            united=len(report.duplicates),
            added=report.total_added,
            renamed=len(report.renamed),
            conflicts=len(report.conflicts),
        )

    def run_pairs(self, pairs: Sequence[Tuple[int, int]]) -> List[PairOutcome]:
        return [self.run_pair(i, j) for i, j in pairs]


def _store_root(
    store: Optional[Union[ArtifactStore, str, Path]]
) -> Optional[str]:
    if store is None:
        return None
    if isinstance(store, ArtifactStore):
        return str(store.root)
    return str(store)


def _resolve_prescreen(
    prescreen: Union[None, bool, Prescreen],
    models: Sequence[Model],
    options: Optional[ComposeOptions],
    store: Optional[Union[ArtifactStore, str, Path]],
) -> Optional[Prescreen]:
    """Normalize the ``prescreen=`` argument to a ready instance.

    ``True`` builds one here (store-assisted when the sweep has a
    store); a caller-supplied :class:`~repro.core.signature.Prescreen`
    must cover exactly this corpus and have been built under the same
    key-affecting options as the sweep, or the synthesized outcomes
    could diverge from what the full matcher would produce.
    """
    if prescreen is None or prescreen is False:
        return None
    if prescreen is True:
        store_object = (
            store
            if isinstance(store, ArtifactStore)
            else ArtifactStore(store)
            if store is not None
            else None
        )
        return Prescreen.build(models, options, store=store_object)
    if not isinstance(prescreen, Prescreen):
        raise TypeError(
            f"prescreen must be None, a bool or a Prescreen, "
            f"got {type(prescreen).__name__}"
        )
    if len(prescreen) != len(models):
        raise ValueError(
            f"prescreen covers {len(prescreen)} models, corpus has "
            f"{len(models)}"
        )
    sweep_key = index_options_key(options or ComposeOptions())
    if index_options_key(prescreen.options) != sweep_key:
        raise ValueError(
            "prescreen was built under different key options than "
            "this sweep's"
        )
    return prescreen


def _screened_pairs(
    pairs: Sequence[Tuple[int, int]],
    screen: Optional[Prescreen],
) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """Split one batch into (pairs to run, pairs to synthesize)."""
    if screen is None:
        return list(pairs), []
    survivors = screen.survivors()
    to_run: List[Tuple[int, int]] = []
    to_synthesize: List[Tuple[int, int]] = []
    for i, j in pairs:
        (to_run if survivors[i, j] else to_synthesize).append((i, j))
    return to_run, to_synthesize


def _synthesized_outcome(
    screen: Prescreen,
    i: int,
    j: int,
    labels: Sequence[str],
    sizes: Sequence[int],
) -> PairOutcome:
    """The prescreen-synthesized row for a pruned pair — identical on
    every run-invariant field (:meth:`PairOutcome.key`) to what
    :meth:`_PairEngine.run_pair` would have produced, with zero wall
    time (nothing ran)."""
    united, added, renamed, conflicts = screen.synthesized_counts(i, j)
    return PairOutcome(
        i=i,
        j=j,
        left=labels[i],
        right=labels[j],
        size=sizes[i] + sizes[j],
        seconds=0.0,
        united=united,
        added=added,
        renamed=renamed,
        conflicts=conflicts,
    )


def _run_screened(
    pairs: Sequence[Tuple[int, int]],
    screen: Optional[Prescreen],
    labels: Sequence[str],
    sizes: Sequence[int],
    engine: _PairEngine,
) -> Tuple[List[PairOutcome], int]:
    """Run one batch of pairs through the prescreen gate.

    Surviving pairs go to the pair engine, pruned pairs are
    synthesized; the returned outcomes are in the order of ``pairs``
    regardless, so a screened sweep's CSV is row-for-row aligned with
    the full sweep's."""
    to_run, _ = _screened_pairs(pairs, screen)
    computed = iter(engine.run_pairs(to_run))
    if screen is None:
        return list(computed), 0
    survivors = screen.survivors()
    outcomes: List[PairOutcome] = []
    pruned = 0
    for i, j in pairs:
        if survivors[i, j]:
            outcomes.append(next(computed))
        else:
            outcomes.append(
                _synthesized_outcome(screen, i, j, labels, sizes)
            )
            pruned += 1
    return outcomes, pruned


def _supervised_match_all(
    models: List[Model],
    options: Optional[ComposeOptions],
    workers: int,
    include_self: bool,
    prebuilt_indexes: bool,
) -> MatchMatrix:
    """:func:`match_all` with ``workers > 1``: the supervised
    coordinator, in process, over a temporary out-dir.

    ``4 * workers`` shards (capped at the pair count) keep the workers
    balanced when pair costs differ; a killed worker's shard is
    retried.  Pairs that fail on every attempt are quarantined, and
    since a ``match_all`` matrix has no room for missing rows, a
    quarantine raises :class:`~repro.core.coordinator.CoordinatorError`
    naming them.
    """
    # Deferred: the coordinator module imports this one.
    from repro.core.coordinator import (
        CoordinatorConfig,
        CoordinatorError,
        SweepCoordinator,
    )

    count = len(models)
    pair_count = (count + 1 if include_self else count - 1) * count // 2
    shards = max(1, min(4 * workers, pair_count))
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="sbmlcompose-sweep-") as out_dir:
        report = SweepCoordinator(
            models,
            options,
            shards=shards,
            out_dir=out_dir,
            # The journal lives and dies with this call, so nothing can
            # resume onto it: a label will do where a CLI sweep binds
            # the corpus content (which costs a serialisation per
            # model).
            fingerprint=f"match_all:{count}:{shards}",
            config=CoordinatorConfig(workers=workers),
            include_self=include_self,
            prebuilt_indexes=prebuilt_indexes,
            progress=False,
        ).run()
    if report.quarantined:
        named = "; ".join(
            f"({entry['i']}, {entry['j']}) [{entry['left']}+"
            f"{entry['right']}]: "
            f"{str(entry['error']).strip().splitlines()[-1]}"
            for entry in report.quarantined
        )
        raise CoordinatorError(
            f"{len(report.quarantined)} pair(s) failed on every attempt "
            f"and were quarantined: {named}"
        )
    return MatchMatrix(
        outcomes=MatchMatrix.union(report.matrices).outcomes,
        seconds=time.perf_counter() - started,
        model_count=count,
        workers=workers,
    )


def match_all(
    models: Sequence[Model],
    options: Optional[ComposeOptions] = None,
    *,
    workers: int = 1,
    include_self: bool = True,
    store: Optional[Union[ArtifactStore, str, Path]] = None,
    prebuilt_indexes: bool = True,
    prescreen: Union[None, bool, Prescreen] = None,
) -> MatchMatrix:
    """Compose every unordered pair of ``models``, batched.

    Pairs are enumerated ``(i, j)`` with ``i <= j`` in input order —
    hand the corpus over size-sorted to reproduce the paper's Figure 8
    pairing order ("smallest with smallest, ... largest with
    largest").  ``include_self=False`` drops the ``i == j`` self-pairs.
    The inputs are never mutated and the composed models are not
    retained; each pair yields a :class:`PairOutcome`.

    ``workers=1`` (the default) runs the in-process engine.  With
    ``workers > 1`` the sweep runs under the supervised
    :class:`~repro.core.coordinator.SweepCoordinator`: ``workers``
    local processes over ``4 * workers`` shards of a temporary
    out-dir, each receiving the corpus as a digest manifest it
    rehydrates from the out-dir's artifact store.  A worker death is
    retried; a pair that fails on every attempt raises
    :class:`~repro.core.coordinator.CoordinatorError` naming it.  The
    rows are the in-process engine's, in pair order.  ``store`` and
    ``prescreen`` need ``workers=1`` (:class:`ValueError` otherwise);
    ``sbmlcompose sweep --supervise --out-dir DIR`` is the parallel
    sweep with a persistent store.

    ``store`` (an :class:`~repro.core.artifact_store.ArtifactStore` or
    a directory path) adds the on-disk artifact tier.

    ``prebuilt_indexes=False`` disables the per-model phase-index
    artifacts (every pair rebuilds its target-side Figure 5 indexes
    from scratch, the pre-artifact behaviour) — the reference the
    conformance matrix pins the default path against, and the ablation
    knob behind ``sbmlcompose sweep --fresh-indexes``.

    ``prescreen`` enables the vectorized structural prescreen
    (:class:`~repro.core.signature.Prescreen`): ``True`` builds one
    from the corpus (store-assisted when ``store`` is set), or pass a
    prebuilt instance covering exactly these models under the same
    key options.  Pairs the prescreen proves trivial skip the phase
    machinery and get synthesized outcomes; every returned row —
    synthesized or computed — is identical on its run-invariant
    fields (:meth:`PairOutcome.key`) to the unscreened sweep's, which
    the conformance matrix pins as its eighth path.
    :attr:`MatchMatrix.pruned` counts the synthesized pairs.

    Internally the sweep iterates the shards of a one-shard partition
    — the exact engine :func:`match_all_sharded` runs for one shard of
    many, which is what keeps sharded unions identical to this.
    """
    models = list(models)
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if workers > 1:
        if store is not None or prescreen not in (None, False):
            raise ValueError(
                "store= and prescreen= need workers=1: match_all with "
                "workers > 1 runs the supervised coordinator over a "
                "temporary out-dir; for a parallel sweep with a "
                "persistent store run `sbmlcompose sweep --supervise "
                "--out-dir DIR`"
            )
        return _supervised_match_all(
            models, options, workers, include_self, prebuilt_indexes
        )
    labels = stable_labels(models)
    sizes = [model.network_size() for model in models]
    shards = partition_pairs(sizes, 1, include_self=include_self)
    started = time.perf_counter()
    screen = _resolve_prescreen(prescreen, models, options, store)
    engine = _PairEngine(
        options, models, labels, _store_root(store), prebuilt_indexes
    )
    outcomes: List[PairOutcome] = []
    pruned = 0
    for shard in shards:
        shard_outcomes, shard_pruned = _run_screened(
            shard.pairs, screen, labels, sizes, engine
        )
        outcomes.extend(shard_outcomes)
        pruned += shard_pruned
    return MatchMatrix(
        outcomes=outcomes,
        seconds=time.perf_counter() - started,
        model_count=len(models),
        workers=1,
        pruned=pruned,
    )


def match_all_sharded(
    models: Sequence[Model],
    options: Optional[ComposeOptions] = None,
    *,
    shards: int,
    shard_id: int,
    include_self: bool = True,
    store: Optional[Union[ArtifactStore, str, Path]] = None,
    prebuilt_indexes: bool = True,
    prescreen: Union[None, bool, Prescreen] = None,
) -> MatchMatrix:
    """Compute one shard of the all-pairs sweep, in process.

    The pair matrix is partitioned deterministically
    (:func:`~repro.core.shards.partition_pairs`, block-cyclic over the
    upper triangle, cost-balanced from ``network_size()`` hints), and
    only shard ``shard_id`` of ``shards`` is composed.  Every worker
    derives the same partition from the corpus alone, so K machines
    can each take one ``shard_id`` with no coordination; the union of
    their matrices (:meth:`MatchMatrix.union`) is identical, pair for
    pair, to one unsharded :func:`match_all` over the same corpus.

    ``store`` points the engine at an on-disk artifact store shared by
    all shards: the first shard to touch a model spills its derived
    artifacts (used-id set, unit registry, evaluated initial values,
    pattern table and phase-index rows) and every later shard — or a
    resumed sweep — rehydrates them instead of recomputing.
    ``prebuilt_indexes`` and ``prescreen`` are honoured exactly as in
    :func:`match_all` — the prescreen's synthesis is deterministic and
    per-pair, so every shard prunes the same pairs the unsharded
    screened sweep would and shard unions stay byte-identical.
    """
    models = list(models)
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if not 0 <= shard_id < shards:
        raise ValueError(
            f"shard_id must be in [0, {shards}), got {shard_id}"
        )
    labels = stable_labels(models)
    sizes = [model.network_size() for model in models]
    shard: Shard = partition_pairs(sizes, shards, include_self=include_self)[
        shard_id
    ]
    started = time.perf_counter()
    screen = _resolve_prescreen(prescreen, models, options, store)
    engine = _PairEngine(
        options, models, labels, _store_root(store), prebuilt_indexes
    )
    outcomes, pruned = _run_screened(
        shard.pairs, screen, labels, sizes, engine
    )
    return MatchMatrix(
        outcomes=outcomes,
        seconds=time.perf_counter() - started,
        model_count=len(models),
        workers=1,
        shard_id=shard_id,
        shard_count=shards,
        pruned=pruned,
    )


def match_query(
    target: Model,
    sources: Sequence[Model],
    options: Optional[ComposeOptions] = None,
    *,
    store: Optional[Union[ArtifactStore, str, Path]] = None,
    prebuilt_indexes: bool = True,
    prescreen: Union[None, bool, Prescreen] = None,
) -> MatchMatrix:
    """Compose one query model (as target) against each source model.

    The corpus-search primitive behind ``sbmlcompose corpus query``:
    pairs are ``(0, j)`` for ``j = 1..len(sources)`` over the
    concatenated ``[target, *sources]`` list, so outcome rows carry
    the query at ``i=0`` and each candidate's position (in input
    order) at ``j``.  ``prescreen`` covers the concatenated list (the
    query model included) and synthesizes trivial candidates exactly
    as in :func:`match_all`; the store tier and prebuilt indexes
    behave identically too, and each row's run-invariant fields match
    what a full linear scan over the same candidate list would
    produce.  Runs in process.
    """
    models = [target] + list(sources)
    labels = stable_labels(models)
    sizes = [model.network_size() for model in models]
    pairs = [(0, j) for j in range(1, len(models))]
    started = time.perf_counter()
    screen = _resolve_prescreen(prescreen, models, options, store)
    engine = _PairEngine(
        options, models, labels, _store_root(store), prebuilt_indexes
    )
    outcomes, pruned = _run_screened(pairs, screen, labels, sizes, engine)
    return MatchMatrix(
        outcomes=outcomes,
        seconds=time.perf_counter() - started,
        model_count=len(models),
        workers=1,
        pruned=pruned,
    )
