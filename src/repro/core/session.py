"""N-way composition sessions — the package's primary public API.

The paper defines SBMLCompose pairwise; every real workload composes
*many* models.  A :class:`ComposeSession` owns the state that is
expensive to rebuild between merges — the canonical-pattern cache, the
synonym table (inside its :class:`~repro.core.options.ComposeOptions`)
and per-input unit registries / evaluated initial values — and
executes a pluggable :class:`~repro.core.plan.MergePlan` over any
number of models:

>>> from repro import ComposeSession
>>> session = ComposeSession()
>>> result = session.compose_all([m1, m2, m3], plan="greedy")
>>> result.model, result.report, result.provenance  # doctest: +SKIP

:func:`compose_all` is the one-shot convenience wrapper.  The legacy
``compose(a, b)`` remains as a deprecated shim over this module.

Besides the composed model, a :class:`ComposeResult` carries:

* a merged :class:`~repro.core.report.MergeReport` across all steps
  (per-step reports stay available on :attr:`ComposeResult.steps`),
* per-component **provenance** — which input model(s) each composed
  component came from and the chain of ids it passed through as
  :class:`~repro.core.mapping.IdMapping` renames accumulated,
* per-phase timings (summed over steps) and per-step wall times.

Performance notes: the session folds *in place* — the accumulator
model is mutated rather than re-copied on every step (inputs are never
mutated), turning the O(n²) copying of a naive ``compose(acc, m)``
loop into O(n); the accumulator's derived artifacts (used ids, unit
registry, initial values) are carried incrementally between steps
instead of being re-derived from the growing model; intermediate
results merging into intermediate results *move* their components
instead of copying them.  Execution is serial and in process.  See
``benchmarks/bench_compose_all.py`` and ``docs/perf.md`` for the
measured numbers.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.artifact_store import (
    ArtifactStore,
    compute_artifacts,
    model_digest,
)
from repro.core.compose import (
    AccumState,
    Composer,
    ModelIndexSet,
    _collect_initial_values,
)
from repro.core.options import ComposeOptions
from repro.core.pattern_cache import PatternCache
from repro.core.plan import MergePlan, PlanNode, make_plan
from repro.core.report import MergeReport
from repro.sbml.model import Model
from repro.units.registry import UnitRegistry

__all__ = [
    "ComposeSession",
    "ComposeResult",
    "ComposeStep",
    "ProvenanceEntry",
    "compose_all",
]


@dataclass
class ProvenanceEntry:
    """Where one composed component came from.

    ``origins`` lists every ``(input label, original id)`` that was
    united into this component; ``history`` is the chain of ids the
    component carried, starting at its original id and ending at its
    id in the composed model (length > 1 means it was renamed or
    united along the way).
    """

    id: str
    origins: List[Tuple[str, str]] = field(default_factory=list)
    history: List[str] = field(default_factory=list)

    def describe(self) -> str:
        sources = ", ".join(
            f"{label}:{original}" for label, original in self.origins
        )
        via = ""
        if len(self.history) > 1:
            via = f" via {' -> '.join(self.history)}"
        return f"{self.id} <- {sources}{via}"


@dataclass
class ComposeStep:
    """One pairwise merge executed by a session."""

    index: int
    left: str
    right: str
    report: MergeReport
    seconds: float

    def _describe(self) -> str:
        return (
            f"{self.index}: {self.left} + {self.right}: "
            f"{len(self.report.duplicates)} united, "
            f"{self.report.total_added} added, "
            f"{len(self.report.renamed)} renamed "
            f"({self.seconds * 1000.0:.2f} ms)"
        )

    def summary(self) -> str:
        return f"step {self._describe()}"

    def log_line(self) -> str:
        """The paper-style log-file record for this step."""
        return f"STEP {self._describe()}"


@dataclass
class ComposeResult:
    """The outcome of an n-way composition."""

    model: Model
    report: MergeReport
    steps: List[ComposeStep]
    provenance: Dict[str, ProvenanceEntry]
    plan: str
    seconds: float

    @property
    def timings(self) -> Dict[str, float]:
        """Per-phase seconds, summed across every merge step."""
        return self.report.timings

    def pair(self) -> Tuple[Model, MergeReport]:
        """``(model, report)`` — the tuple the deprecated
        ``compose(a, b)`` shim returned, so legacy call sites migrate
        in place: ``compose_all([a, b]).pair()``."""
        return self.model, self.report

    def provenance_log(self) -> str:
        """One ``PROVENANCE`` line per composed component."""
        return "\n".join(
            f"PROVENANCE {self.provenance[key].describe()}"
            for key in sorted(self.provenance)
        )

    def summary(self) -> str:
        return (
            f"{len(self.steps)} step(s) [{self.plan}]: "
            + self.report.summary()
        )


@dataclass
class _NodeValue:
    """The executed result of one plan-tree node.

    ``owned`` marks an intermediate the session may mutate in place
    and whose components later merges may *move* instead of copy
    (input models are never owned).  ``state`` is the carried
    :class:`~repro.core.compose.AccumState` for ``model``, or ``None``
    when it must be rebuilt lazily.
    """

    model: Model
    owned: bool
    provenance: Dict[str, ProvenanceEntry]
    label: str
    state: Optional[AccumState]


def stable_labels(models: Sequence[Model]) -> List[str]:
    """Stable, unique display labels for a list of input models —
    the model's id, with ``#N`` suffixes de-duplicating repeats.
    Shared by session provenance/steps and the all-pairs engine so a
    model is named identically everywhere."""
    labels: List[str] = []
    seen: Dict[str, int] = {}
    for position, model in enumerate(models):
        base = model.id or f"model{position}"
        count = seen.get(base, 0)
        seen[base] = count + 1
        labels.append(base if count == 0 else f"{base}#{count + 1}")
    return labels


class ComposeSession:
    """Reusable n-way composition engine.

    One session holds one :class:`~repro.core.options.ComposeOptions`
    (and thus one synonym table), one pattern cache and one memo of
    per-input unit registries and evaluated initial values.  Composing
    many models through a session — or calling :meth:`compose_all`
    once over the whole set — reuses all of it, where a loop of bare
    ``compose(a, b)`` calls cold-started every piece on every pair.

    The memos are keyed by input-model identity, so the session
    assumes **inputs are not mutated between composes**.  If you do
    mutate a model and want to compose it again through the same
    session, call :meth:`invalidate` first; call it with no argument
    to also release the memory a long-lived session pins (cached
    models are kept alive so the identity keys stay valid).

    Parameters
    ----------
    options:
        Composition options; defaults to the paper's heavy semantics.
    cache_patterns:
        Keep a session-wide canonical-pattern cache.  Defaults to on
        (sessions exist to reuse work); pass ``False`` to mirror the
        one-shot default of ``ComposeOptions.memoize_patterns``.
    artifact_store:
        An :class:`~repro.core.artifact_store.ArtifactStore` (or a
        directory path) giving the per-input artifact memo an on-disk
        tier: artifacts are rehydrated by the input model's content
        digest on a memo miss and spilled on first computation, so
        they survive :meth:`spill`, new sessions and other processes
        sweeping the same corpus.
    """

    def __init__(
        self,
        options: Optional[ComposeOptions] = None,
        *,
        cache_patterns: bool = True,
        artifact_store: Optional[Union[ArtifactStore, str]] = None,
    ):
        self.options = options or ComposeOptions()
        cache = None
        if cache_patterns or self.options.memoize_patterns:
            cache = PatternCache()
        self._composer = Composer(self.options, pattern_cache=cache)
        if artifact_store is not None and not isinstance(
            artifact_store, ArtifactStore
        ):
            artifact_store = ArtifactStore(artifact_store)
        self._store: Optional[ArtifactStore] = artifact_store
        self._registries: Dict[int, UnitRegistry] = {}
        self._initials: Dict[int, Dict[str, float]] = {}
        # Per-input phase-index rows rehydrated from the store (None
        # when the entry predates store format 3 or was keyed under
        # other options); only populated when a store is attached —
        # in-memory sessions build each leaf target's indexes exactly
        # once anyway, so rows would buy nothing there.
        self._index_rows: Dict[int, Optional[ModelIndexSet]] = {}
        # Content digests of pinned inputs, computed at most once per
        # model (only when a store is attached).
        self._digests: Dict[int, str] = {}
        # Keep cached models alive so the id()-keyed memos stay valid.
        self._pinned: Dict[int, Model] = {}
        # Guards the per-input memos when callers share one session
        # across threads.
        self._artifacts_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def compose(self, first: Model, second: Model) -> ComposeResult:
        """Pairwise composition through the session caches."""
        return self.compose_all([first, second])

    def compose_all(
        self,
        models: Sequence[Model],
        plan: Union[str, MergePlan] = "fold",
    ) -> ComposeResult:
        """Compose every model in ``models`` following ``plan``.

        The inputs are never mutated.  Raises :class:`ValueError` on
        an empty model list; a single model composes to a copy of
        itself with an empty report.
        """
        models = list(models)
        if not models:
            raise ValueError("compose_all needs at least one model")
        merge_plan = make_plan(plan)
        labels = self._labels(models)
        started = time.perf_counter()
        steps: List[ComposeStep] = []
        if len(models) == 1:
            model = models[0].copy()
            provenance = self._leaf_provenance(models[0], labels[0])
            report = MergeReport()
        else:
            tree = merge_plan.tree(models, self.options)
            value = self._execute(tree, models, labels, steps)
            model = value.model
            if not value.owned:  # a degenerate plan tree of a single leaf
                model = model.copy()
            provenance = value.provenance
            report = self._merged_report(steps, provenance)
        return ComposeResult(
            model=model,
            report=report,
            steps=steps,
            provenance=provenance,
            plan=merge_plan.name,
            seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    # Cached per-input artifacts
    # ------------------------------------------------------------------

    def invalidate(self, model: Optional[Model] = None) -> None:
        """Drop cached per-input artifacts.

        With ``model``, forgets that model's memoised unit registry
        and initial values — required before re-composing a model
        mutated since the session last saw it.  With no argument,
        clears every memo (including the pattern cache), releasing
        everything a long-lived session has pinned.
        """
        if model is not None:
            key = id(model)
            self._registries.pop(key, None)
            self._initials.pop(key, None)
            self._index_rows.pop(key, None)
            self._digests.pop(key, None)
            self._pinned.pop(key, None)
            return
        self._registries.clear()
        self._initials.clear()
        self._index_rows.clear()
        self._digests.clear()
        self._pinned.clear()
        cache = self._composer._cache
        self._composer = Composer(
            self.options,
            pattern_cache=PatternCache() if cache is not None else None,
        )

    def spill(self) -> int:
        """Spill the per-input artifact memo to the attached store and
        release the in-memory tier (including the pinned models).

        Long-lived sessions over large corpora pin every input they
        have seen; ``spill()`` bounds that memory while keeping the
        work: the next compose of a spilled model rehydrates its
        artifacts from disk by content digest instead of re-deriving
        them.  Returns the number of inputs spilled.  Raises
        :class:`ValueError` when the session has no artifact store.
        """
        if self._store is None:
            raise ValueError(
                "spill() needs a session artifact_store; construct the "
                "session with ComposeSession(artifact_store=...)"
            )
        with self._artifacts_lock:
            spilled = 0
            for key, model in self._pinned.items():
                digest = self._digests.get(key)
                if digest is None:
                    digest = model_digest(model)
                if digest not in self._store:
                    self._store.put(digest, compute_artifacts(model))
                spilled += 1
            self._registries.clear()
            self._initials.clear()
            self._index_rows.clear()
            self._digests.clear()
            self._pinned.clear()
        return spilled

    def _source_artifacts(
        self, model: Model
    ) -> Tuple[UnitRegistry, Dict[str, float]]:
        key = id(model)
        # Lock-free fast path: safe because the writer below populates
        # _initials (and _pinned) *before* _registries — once the
        # registry is visible, the initials are guaranteed to be too.
        registry = self._registries.get(key)
        if registry is not None:
            return registry, self._initials[key]
        with self._artifacts_lock:
            if key not in self._registries:
                if self._store is not None:
                    # On-disk tier: rehydrate by content digest, and
                    # spill on a true miss so other shards/sessions
                    # (and this session after a spill) reuse the work.
                    digest = model_digest(model)
                    artifacts = self._store.get_or_compute(model, digest)
                    cache = self._composer._cache
                    if cache is not None and artifacts.patterns:
                        # The rehydrated pattern table seeds this
                        # session's cache: patterns computed by any
                        # other sweep/session over the same model are
                        # never rebuilt here.
                        cache.seed(artifacts.patterns)
                    self._digests[key] = digest
                    self._initials[key] = artifacts.initial
                    index_set = artifacts.indexes
                    if index_set is not None and not index_set.matches(
                        self.options
                    ):
                        index_set = None
                    self._index_rows[key] = index_set
                    self._pinned[key] = model
                    self._registries[key] = artifacts.registry
                else:
                    self._initials[key] = _collect_initial_values(model)
                    self._pinned[key] = model
                    self._registries[key] = model.unit_registry()
            return self._registries[key], self._initials[key]

    def _leaf_index_rows(self, model: Model) -> Optional[ModelIndexSet]:
        """Prebuilt phase-index rows for a *leaf* merge target.

        Store-backed sessions rehydrate each input's index rows with
        the rest of its artifacts; a step whose target is an unowned
        leaf binds them to its private deep copy inside
        ``compose_step``, skipping the target-side index build.  Owned
        intermediates must never get rows: their ``source_owned``
        moves mutate components in place, so no shared base could stay
        valid — ``_merge_pair`` only calls this for unowned leaves.
        """
        if self._store is None:
            return None
        key = id(model)
        if key not in self._registries:
            # Rehydrates (and memoises) the full artifact entry.
            self._source_artifacts(model)
        return self._index_rows.get(key)

    # ------------------------------------------------------------------
    # Plan execution
    # ------------------------------------------------------------------

    @staticmethod
    def _labels(models: Sequence[Model]) -> List[str]:
        """Stable, unique display labels for the input models."""
        return stable_labels(models)

    @staticmethod
    def _leaf_provenance(model: Model, label: str) -> Dict[str, ProvenanceEntry]:
        return {
            component_id: ProvenanceEntry(
                id=component_id,
                origins=[(label, component_id)],
                history=[component_id],
            )
            for component_id in model.global_ids()
        }

    def _leaf_value(
        self, models: Sequence[Model], labels: Sequence[str], position: int
    ) -> _NodeValue:
        model = models[position]
        return _NodeValue(
            model=model,
            owned=False,
            provenance=self._leaf_provenance(model, labels[position]),
            label=labels[position],
            state=None,
        )

    def _execute(
        self,
        root: PlanNode,
        models: Sequence[Model],
        labels: Sequence[str],
        steps: List[ComposeStep],
    ) -> _NodeValue:
        """Execute a plan tree bottom-up, serially.

        Iterative post-order traversal with an explicit stack: the
        fold and greedy plans produce left-spine trees whose depth is
        the model count, so recursion would blow the interpreter limit
        on ~1000-model compositions.
        """
        pending: List[Tuple[PlanNode, bool]] = [(root, False)]
        values: List[_NodeValue] = []
        while pending:
            node, children_done = pending.pop()
            if isinstance(node, int):
                values.append(self._leaf_value(models, labels, node))
            elif not children_done:
                pending.append((node, True))
                pending.append((node[1], False))
                pending.append((node[0], False))
            else:
                right = values.pop()
                left = values.pop()
                value, step = self._merge_pair(left, right, len(steps) + 1)
                steps.append(step)
                values.append(value)
        return values[0]

    def _merge_pair(
        self,
        left_value: _NodeValue,
        right_value: _NodeValue,
        index: int,
    ) -> Tuple[_NodeValue, ComposeStep]:
        """Execute one merge node; ``index`` is its 1-based post-order
        rank in the plan, the number of its step record."""
        left = left_value.model
        right = right_value.model
        registry = initial = None
        if not right_value.owned:  # leaf input: reusable cached artifacts
            registry, initial = self._source_artifacts(right)
        # Prebuilt index rows only ever attach to unowned *leaf*
        # targets (bound to the fresh copy compose_step makes).  An
        # owned accumulator has been mutated by earlier steps —
        # including source_owned component moves — so no shared,
        # prebuilt base could describe it.
        target_rows = (
            self._leaf_index_rows(left) if not left_value.owned else None
        )
        started = time.perf_counter()
        composed, report, state = self._composer.compose_step(
            left,
            right,
            copy_target=not left_value.owned,
            source_owned=right_value.owned,
            source_registry=registry,
            source_initial=initial,
            target_state=left_value.state if left_value.owned else None,
            source_state=right_value.state if right_value.owned else None,
            target_indexes=target_rows,
        )
        seconds = time.perf_counter() - started
        step = ComposeStep(
            index=index,
            left=left_value.label,
            right=right_value.label,
            report=report,
            seconds=seconds,
        )
        if left.is_empty():
            # Figure 5 line 1 short-circuit: result is the right side.
            provenance = right_value.provenance
        elif right.is_empty():
            provenance = left_value.provenance
        else:
            provenance = self._merge_provenance(
                left_value.provenance, right_value.provenance, report
            )
        value = _NodeValue(
            model=composed,
            owned=True,
            provenance=provenance,
            label=f"({left_value.label}+{right_value.label})",
            state=state,
        )
        return value, step

    @staticmethod
    def _merge_provenance(
        target_prov: Dict[str, ProvenanceEntry],
        source_prov: Dict[str, ProvenanceEntry],
        report: MergeReport,
    ) -> Dict[str, ProvenanceEntry]:
        """Carry source-side provenance through one merge step.

        Target ids are never renamed by a step, so the target side
        passes through; each source id either united into an existing
        entry (its origins accumulate) or is added under its (possibly
        renamed) id.  Within one step's report every mapping value is
        already final — unites map to target ids (never renamed) and
        renames are recorded fully resolved — so resolution is exactly
        one hop.  Chain-walking here would be wrong: with mappings
        like ``{'S2': 'glc', 'glc': 'glc_m2'}`` (a species united into
        target id ``glc`` plus an unrelated source parameter ``glc``
        renamed to ``glc_m2``), a walk would misattribute the united
        species to the renamed parameter.
        """
        merged = dict(target_prov)
        for source_id, entry in source_prov.items():
            final = report.mappings.get(source_id, source_id)
            existing = merged.get(final)
            if existing is not None:
                for origin in entry.origins:
                    if origin not in existing.origins:
                        existing.origins.append(origin)
            else:
                history = list(entry.history)
                if not history or history[-1] != final:
                    history.append(final)
                merged[final] = ProvenanceEntry(
                    id=final, origins=list(entry.origins), history=history
                )
        return merged

    @staticmethod
    def _merged_report(
        steps: List[ComposeStep],
        provenance: Dict[str, ProvenanceEntry],
    ) -> MergeReport:
        """Fold per-step reports into one session-level report.

        For a single step this *is* that step's report, which keeps
        the legacy ``compose(a, b)`` shim bit-identical with the old
        engine.  For multi-step runs, the id mappings and renames are
        reconstructed from provenance (original id → final id), since
        a flat dict cannot express per-model chains faithfully; the
        per-step reports remain the authoritative record.
        """
        if len(steps) == 1:
            return steps[0].report
        total = MergeReport()
        for step in steps:
            total.warnings.extend(step.report.warnings)
            total.conflicts.extend(step.report.conflicts)
            total.duplicates.extend(step.report.duplicates)
            for phase, seconds in step.report.timings.items():
                total.timings[phase] = total.timings.get(phase, 0.0) + seconds
            for component_type, count in step.report.added.items():
                total.added[component_type] = (
                    total.added.get(component_type, 0) + count
                )
        renamed_olds = set()
        for step in steps:
            renamed_olds.update(step.report.renamed)
        for entry in provenance.values():
            for _, original in entry.origins:
                if original != entry.id:
                    total.mappings[original] = entry.id
                    if original in renamed_olds:
                        total.renamed[original] = entry.id
            for prior in entry.history[:-1]:
                if prior != entry.id:
                    total.mappings.setdefault(prior, entry.id)
        return total


def compose_all(
    models: Sequence[Model],
    plan: Union[str, MergePlan] = "fold",
    options: Optional[ComposeOptions] = None,
) -> ComposeResult:
    """One-shot n-way composition (a fresh session per call).

    ``compose_all([a, b])`` replaces the deprecated ``compose(a, b)``;
    with three or more models, ``plan`` selects the merge order
    (``"fold"``, ``"tree"`` or ``"greedy"``).
    """
    return ComposeSession(options).compose_all(models, plan=plan)
