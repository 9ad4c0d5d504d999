"""Core composition engine — the paper's SBMLCompose, n-way.

Public API:

* :class:`~repro.core.session.ComposeSession` — reusable n-way
  composition sessions (the primary entry point).
* :func:`~repro.core.session.compose_all` — one-shot n-way merge.
* :class:`~repro.core.session.ComposeResult` — composed model +
  merged report + provenance + timings.
* :mod:`~repro.core.plan` — pluggable merge plans (fold/tree/greedy).
* :class:`~repro.core.options.ComposeOptions` — behaviour knobs, with
  fluent constructors (``heavy()``, ``light()``, ``structural()``,
  ``with_index()``, ``strict()``).
* :func:`~repro.core.compose.compose` — the legacy pairwise entry
  point (deprecated shim over the session API).
* :class:`~repro.core.compose.Composer` — the pairwise engine the
  session drives.
* :class:`~repro.core.report.MergeReport` — warnings/conflicts log.
* :func:`~repro.core.match_all.match_all` — batched all-pairs
  matching over a corpus (the Figure 8 workload as an engine).
* :func:`~repro.core.match_all.match_all_sharded` — one deterministic
  shard of the all-pairs sweep, for corpora split over machines or
  checkpointed runs; :mod:`~repro.core.shards` partitions the pair
  matrix and journals sweep progress.
* :class:`~repro.core.artifact_store.ArtifactStore` — on-disk,
  content-addressed per-model artifacts shared across shard runs,
  resumed sweeps and spilled sessions.
* :class:`~repro.core.signature.ModelSignature` /
  :class:`~repro.core.signature.Prescreen` — per-model structural
  signatures and the vectorized all-pairs prescreen
  (``match_all(..., prescreen=True)``).
* :func:`~repro.core.match_all.match_query` — one query model against
  a candidate list (the corpus-search primitive).
* :class:`~repro.core.corpus_index.CorpusIndex` — persistent inverted
  index over signature keys for sublinear corpus queries.
* :class:`~repro.core.coordinator.SweepCoordinator` — fault-tolerant
  supervision for sharded sweeps: shard leases, worker heartbeats,
  retry with backoff, work stealing and poison-pair quarantine
  (``sbmlcompose sweep --supervise``).
* :mod:`~repro.core.chaos` — deterministic fault injection
  (:class:`~repro.core.chaos.ChaosSpec`) threaded through the sweep
  stack, driving the robustness tests and the CI chaos smoke.
"""

from repro.core.artifact_store import (
    ArtifactStore,
    ModelArtifacts,
    StoreVerifyReport,
    compute_artifacts,
    corpus_fingerprint,
    model_digest,
)
from repro.core.chaos import ChaosError, ChaosSpec, Fault
from repro.core.coordinator import (
    EXIT_QUARANTINED,
    CoordinatorConfig,
    CoordinatorError,
    Quarantine,
    SweepCoordinator,
    SweepReport,
)
from repro.core.compose import (
    AccumState,
    BoundIndexSet,
    Composer,
    ModelIndexSet,
    compose,
    index_options_key,
)
from repro.core.corpus_index import CorpusIndex, IndexedModel
from repro.core.match_all import (
    MatchMatrix,
    PairOutcome,
    match_all,
    match_all_sharded,
    match_query,
    read_outcomes_csv,
    write_outcomes_csv,
)
from repro.core.signature import ModelSignature, Prescreen, key_hash
from repro.core.index import (
    ComponentIndex,
    HashIndex,
    LinearIndex,
    OverlayIndex,
    SortedKeyIndex,
    make_index,
)
from repro.core.mapping import IdMapping
from repro.core.options import (
    CONFLICTS_ERROR,
    CONFLICTS_WARN,
    INDEX_HASH,
    INDEX_LINEAR,
    INDEX_SORTED,
    SEMANTICS_HEAVY,
    SEMANTICS_LIGHT,
    SEMANTICS_NONE,
    ComposeOptions,
)
from repro.core.plan import (
    PLAN_FOLD,
    PLAN_GREEDY,
    PLAN_TREE,
    BalancedTreePlan,
    GreedySimilarityPlan,
    LeftFoldPlan,
    MergePlan,
    make_plan,
    plan_names,
)
from repro.core.report import Conflict, Duplicate, MergeReport, MergeWarning
from repro.core.locking import FileLock
from repro.core.shards import (
    Shard,
    SweepCheckpoint,
    SweepStateError,
    enumerate_pairs,
    partition_pairs,
    shard_result_filename,
)
from repro.core.session import (
    ComposeResult,
    ComposeSession,
    ComposeStep,
    ProvenanceEntry,
    compose_all,
)

__all__ = [
    "ComposeSession",
    "compose_all",
    "ComposeResult",
    "ComposeStep",
    "ProvenanceEntry",
    "compose",
    "Composer",
    "AccumState",
    "match_all",
    "match_all_sharded",
    "match_query",
    "MatchMatrix",
    "PairOutcome",
    "write_outcomes_csv",
    "read_outcomes_csv",
    "ModelSignature",
    "Prescreen",
    "key_hash",
    "CorpusIndex",
    "IndexedModel",
    "ArtifactStore",
    "ModelArtifacts",
    "StoreVerifyReport",
    "model_digest",
    "corpus_fingerprint",
    "compute_artifacts",
    "Shard",
    "SweepCheckpoint",
    "SweepStateError",
    "enumerate_pairs",
    "partition_pairs",
    "shard_result_filename",
    "FileLock",
    "ChaosError",
    "ChaosSpec",
    "Fault",
    "SweepCoordinator",
    "CoordinatorConfig",
    "CoordinatorError",
    "SweepReport",
    "Quarantine",
    "EXIT_QUARANTINED",
    "ComposeOptions",
    "MergeReport",
    "MergeWarning",
    "Conflict",
    "Duplicate",
    "IdMapping",
    "MergePlan",
    "LeftFoldPlan",
    "BalancedTreePlan",
    "GreedySimilarityPlan",
    "make_plan",
    "plan_names",
    "PLAN_FOLD",
    "PLAN_TREE",
    "PLAN_GREEDY",
    "ComponentIndex",
    "HashIndex",
    "LinearIndex",
    "OverlayIndex",
    "SortedKeyIndex",
    "make_index",
    "ModelIndexSet",
    "BoundIndexSet",
    "index_options_key",
    "SEMANTICS_HEAVY",
    "SEMANTICS_LIGHT",
    "SEMANTICS_NONE",
    "INDEX_HASH",
    "INDEX_LINEAR",
    "INDEX_SORTED",
    "CONFLICTS_WARN",
    "CONFLICTS_ERROR",
]
