"""repro — reproduction of *Biochemical Network Matching and
Composition* (Goodfellow, Wilson & Hunt, EDBT 2010).

The package implements SBMLCompose — unsupervised composition of SBML
biochemical network models — together with every substrate the paper
relies on: a MathML engine with commutative pattern matching, an SBML
object model and XML layer, a unit system with mole/molecule
conversions, local synonym tables, a semanticSBML-style baseline, ODE
and Gillespie simulators, trace/model-checking evaluation tools, a
synthetic BioModels-like corpus and a graph view of reaction networks.

Composition is **n-way**: :func:`~repro.core.session.compose_all`
merges any number of models in one call, and
:class:`~repro.core.session.ComposeSession` keeps the pattern cache,
synonym table and per-input artifacts warm across repeated merges.
The merge *order* is pluggable (``plan="fold" | "tree" | "greedy"``;
see :mod:`repro.core.plan`); composition runs serially in process.
Corpus sweeps go through :func:`~repro.core.match_all.match_all`,
which batches the paper's all-pairs Figure 8 workload behind shared
per-model artifacts; ``workers=N`` runs it on N local processes under
the supervised :class:`~repro.core.coordinator.SweepCoordinator`,
with rows identical to the in-process sweep.  ``docs/perf.md`` covers
choosing a plan and ``workers``.

Quickstart
----------

>>> from repro import ModelBuilder, compose_all
>>> a = (
...     ModelBuilder("m1").compartment("cell")
...     .species("A", 10.0).species("B", 0.0)
...     .parameter("k1", 0.5).mass_action("r1", ["A"], ["B"], "k1")
...     .build()
... )
>>> b = (
...     ModelBuilder("m2").compartment("cell")
...     .species("B", 0.0).species("C", 0.0)
...     .parameter("k2", 0.3).mass_action("r2", ["B"], ["C"], "k2")
...     .build()
... )
>>> result = compose_all([a, b])
>>> sorted(s.id for s in result.model.species)
['A', 'B', 'C']
>>> result.provenance["C"].origins
[('m2', 'C')]

For repeated merges (sweeps, part libraries), hold a session so the
caches persist::

    from repro import ComposeSession, ComposeOptions

    session = ComposeSession(ComposeOptions.heavy())
    result = session.compose_all(models, plan="greedy")

The legacy pairwise ``compose(a, b)`` still works but is deprecated;
``docs/api.md`` has the migration guide.
"""

from repro.core import (
    ArtifactStore,
    Composer,
    ComposeOptions,
    ComposeResult,
    ComposeSession,
    ComposeStep,
    MatchMatrix,
    MergePlan,
    MergeReport,
    PairOutcome,
    ProvenanceEntry,
    SweepCheckpoint,
    compose,
    compose_all,
    make_plan,
    match_all,
    match_all_sharded,
    model_digest,
    partition_pairs,
    plan_names,
)
from repro.sbml import (
    Model,
    ModelBuilder,
    read_sbml,
    read_sbml_file,
    validate_model,
    write_sbml,
    write_sbml_file,
)

__version__ = "1.1.0"

__all__ = [
    "ComposeSession",
    "compose_all",
    "match_all",
    "match_all_sharded",
    "MatchMatrix",
    "PairOutcome",
    "ArtifactStore",
    "SweepCheckpoint",
    "model_digest",
    "partition_pairs",
    "ComposeResult",
    "ComposeStep",
    "ProvenanceEntry",
    "MergePlan",
    "make_plan",
    "plan_names",
    "compose",
    "Composer",
    "ComposeOptions",
    "MergeReport",
    "Model",
    "ModelBuilder",
    "read_sbml",
    "read_sbml_file",
    "write_sbml",
    "write_sbml_file",
    "validate_model",
    "__version__",
]
