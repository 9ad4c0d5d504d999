"""Composition options.

The defaults reproduce the paper's SBMLCompose behaviour ("heavy"
semantics: synonym tables + unit conversion + commutative math
patterns, hash-map indexes, warn-and-continue conflicts).  The other
settings exist for the future-work comparisons the paper proposes in
§5: light/no semantics, alternative index structures, and strict
conflict handling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.synonyms.builtin import builtin_synonyms
from repro.synonyms.table import SynonymTable

__all__ = [
    "ComposeOptions",
    "SEMANTICS_HEAVY",
    "SEMANTICS_LIGHT",
    "SEMANTICS_NONE",
    "INDEX_HASH",
    "INDEX_LINEAR",
    "INDEX_SORTED",
    "CONFLICTS_WARN",
    "CONFLICTS_ERROR",
]

SEMANTICS_HEAVY = "heavy"
SEMANTICS_LIGHT = "light"
SEMANTICS_NONE = "none"

INDEX_HASH = "hash"
INDEX_LINEAR = "linear"
INDEX_SORTED = "sorted"

CONFLICTS_WARN = "warn"
CONFLICTS_ERROR = "error"


@dataclass
class ComposeOptions:
    """Knobs controlling one composition run.

    Parameters
    ----------
    semantics:
        ``heavy`` (paper default) — synonyms, unit conversion and math
        patterns all participate in equality.  ``light`` — ids and
        exact names only; math compared structurally.  ``none`` —
        no matching at all: pure structural union with renames.
    index:
        Duplicate-lookup structure: ``hash`` (paper default, O(1)
        lookup), ``linear`` (O(n) scan; the complexity ablation) or
        ``sorted`` (bisect on sorted keys, O(log n)).
    conflicts:
        ``warn`` (paper default: first model wins, log it) or
        ``error`` (raise :class:`~repro.errors.ConflictError`).
    synonyms:
        The synonym table; defaults to the built-in biochemical table.
        Ignored unless semantics is ``heavy``.
    convert_units:
        Attempt unit conversion before declaring value conflicts
        (paper §3).  Ignored unless semantics is ``heavy``.
    use_math_patterns:
        Compare math via commutative canonical patterns (paper Fig 7);
        when off, math equality is plain structural equality.
    evaluate_initial_assignments:
        Evaluate initial-assignment math numerically to decide
        equality (the paper's improvement over semanticSBML).
    rename_suffix:
        Suffix used to de-collide ids from the second model.
    value_tolerance:
        Relative tolerance for numeric attribute comparisons.
    memoize_patterns:
        Cache canonical patterns per expression and mapping
        restriction (paper §5 items 6-7: "algorithmic optimisation").
        Measured finding (EXPERIMENTS.md): at BioModels scale the
        bookkeeping costs more than it saves because kinetic-law
        expressions are small, so the default is off; the option and
        the :mod:`repro.core.pattern_cache` machinery exist for the
        ablation and for workloads with genuinely large math.

    Options describe *what* a composition computes, never how it is
    scheduled: composition always runs serially in process, and the
    all-pairs sweep's parallelism is the ``workers`` argument of
    :func:`~repro.core.match_all.match_all`.  Pickles written by older
    versions (``options.pkl`` in artifact stores and corpus indexes)
    may still carry ``workers``/``backend`` attributes; they load
    unchanged and are ignored.
    """

    semantics: str = SEMANTICS_HEAVY
    index: str = INDEX_HASH
    conflicts: str = CONFLICTS_WARN
    synonyms: Optional[SynonymTable] = None
    convert_units: bool = True
    use_math_patterns: bool = True
    evaluate_initial_assignments: bool = True
    rename_suffix: str = "m2"
    value_tolerance: float = 1e-9
    memoize_patterns: bool = False

    def __post_init__(self):
        if self.semantics not in (
            SEMANTICS_HEAVY,
            SEMANTICS_LIGHT,
            SEMANTICS_NONE,
        ):
            raise ValueError(f"unknown semantics mode {self.semantics!r}")
        if self.index not in (INDEX_HASH, INDEX_LINEAR, INDEX_SORTED):
            raise ValueError(f"unknown index strategy {self.index!r}")
        if self.conflicts not in (CONFLICTS_WARN, CONFLICTS_ERROR):
            raise ValueError(f"unknown conflict policy {self.conflicts!r}")
        if self.synonyms is None and self.semantics == SEMANTICS_HEAVY:
            self.synonyms = builtin_synonyms()
        # Unit conversion and evaluated-math equality are heavy-
        # semantics features; light/none modes only compare structure.
        if self.semantics != SEMANTICS_HEAVY:
            self.convert_units = False
            self.evaluate_initial_assignments = False

    @property
    def match_synonyms(self) -> bool:
        """Whether synonym rings participate in equality."""
        return self.semantics == SEMANTICS_HEAVY and self.synonyms is not None

    @property
    def match_anything(self) -> bool:
        """False in ``none`` mode: every component is unique."""
        return self.semantics != SEMANTICS_NONE

    # -- fluent constructors -------------------------------------------
    #
    # ``ComposeOptions.heavy().with_index("sorted").strict()`` reads as
    # the configuration it builds.  Every method returns a *new*
    # options object; the receiver is never mutated.

    @classmethod
    def heavy(cls, **overrides) -> "ComposeOptions":
        """Paper-default heavy semantics (synonyms + units + patterns)."""
        return cls(semantics=SEMANTICS_HEAVY, **overrides)

    @classmethod
    def light(cls, **overrides) -> "ComposeOptions":
        """Light semantics: ids and exact names only."""
        return cls(semantics=SEMANTICS_LIGHT, **overrides)

    @classmethod
    def structural(cls, **overrides) -> "ComposeOptions":
        """No matching at all: pure structural union with renames."""
        return cls(semantics=SEMANTICS_NONE, **overrides)

    def with_index(self, index: str) -> "ComposeOptions":
        """A copy of these options using the given index strategy."""
        return replace(self, index=index)

    def strict(self) -> "ComposeOptions":
        """A copy that raises :class:`~repro.errors.ConflictError`
        instead of warn-and-continue."""
        return replace(self, conflicts=CONFLICTS_ERROR)

    def values_equal(self, first: float, second: float) -> bool:
        """Tolerant numeric comparison for attribute values."""
        if first == second:
            return True
        scale = max(abs(first), abs(second))
        return abs(first - second) <= self.value_tolerance * scale
