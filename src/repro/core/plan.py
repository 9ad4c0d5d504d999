"""Merge plans — the order in which an n-way composition folds.

The paper's SBMLCompose is pairwise; real workloads (the Figure 8
sweep, the part-library example, the CLI) compose *many* models.  The
merge order is itself an algorithmic lever: related work on subnetwork
hierarchies (Holme et al.) and decomposition tools (CRITERIA) treats
the pairing structure as first-class, and so does this module.  A
:class:`MergePlan` turns a list of input models into a binary merge
tree that :class:`~repro.core.session.ComposeSession` then executes.

Three plans ship:

* :class:`LeftFoldPlan` (``"fold"``) — ``(((m0+m1)+m2)+m3)...``; the
  order the models were given.  Matches what every hand-rolled loop
  over ``compose(a, b)`` did before sessions existed.
* :class:`BalancedTreePlan` (``"tree"``) — pairs neighbours round by
  round, keeping the two sides of every merge comparably sized.
* :class:`GreedySimilarityPlan` (``"greedy"``) — repeatedly picks the
  unmerged model sharing the most ids / synonym-canonical names with
  what has been merged so far, probed through the existing
  :class:`~repro.core.index.ComponentIndex` machinery.  Merging the
  most-overlapping model next maximises early duplicate-uniting, which
  keeps the accumulator (and thus every later step) small.

A plan tree is either an ``int`` (index into the input list) or a
``(left, right)`` tuple of plan trees.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple, Union

from repro.core.index import make_index
from repro.core.options import ComposeOptions
from repro.sbml.model import Model

__all__ = [
    "PlanNode",
    "MergePlan",
    "LeftFoldPlan",
    "BalancedTreePlan",
    "GreedySimilarityPlan",
    "PLAN_FOLD",
    "PLAN_TREE",
    "PLAN_GREEDY",
    "make_plan",
    "plan_names",
]

PlanNode = Union[int, Tuple["PlanNode", "PlanNode"]]

PLAN_FOLD = "fold"
PLAN_TREE = "tree"
PLAN_GREEDY = "greedy"


class MergePlan:
    """Strategy interface: lay out the merge tree for ``models``."""

    #: Canonical name, used by ``--plan`` and :func:`make_plan`.
    name: str = "abstract"

    def tree(self, models: Sequence[Model], options: ComposeOptions) -> PlanNode:
        """The binary merge tree over indexes into ``models``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r})"


def _left_fold(order: Sequence[int]) -> PlanNode:
    node: PlanNode = order[0]
    for index in order[1:]:
        node = (node, index)
    return node


class LeftFoldPlan(MergePlan):
    """Fold in the order given: ``(((m0+m1)+m2)...)``."""

    name = PLAN_FOLD

    def tree(self, models: Sequence[Model], options: ComposeOptions) -> PlanNode:
        if not models:
            raise ValueError("cannot plan a merge of zero models")
        return _left_fold(range(len(models)))


class BalancedTreePlan(MergePlan):
    """Pair neighbours round by round — a balanced binary merge tree.

    With n inputs the accumulator of a left fold participates in n-1
    merges; a balanced tree caps every model's participation at
    ⌈log2 n⌉ merges and keeps the two sides of each merge similar in
    size.
    """

    name = PLAN_TREE

    def tree(self, models: Sequence[Model], options: ComposeOptions) -> PlanNode:
        if not models:
            raise ValueError("cannot plan a merge of zero models")
        level: List[PlanNode] = list(range(len(models)))
        while len(level) > 1:
            paired: List[PlanNode] = [
                (level[i], level[i + 1])
                for i in range(0, len(level) - 1, 2)
            ]
            if len(level) % 2:
                paired.append(level[-1])
            level = paired
        return level[0]


def _overlap_keys(model: Model, options: ComposeOptions) -> Set[str]:
    """The id / canonical-name key set a model exposes for overlap
    scoring — the same identity signals the Figure 5 lookup uses."""

    def canonical(label: str) -> str:
        if options.match_synonyms:
            return options.synonyms.canonical(label)
        return label

    keys: Set[str] = set()
    for collection in (model.species, model.compartments, model.parameters):
        for component in collection:
            if component.id is not None:
                keys.add(f"id:{component.id}")
            label = component.name or component.id
            if label is not None:
                keys.add(f"name:{canonical(label)}")
    for reaction in model.reactions:
        if reaction.id is not None:
            keys.add(f"id:{reaction.id}")
    return keys


class GreedySimilarityPlan(MergePlan):
    """Order models by shared-id / synonym overlap with the merged set.

    Repeatedly probes each unmerged model's keys against a
    :class:`~repro.core.index.ComponentIndex` of everything merged so
    far and picks the model whose overlap is largest *relative to the
    new ids it would introduce* — i.e. the one that grows the
    accumulator least.  Every fold step costs O(accumulator), so
    merging high-overlap/low-novelty models first both unites
    duplicates early and keeps every later step cheap.  Ties break
    toward input order, keeping the plan deterministic; the resulting
    ordering is executed as a left fold.
    """

    name = PLAN_GREEDY

    def tree(self, models: Sequence[Model], options: ComposeOptions) -> PlanNode:
        if not models:
            raise ValueError("cannot plan a merge of zero models")
        if len(models) <= 2:
            return _left_fold(range(len(models)))
        key_sets = [_overlap_keys(model, options) for model in models]
        # Seed with the model introducing the fewest ids: the
        # accumulator starts as small as possible.
        start = min(range(len(models)), key=lambda i: len(key_sets[i]))
        index = make_index(options.index)
        order = [start]
        for key in key_sets[start]:
            index.add([key], True)
        remaining = [i for i in range(len(models)) if i != start]
        while remaining:
            growths = []
            for i in remaining:
                overlap = sum(
                    1
                    for key in key_sets[i]
                    if index.find([key]) is not None
                )
                growths.append(len(key_sets[i]) - overlap)
            best = remaining[growths.index(min(growths))]
            remaining.remove(best)
            order.append(best)
            for key in key_sets[best]:
                index.add([key], True)
        return _left_fold(order)


_PLANS = {
    PLAN_FOLD: LeftFoldPlan,
    "left": LeftFoldPlan,
    "left-fold": LeftFoldPlan,
    PLAN_TREE: BalancedTreePlan,
    "balanced": BalancedTreePlan,
    PLAN_GREEDY: GreedySimilarityPlan,
    "similarity": GreedySimilarityPlan,
}


def plan_names() -> List[str]:
    """The canonical plan names (for CLI choices and docs)."""
    return [PLAN_FOLD, PLAN_TREE, PLAN_GREEDY]


def make_plan(spec: Union[str, MergePlan]) -> MergePlan:
    """Resolve a plan name (or pass through a plan instance)."""
    if isinstance(spec, MergePlan):
        return spec
    try:
        return _PLANS[spec]()
    except KeyError:
        raise ValueError(
            f"unknown merge plan {spec!r}; expected one of "
            f"{', '.join(plan_names())}"
        ) from None
