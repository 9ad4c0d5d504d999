"""Carried accumulator phase indexes (``AccumState.indexes``).

A chained session step serves every phase whose target-side keys are
valid under the empty mapping from the accumulator's carried base,
extended at phase start with rows for the components appended since
the base last covered the list.  The oracle: whenever a phase is served
from a carried base, that base answers every key with the same
component object as a fresh ``_ROW_BUILDERS`` build over the live
accumulator — the index the step would otherwise have built — and has
the same length.  The work counter pins the point of the change: each
merged component is indexed about once per ``compose_all`` instead of
once per step.
"""

import importlib
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ModelBuilder, compose, compose_all, write_sbml
from repro.core.index import HashIndex, LinearIndex, SortedKeyIndex, make_index
from repro.core.options import ComposeOptions
from repro.corpus import generate_corpus
from repro.corpus.curated import (
    drug_inhibition,
    gene_expression,
    glycolysis_lower,
    glycolysis_upper,
    mapk_cascade,
)

compose_module = importlib.import_module("repro.core.compose")

PLANS = ["fold", "greedy", "tree"]
STRATEGIES = ["hash", "sorted", "linear"]


def _all_keys(index):
    """Every key registered in a strategy's index."""
    if isinstance(index, HashIndex):
        return set(index._table)
    if isinstance(index, LinearIndex):
        return {key for keys, _ in index._entries for key in keys}
    assert isinstance(index, SortedKeyIndex)
    return set(index._keys) | {key for key, _, _ in index._pending}


def _assert_matches_fresh_build(state, name, base):
    fresh = make_index(state.options.index)
    components = getattr(state.target, compose_module._PHASE_LISTS[name])
    for position, keys in compose_module._ROW_BUILDERS[name](
        state, state.target
    ):
        fresh.add(keys, components[position])
    assert len(base) == len(fresh), name
    for key in _all_keys(base) | _all_keys(fresh):
        assert base.find_one(key) is fresh.find_one(key), (name, key)


@pytest.fixture
def oracle(monkeypatch):
    """Check every carried base against a fresh build the moment a
    phase takes it; returns the list of checked phase names."""
    checked = []
    carried_base = compose_module._MergeState._carried_base

    def checking(state, name):
        base = carried_base(state, name)
        _assert_matches_fresh_build(state, name, base)
        checked.append(name)
        return base

    monkeypatch.setattr(compose_module._MergeState, "_carried_base", checking)
    return checked


def _legacy_chain(models, options):
    """The pairwise chain: every step copies its target and builds
    every phase index fresh."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        accumulator = models[0]
        for model in models[1:]:
            accumulator, _ = compose(accumulator, model, options)
    return accumulator


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(0, 2**16),
    plan=st.sampled_from(PLANS),
    strategy=st.sampled_from(STRATEGIES),
    semantics=st.sampled_from(["heavy", "light"]),
)
def test_carried_bases_match_fresh_builds(
    oracle, seed, plan, strategy, semantics
):
    options = getattr(ComposeOptions, semantics)().with_index(strategy)
    models = generate_corpus(count=5, seed=seed)
    del oracle[:]
    result = compose_all(models, plan=plan, options=options)
    assert oracle, "no phase was served from a carried base"
    if plan == "fold":
        assert write_sbml(result.model) == write_sbml(
            _legacy_chain(models, options)
        )


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("plan", PLANS)
def test_carried_bases_match_fresh_builds_on_curated_corpus(
    oracle, plan, strategy
):
    models = [
        glycolysis_upper(),
        glycolysis_lower(),
        mapk_cascade(),
        drug_inhibition(),
        gene_expression(),
    ]
    compose_all(models, plan=plan, options=ComposeOptions().with_index(strategy))
    assert {"species", "reactions"} <= set(oracle)


def test_renamed_target_reference_builds_the_phase_fresh(oracle):
    # The third model's clashing ``k`` is renamed, so the mapping
    # table is non-empty when the constraints phase starts and a fresh
    # build keys the accumulator's ``k > 0`` under it.  That phase must
    # not be served from the carried (empty-mapping) base: the oracle
    # and the legacy chain both see the difference if it is.
    def model(model_id, k):
        return (
            ModelBuilder(model_id)
            .compartment("cell", size=1.0)
            .species(f"{model_id}_S", 1.0)
            .parameter("k", k)
            .constraint("k > 0")
            .build()
        )

    models = [model("m1", 1.0), model("m2", 1.0), model("m3", 2.0)]
    result = compose_all(models, plan="fold")
    assert result.report.renamed == {"k": "k_m2"}
    assert write_sbml(result.model) == write_sbml(
        _legacy_chain(models, ComposeOptions())
    )


@pytest.fixture(scope="module")
def chain_60():
    return generate_corpus(60, seed=1)


def _component_count(models):
    return sum(
        len(getattr(model, attribute))
        for model in models
        for attribute in compose_module._PHASE_LISTS.values()
    )


@pytest.mark.parametrize(
    "plan, bound",
    [
        # At most one row per input component: nothing is re-indexed.
        ("fold", 8756),
        ("greedy", 8756),
        # Below the 20,265 rows of rebuilding every step's target side.
        ("tree", 20264),
    ],
)
def test_target_rows_per_compose_all(monkeypatch, chain_60, plan, bound):
    assert _component_count(chain_60) == 8756
    rows = [0]

    def counting(builder):
        def counted(*args, **kwargs):
            for row in builder(*args, **kwargs):
                rows[0] += 1
                yield row

        return counted

    for name, builder in list(compose_module._ROW_BUILDERS.items()):
        monkeypatch.setitem(
            compose_module._ROW_BUILDERS, name, counting(builder)
        )
    compose_all(chain_60, plan=plan, options=ComposeOptions.heavy())
    assert 0 < rows[0] <= bound


class TestCarriedBaseGuard:
    """``_carried_base`` extends on appends and rebuilds on anything
    else."""

    @staticmethod
    def _state(model):
        state = compose_module._index_keyer(model, ComposeOptions(), None)
        state.carried = {}
        return state

    @staticmethod
    def _model(species):
        builder = ModelBuilder("m").compartment("cell", size=1.0)
        for species_id in species:
            builder.species(species_id, 1.0)
        return builder.build()

    def test_append_extends_the_same_base(self):
        model = self._model(["A", "B"])
        state = self._state(model)
        base = state._carried_base("species")
        assert len(base) == 2
        model.add_species(self._model(["C"]).species[0])
        assert state._carried_base("species") is base
        assert len(base) == 3
        assert base.find_one("id:C") is model.species[2]

    def test_replaced_last_component_rebuilds(self):
        model = self._model(["A", "B"])
        state = self._state(model)
        base = state._carried_base("species")
        model.species[-1] = model.species[-1].copy()
        rebuilt = state._carried_base("species")
        assert rebuilt is not base
        assert rebuilt.find_one("id:B") is model.species[-1]

    def test_shrunk_list_rebuilds(self):
        model = self._model(["A", "B"])
        state = self._state(model)
        base = state._carried_base("species")
        del model.species[-1]
        rebuilt = state._carried_base("species")
        assert rebuilt is not base
        assert len(rebuilt) == 1
        assert rebuilt.find_one("id:B") is None

    def test_sweep_merges_never_carry(self, monkeypatch):
        # The all-pairs engine runs with carry_state=False; its path
        # must never touch a carried base.
        from repro import match_all

        def forbidden(state, name):
            raise AssertionError("sweep merge used a carried base")

        monkeypatch.setattr(
            compose_module._MergeState, "_carried_base", forbidden
        )
        match_all(generate_corpus(count=4, seed=7))
