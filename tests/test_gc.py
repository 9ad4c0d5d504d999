"""The cycle-collector pause around bounded units of work.

``repro._gc.gc_paused`` turns automatic collection off for one unit —
one parse, one digest, one artifact build, one pair, one fold step —
and restores the caller's collector state afterwards.  The pause is
safe only because such a unit leaves no cyclic garbage behind,
however large its model: these tests pin both the state contract and
that bound.
"""

import functools
import gc

import numpy as np
import pytest

from repro import ComposeSession, read_sbml, write_sbml
from repro._gc import gc_paused
from repro.core.artifact_store import compute_artifacts, model_digest
from repro.core.corpus_index import CorpusIndex
from repro.core.match_all import match_query
from repro.core.signature import ModelSignature
from repro.corpus.biomodels_like import generate_model
from repro.sbml import read_sbml_file


@pytest.fixture
def gc_enabled():
    """Run with automatic collection on and restore whatever the
    session had afterwards."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


@pytest.fixture
def gc_disabled():
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def _model(index, nodes):
    return generate_model(index, nodes, np.random.default_rng(index))


# -- the helper -----------------------------------------------------------


class TestHelper:
    def test_pauses_and_restores(self, gc_enabled):
        @gc_paused
        def unit():
            return gc.isenabled()

        assert unit() is False
        assert gc.isenabled()

    def test_restored_on_exception(self, gc_enabled):
        @gc_paused
        def unit():
            raise KeyError("boom")

        with pytest.raises(KeyError):
            unit()
        assert gc.isenabled()

    def test_caller_disable_is_never_undone(self, gc_disabled):
        @gc_paused
        def unit():
            return gc.isenabled()

        assert unit() is False
        assert not gc.isenabled()

    def test_nesting(self, gc_enabled):
        @gc_paused
        def inner():
            return gc.isenabled()

        @gc_paused
        def outer(depth):
            if depth:
                return outer(depth - 1)
            return [inner(), gc.isenabled()]

        assert outer(3) == [False, False]
        assert gc.isenabled()


# -- the wrapped entry points -----------------------------------------------


@pytest.fixture(scope="module")
def pair():
    return _model(1, 25), _model(2, 25)


def _entry_points(pair, tmp_path):
    """``name -> zero-argument call`` for every paused entry point (and
    the public calls that reach them)."""
    left, right = pair
    text = write_sbml(left)
    path = tmp_path / "left.xml"
    path.write_text(text)
    signature = ModelSignature.build(left)
    index = CorpusIndex()
    index.add(right)
    index.save(tmp_path / "index")
    session = ComposeSession()
    return {
        "read_sbml": lambda: read_sbml(text),
        "read_sbml_file": lambda: read_sbml_file(path),
        "write_sbml": lambda: write_sbml(left),
        "model_digest": lambda: model_digest(left),
        "compute_artifacts": lambda: compute_artifacts(left),
        "ModelSignature.build": lambda: ModelSignature.build(left),
        "CorpusIndex.load": lambda: CorpusIndex.load(tmp_path / "index"),
        "CorpusIndex.query": lambda: index.query(signature),
        "CorpusIndex.add": lambda: CorpusIndex().add(left),
        "match_query": lambda: match_query(left, [right]),
        "fold step": lambda: ComposeSession().compose_all([left, right]),
        "ComposeSession._leaf_value": lambda: session._leaf_value(
            [left, right], ["left", "right"], 0
        ),
    }


ENTRY_POINTS = (
    "read_sbml",
    "read_sbml_file",
    "write_sbml",
    "model_digest",
    "compute_artifacts",
    "ModelSignature.build",
    "CorpusIndex.load",
    "CorpusIndex.query",
    "CorpusIndex.add",
    "match_query",
    "fold step",
    "ComposeSession._leaf_value",
)


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_entry_point_leaves_gc_state_as_found(name, enabled, pair, tmp_path):
    call = _entry_points(pair, tmp_path)[name]
    was_enabled = gc.isenabled()
    threshold = gc.get_threshold()
    (gc.enable if enabled else gc.disable)()
    try:
        call()
        assert gc.isenabled() is enabled
        assert gc.get_threshold() == threshold
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _collections_during(call):
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        call()
    finally:
        gc.callbacks.remove(count)
    return len(starts)


@pytest.fixture
def hair_trigger(gc_enabled):
    """Collect the young generation on every new container object, so
    any stretch of code that runs with the collector on shows up as
    collections."""
    threshold = gc.get_threshold()
    gc.set_threshold(1, 10**6, 10**6)
    yield
    gc.set_threshold(*threshold)


def _bound_units(pair, tmp_path):
    """``name -> (function, argument)`` for each paused unit, bound
    ahead of time: binding a method or building an argument allocates,
    and with the collector on that could collect outside the unit."""
    left, right = pair
    signature = ModelSignature.build(left)
    index = CorpusIndex()
    index.add(right)
    index.save(tmp_path / "index")
    leaf_value = functools.partial(
        ComposeSession()._leaf_value, [left, right], ["left", "right"]
    )
    return {
        "read_sbml": (read_sbml, write_sbml(left)),
        "write_sbml": (write_sbml, left),
        "compute_artifacts": (compute_artifacts, left),
        "ModelSignature.build": (ModelSignature.build, left),
        "CorpusIndex.load": (CorpusIndex.load, tmp_path / "index"),
        "CorpusIndex.query": (index.query, signature),
        "CorpusIndex.add": (CorpusIndex().add, left),
        "ComposeSession._leaf_value": (leaf_value, 0),
    }


@pytest.mark.parametrize(
    "name",
    [
        "read_sbml",
        "write_sbml",
        "compute_artifacts",
        "ModelSignature.build",
        "CorpusIndex.load",
        "CorpusIndex.query",
        "CorpusIndex.add",
        "ComposeSession._leaf_value",
    ],
)
def test_units_run_without_automatic_collections(
    name, pair, tmp_path, hair_trigger
):
    _entry_points(pair, tmp_path)[name]()  # warm-up: lazy imports
    function, argument = _bound_units(pair, tmp_path / "bound")[name]
    assert _collections_during(lambda: function(argument)) == 0


def test_unpaused_parse_collects(pair, hair_trigger):
    text = write_sbml(pair[0])
    assert _collections_during(lambda: read_sbml.__wrapped__(text)) > 0


def test_pairs_and_fold_steps_merge_with_gc_paused(gc_enabled, monkeypatch):
    from repro.core.compose import Composer

    states = []
    compose_step = Composer.compose_step

    def spy(self, *args, **kwargs):
        states.append(gc.isenabled())
        return compose_step(self, *args, **kwargs)

    monkeypatch.setattr(Composer, "compose_step", spy)
    models = [_model(index, 12) for index in range(4)]
    match_query(models[0], models[1:])
    ComposeSession().compose_all(models, plan="fold")
    assert states == [False] * 6
    assert gc.isenabled()


# -- the safety condition: no cyclic garbage that grows with the unit --------


def _unreachable_after(call):
    call()  # warm-up: lazy imports and caches build cycles once
    gc.collect()
    call()
    return gc.collect()


@pytest.mark.parametrize(
    "name, bound",
    [
        ("read_sbml", 0),
        ("write_sbml", 0),
        ("compute_artifacts", 0),
        ("ModelSignature.build", 0),
        ("match_query", 0),
        ("fold step", 0),
        ("ComposeSession._leaf_value", 0),
    ],
)
def test_paused_units_leave_bounded_cyclic_garbage(name, bound, tmp_path):
    found = []
    for nodes in (4, 40, 160):
        pair = (_model(nodes, nodes), _model(nodes + 1, nodes))
        workdir = tmp_path / str(nodes)
        workdir.mkdir()
        call = _entry_points(pair, workdir)[name]
        found.append(_unreachable_after(call))
    assert found[0] == found[1] == found[2]
    assert found[0] <= bound
