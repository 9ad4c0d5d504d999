"""The SBML and MathML writers against the ElementTree oracle.

A model's canonical SBML text is its content address: the artifact
store, the corpus index and the recorded benchmark references all key
on ``sha256(write_sbml(model))``.  The writers emit that text directly;
these tests hold it byte-identical to the ElementTree serialisation
(:mod:`elementtree_writer`) it replaced, over generated, curated and
adversarial models and expressions, and pin literal digests.
"""

import hashlib

import elementtree_writer as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import write_sbml
from repro.core.artifact_store import model_digest
from repro.corpus import curated, semantic_suite
from repro.corpus.biomodels_like import generate_model
from repro.mathml import (
    Apply,
    Constant,
    Identifier,
    Lambda,
    Number,
    Piecewise,
    write_mathml,
)
from repro.mathml.ast import KNOWN_OPERATORS
from repro.sbml.components import (
    AlgebraicRule,
    AssignmentRule,
    Compartment,
    CompartmentType,
    Constraint,
    Delay,
    Event,
    EventAssignment,
    FunctionDefinition,
    InitialAssignment,
    KineticLaw,
    ModifierSpeciesReference,
    Parameter,
    RateRule,
    Reaction,
    Species,
    SpeciesReference,
    SpeciesType,
    Trigger,
)
from repro.sbml.model import Document, Model
from repro.units.definitions import Unit, UnitDefinition

#: ``model_digest`` of each curated model, recorded from the
#: ElementTree writer.
CURATED_DIGESTS = {
    "glycolysis_upper": "02611f0d6cb8b16674096053dbba2fcdbebe8b36f33082d4964570112f33f88e",
    "glycolysis_lower": "80a4042a5d30790649b5e6198d3b8b6625141f8c63bf75031cf5ad0c96c02a70",
    "mapk_cascade": "f55354c28cdc509f95c765789d927b1c13fc682dd74b9bb55eabd67d6798db50",
    "drug_inhibition": "2f6818bac6b94cb8cb10bc0e1d8641a2288c2fc63aed0d7aa48d7283ea759dc1",
    "gene_expression": "22f8f19091b856e68d40e48b6c09620133f214b232c44877d2c4b988199f9abb",
    "lotka_volterra": "c721c8d2643be29ebfccc3200964c7021dc9eb3b1c9d23d155dc852a6752bf7c",
}

#: sha256 over the concatenated digests of ``semantic_suite()``.
SEMANTIC_SUITE_DIGEST = (
    "9acd8b2b0326e62af792bebbf9ce5f244588dccaca094c6c80c6aa55172880ba"
)


def _assert_identical(model):
    assert write_sbml(model) == oracle.write_sbml(model)


# -- generated and curated models --------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), nodes=st.integers(0, 194))
def test_generated_models_match_the_oracle(seed, nodes):
    _assert_identical(generate_model(seed, nodes, np.random.default_rng(seed)))


@pytest.mark.parametrize("name", sorted(CURATED_DIGESTS))
def test_curated_models_match_the_oracle_and_pinned_digest(name):
    model = getattr(curated, name)()
    _assert_identical(model)
    assert model_digest(model) == CURATED_DIGESTS[name]


def test_semantic_suite_matches_the_oracle_and_pinned_digests():
    models = semantic_suite()
    for model in models:
        _assert_identical(model)
    joined = "".join(model_digest(model) for model in models)
    assert hashlib.sha256(joined.encode()).hexdigest() == SEMANTIC_SUITE_DIGEST


def test_document_level_and_version_are_written():
    document = Document(model=curated.lotka_volterra(), level=2, version=3)
    text = write_sbml(document)
    assert text == oracle.write_sbml(document)
    assert ' level="2" version="3">' in text


# -- adversarial models -------------------------------------------------------

#: Characters the escaping rules treat specially, plus non-ASCII.
_TRICKY = ["&", "<", ">", '"', "'", "\n", "\r", "\t", "é", "µ", "😀", "\x7f"]
_text = st.text(
    alphabet=st.sampled_from(list("aZ_0 ") + _TRICKY), max_size=6
)
_optional_text = st.none() | _text
_numbers = st.sampled_from(
    [0.0, -0.0, 1.0, 2.5, -3.0, 1e-300, 1e15, -1e15, 2e15, 1e16, 123456789.0,
     6.022e23, 0.1, float("inf"), float("nan")]
)
_qualifiers = st.sampled_from(["is", "isVersionOf", "hasPart", "isDescribedBy"])


def _leaves():
    return st.one_of(
        st.builds(Number, _numbers, st.none() | _text),
        st.builds(
            Identifier,
            st.one_of(_text, st.sampled_from(["time", "delay", "avogadro"])),
        ),
        st.builds(
            Constant,
            st.sampled_from(
                ["pi", "exponentiale", "true", "false", "infinity", "notanumber"]
            ),
        ),
    )


def _extend(children):
    two = st.tuples(children, children)
    return st.one_of(
        st.builds(
            Apply,
            st.sampled_from(sorted(KNOWN_OPERATORS - {"root", "log"})),
            st.lists(children, max_size=3),
        ),
        st.builds(Apply, st.sampled_from(["root", "log"]), two),
        st.builds(Apply, _text, st.lists(children, max_size=2)),
        st.builds(Lambda, st.lists(_text, max_size=2), children),
        st.builds(
            Piecewise, st.lists(two, max_size=2), st.none() | children
        ),
    )


_math = st.recursive(_leaves(), _extend, max_leaves=8)
_optional_math = st.none() | _math


@st.composite
def _sbase(draw):
    return {
        "id": draw(_optional_text),
        "name": draw(_optional_text),
        "metaid": draw(_optional_text),
        "notes": draw(_optional_text),
        "sbo_term": draw(_optional_text),
        "annotations": draw(
            st.dictionaries(_qualifiers, st.lists(_text, max_size=2), max_size=2)
        ),
    }


def _components(build):
    return st.lists(build(), max_size=2)


@st.composite
def _unit_definition(draw):
    units = [
        Unit(
            draw(st.sampled_from(["mole", "litre", "second", "dimensionless"])),
            draw(st.integers(-3, 3)),
            draw(st.integers(-6, 6)),
            draw(_numbers),
        )
        for _ in range(draw(st.integers(0, 2)))
    ]
    return UnitDefinition(draw(_text), draw(_optional_text), units)


@st.composite
def _compartment(draw):
    return Compartment(
        size=draw(st.none() | _numbers),
        units=draw(_optional_text),
        spatial_dimensions=draw(st.integers(0, 3)),
        compartment_type=draw(_optional_text),
        outside=draw(_optional_text),
        constant=draw(st.booleans()),
        **draw(_sbase()),
    )


@st.composite
def _species(draw):
    return Species(
        compartment=draw(_optional_text),
        initial_amount=draw(st.none() | _numbers),
        initial_concentration=draw(st.none() | _numbers),
        substance_units=draw(_optional_text),
        has_only_substance_units=draw(st.booleans()),
        boundary_condition=draw(st.booleans()),
        constant=draw(st.booleans()),
        species_type=draw(_optional_text),
        charge=draw(st.none() | st.integers(-3, 3)),
        **draw(_sbase()),
    )


@st.composite
def _parameter(draw):
    return Parameter(
        value=draw(st.none() | _numbers),
        units=draw(_optional_text),
        constant=draw(st.booleans()),
        **draw(_sbase()),
    )


@st.composite
def _rule(draw):
    kind = draw(st.sampled_from([AssignmentRule, RateRule, AlgebraicRule]))
    fields = dict(math=draw(_optional_math), **draw(_sbase()))
    if kind is not AlgebraicRule:
        fields["_variable"] = draw(_optional_text)
    return kind(**fields)


@st.composite
def _reaction(draw):
    law = None
    if draw(st.booleans()):
        law = KineticLaw(
            math=draw(_optional_math),
            parameters=draw(_components(_parameter)),
            **draw(_sbase()),
        )
    references = st.lists(
        st.builds(SpeciesReference, _text, _numbers), max_size=2
    )
    return Reaction(
        reactants=draw(references),
        products=draw(references),
        modifiers=draw(
            st.lists(st.builds(ModifierSpeciesReference, _text), max_size=2)
        ),
        kinetic_law=law,
        reversible=draw(st.booleans()),
        fast=draw(st.booleans()),
        **draw(_sbase()),
    )


@st.composite
def _event(draw):
    return Event(
        trigger=draw(st.none() | st.builds(Trigger, _optional_math)),
        delay=draw(st.none() | st.builds(Delay, _optional_math)),
        assignments=draw(
            st.lists(
                st.builds(EventAssignment, _text, _optional_math), max_size=2
            )
        ),
        **draw(_sbase()),
    )


@st.composite
def _simple(draw, kind, **fields):
    """A component with SBase fields plus ``fields`` (name -> strategy)."""
    values = {name: draw(strategy) for name, strategy in fields.items()}
    return kind(**values, **draw(_sbase()))


@st.composite
def _models(draw):
    return Model(
        function_definitions=draw(
            _components(
                lambda: _simple(
                    FunctionDefinition,
                    math=st.none()
                    | st.builds(Lambda, st.lists(_text, max_size=2), _math),
                )
            )
        ),
        unit_definitions=draw(_components(_unit_definition)),
        compartment_types=draw(_components(lambda: _simple(CompartmentType))),
        species_types=draw(_components(lambda: _simple(SpeciesType))),
        compartments=draw(_components(_compartment)),
        species=draw(_components(_species)),
        parameters=draw(_components(_parameter)),
        initial_assignments=draw(
            _components(
                lambda: _simple(
                    InitialAssignment, symbol=_optional_text, math=_optional_math
                )
            )
        ),
        rules=draw(_components(_rule)),
        constraints=draw(
            _components(
                lambda: _simple(
                    Constraint, math=_optional_math, message=_optional_text
                )
            )
        ),
        reactions=draw(_components(_reaction)),
        events=draw(_components(_event)),
        **draw(_sbase()),
    )


@settings(max_examples=150, deadline=None)
@given(model=_models())
def test_adversarial_models_match_the_oracle(model):
    _assert_identical(model)


def _annotated(notes_first: bool) -> Model:
    """A model whose first XHTML paragraph comes before (or after) its
    first annotation: the qualifier namespace's prefix depends on it."""
    species = Species(
        id="A", notes="first" if notes_first else None,
        annotations={"is": ["urn:miriam:chebi:CHEBI%3A17234"]},
    )
    later = Species(id="B", notes="second")
    return Model(id="m", species=[species, later])


@pytest.mark.parametrize("notes_first", [True, False])
def test_namespace_prefixes_follow_document_order(notes_first):
    model = _annotated(notes_first)
    text = write_sbml(model)
    assert text == oracle.write_sbml(model)
    prefix = "ns2" if notes_first else "ns1"
    assert f"<{prefix}:is>" in text
    assert text.index('xmlns:html="') < text.index(f'xmlns:{prefix}="')


def test_empty_model():
    _assert_identical(Model())
    _assert_identical(Model(id="empty", notes="n & m"))


# -- MathML ---------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(node=_math)
def test_write_mathml_matches_the_oracle(node):
    assert write_mathml(node) == oracle.write_mathml(node)
    for indent in ("  ", "", "\t"):
        assert write_mathml(node, indent) == oracle.write_mathml(node, indent)


@pytest.mark.parametrize(
    "node",
    [
        Number(-0.0),
        Number(1e-300),
        Number(1e15),
        Number(999999999999999.0),
        Number(2.0, "per & <second>"),
        Identifier("a<b"),
        Identifier(""),
        Apply("root", (Number(2.0), Identifier("x"))),
        Apply("log", (Number(10.0), Identifier("x"))),
        Apply("f&g", (Identifier("time"),)),
        Lambda(("x", ""), Apply("times", (Identifier("x"), Constant("pi")))),
        Piecewise(((Number(1.0), Apply("lt", (Identifier("t"),))),)),
        Piecewise(()),
    ],
    ids=repr,
)
def test_write_mathml_fixed_cases(node):
    assert write_mathml(node) == oracle.write_mathml(node)
    assert write_mathml(node, "  ") == oracle.write_mathml(node, "  ")
