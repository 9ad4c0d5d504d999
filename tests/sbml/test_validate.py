"""Unit tests for SBML semantic validation."""

import pytest

from repro.errors import SBMLValidationError
from repro.mathml import Identifier, Lambda, Apply
from repro.sbml import (
    Compartment,
    FunctionDefinition,
    Model,
    ModelBuilder,
    Parameter,
    Species,
    assert_valid,
    validate_model,
)


def codes(model):
    return {issue.code for issue in validate_model(model)}


def valid_model():
    return (
        ModelBuilder("m")
        .compartment("cell")
        .species("A", 10.0)
        .species("B", 0.0)
        .parameter("k1", 0.5)
        .mass_action("r1", ["A"], ["B"], "k1")
        .build()
    )


def test_valid_model_has_no_issues():
    assert validate_model(valid_model()) == []
    assert_valid(valid_model())  # should not raise


def test_species_unknown_compartment():
    model = Model(id="m")
    model.add_species(Species(id="A", compartment="ghost"))
    assert "unknown-compartment" in codes(model)


def test_species_missing_compartment():
    model = Model(id="m")
    model.add_species(Species(id="A"))
    assert "missing-compartment" in codes(model)


def test_species_double_initial():
    model = Model(id="m")
    model.add_compartment(Compartment(id="c"))
    model.add_species(
        Species(
            id="A",
            compartment="c",
            initial_amount=1.0,
            initial_concentration=1.0,
        )
    )
    assert "double-initial" in codes(model)


def test_species_negative_initial():
    model = Model(id="m")
    model.add_compartment(Compartment(id="c"))
    model.add_species(
        Species(id="A", compartment="c", initial_concentration=-1.0)
    )
    assert "negative-initial" in codes(model)


def test_cross_type_duplicate_id():
    model = Model(id="m")
    model.add_compartment(Compartment(id="x"))
    model.add_parameter(Parameter(id="x"))
    assert "duplicate-id" in codes(model)


def test_unknown_units_on_parameter():
    model = valid_model()
    model.get_parameter("k1").units = "martian_seconds"
    assert "unknown-units" in codes(model)


def test_zero_multiplier_unit_reported():
    model = (
        ModelBuilder("m")
        .unit("per_mole", [("mole", -1, 0, 0.0)])
        .unit("nothing", [("second", 1, 0, 0.0)])
        .unit("per_second", [("second", -1, 0, 1.0)])
        .build()
    )
    zero = [
        issue for issue in validate_model(model)
        if issue.code == "zero-multiplier"
    ]
    assert [issue.severity for issue in zero] == ["error", "error"]
    assert "'per_mole'" in zero[0].message
    assert "'nothing'" in zero[1].message


def test_known_builtin_units_accepted():
    model = valid_model()
    model.get_parameter("k1").units = "second"
    assert "unknown-units" not in codes(model)
    model.get_parameter("k1").units = "substance"
    assert "unknown-units" not in codes(model)


def test_kinetic_law_unbound_identifier():
    model = (
        ModelBuilder("m")
        .compartment("c")
        .species("A")
        .reaction("r", ["A"], [], formula="mystery * A")
        .build()
    )
    assert "unbound-identifier" in codes(model)


def test_kinetic_law_local_parameter_binds():
    model = (
        ModelBuilder("m")
        .compartment("c")
        .species("A")
        .reaction("r", ["A"], [], formula="k*A", local_parameters={"k": 1.0})
        .build()
    )
    assert "unbound-identifier" not in codes(model)


def test_time_symbol_implicitly_bound():
    model = (
        ModelBuilder("m")
        .compartment("c")
        .species("A")
        .parameter("k", 1.0)
        .reaction("r", ["A"], [], formula="k * time")
        .build()
    )
    assert "unbound-identifier" not in codes(model)


def test_reaction_unknown_species():
    model = (
        ModelBuilder("m")
        .compartment("c")
        .species("A")
        .parameter("k", 1.0)
        .build()
    )
    from repro.sbml import Reaction, SpeciesReference

    model.add_reaction(
        Reaction(id="r", reactants=[SpeciesReference("ghost")])
    )
    assert "unknown-species" in codes(model)


def test_reaction_bad_stoichiometry():
    model = valid_model()
    model.get_reaction("r1").reactants[0].stoichiometry = 0.0
    assert "bad-stoichiometry" in codes(model)


def test_missing_kinetic_law_is_warning():
    model = (
        ModelBuilder("m")
        .compartment("c")
        .species("A")
        .species("B")
        .reaction("r", ["A"], ["B"])
        .build()
    )
    issues = validate_model(model)
    law_issues = [i for i in issues if i.code == "missing-kinetic-law"]
    assert law_issues and law_issues[0].severity == "warning"
    assert_valid(model)  # warnings don't raise


def test_rule_unknown_variable():
    model = ModelBuilder("m").compartment("c").assignment_rule("ghost", "1").build()
    assert "unknown-variable" in codes(model)


def test_rule_double_determined():
    model = (
        ModelBuilder("m")
        .compartment("c")
        .parameter("p", constant=False)
        .assignment_rule("p", "1")
        .assignment_rule("p", "2")
        .build()
    )
    assert "double-determined" in codes(model)


def test_initial_assignment_unknown_symbol():
    model = ModelBuilder("m").initial_assignment("ghost", "1").build()
    assert "unknown-symbol" in codes(model)


def test_double_initial_assignment():
    model = (
        ModelBuilder("m")
        .compartment("c")
        .species("A")
        .initial_assignment("A", "1")
        .initial_assignment("A", "2")
        .build()
    )
    assert "double-initial-assignment" in codes(model)


def test_recursive_function_detected():
    model = Model(id="m")
    model.add_function_definition(
        FunctionDefinition(
            id="f",
            math=Lambda(("x",), Apply("f", (Identifier("x"),))),
        )
    )
    assert "recursive-function" in codes(model)


def test_mutually_recursive_functions_detected():
    model = Model(id="m")
    model.add_function_definition(
        FunctionDefinition(
            id="f", math=Lambda(("x",), Apply("g", (Identifier("x"),)))
        )
    )
    model.add_function_definition(
        FunctionDefinition(
            id="g", math=Lambda(("x",), Apply("f", (Identifier("x"),)))
        )
    )
    assert "recursive-function" in codes(model)


def test_function_with_free_identifier():
    model = Model(id="m")
    model.add_function_definition(
        FunctionDefinition(id="f", math=Lambda(("x",), Identifier("y")))
    )
    assert "unbound-in-function" in codes(model)


def test_unknown_function_call():
    model = (
        ModelBuilder("m")
        .compartment("c")
        .species("A")
        .reaction("r", ["A"], [], formula="nosuch(A)")
        .build()
    )
    assert "unknown-function" in codes(model)


def test_event_unknown_variable():
    model = (
        ModelBuilder("m")
        .compartment("c")
        .species("A")
        .event("e", "time > 1", {"ghost": "1"})
        .build()
    )
    assert "unknown-variable" in codes(model)


def test_assert_valid_raises_with_issues():
    model = Model(id="m")
    model.add_species(Species(id="A", compartment="ghost"))
    with pytest.raises(SBMLValidationError) as excinfo:
        assert_valid(model)
    assert excinfo.value.issues


def test_compartment_outside_unknown():
    model = Model(id="m")
    model.add_compartment(Compartment(id="inner", outside="ghost"))
    assert "unknown-outside" in codes(model)
