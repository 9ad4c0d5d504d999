"""SBML XML reader.

Parses SBML Level 2 documents (any version — lookup is by local
element name, so version-namespace differences don't matter) into the
:class:`~repro.sbml.model.Model` object model.  Math contents are
delegated to :mod:`repro.mathml.parser`; annotations use the
simplified MIRIAM scheme described in
:mod:`repro.sbml.components`.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, List, Optional, Union

from repro._gc import gc_paused
from repro.errors import MathParseError, SBMLParseError
from repro.mathml.ast import Lambda
from repro.mathml.parser import parse_math_element
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

__all__ = ["read_sbml", "read_sbml_file", "SBML_L2V4_NS"]

SBML_L2V4_NS = "http://www.sbml.org/sbml/level2/version4"

_RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_BQBIOL_NS = "http://biomodels.net/biology-qualifiers/"
_BQMODEL_NS = "http://biomodels.net/model-qualifiers/"


def _local(tag: str) -> str:
    if "}" in tag:
        return tag.split("}", 1)[1]
    return tag


def _child(element: ET.Element, name: str) -> Optional[ET.Element]:
    for child in element:
        if _local(child.tag) == name:
            return child
    return None


def _children(element: ET.Element, name: str) -> List[ET.Element]:
    return [child for child in element if _local(child.tag) == name]


def _list_of(element: ET.Element, list_name: str, item_name: str) -> List[ET.Element]:
    container = _child(element, list_name)
    if container is None:
        return []
    return _children(container, item_name)


def _bool(element: ET.Element, attr: str, default: bool) -> bool:
    raw = element.get(attr)
    if raw is None:
        return default
    if raw in ("true", "1"):
        return True
    if raw in ("false", "0"):
        return False
    raise SBMLParseError(f"bad boolean {raw!r} for attribute {attr!r}")


def _float(element: ET.Element, attr: str) -> Optional[float]:
    raw = element.get(attr)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError as exc:
        raise SBMLParseError(f"bad number {raw!r} for attribute {attr!r}") from exc


def _int(element: ET.Element, attr: str, default: Optional[int] = None) -> Optional[int]:
    raw = element.get(attr)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise SBMLParseError(f"bad integer {raw!r} for attribute {attr!r}") from exc


@gc_paused
def read_sbml(text: Union[str, bytes]) -> Document:
    """Parse an SBML document from a string, or from bytes whose
    encoding the XML declaration names (UTF-8 when it names none)."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise SBMLParseError(f"malformed SBML XML: {exc}") from exc
    if _local(root.tag) != "sbml":
        raise SBMLParseError(
            f"root element is <{_local(root.tag)}>, expected <sbml>"
        )
    level = _int(root, "level", 2)
    version = _int(root, "version", 4)
    model_element = _child(root, "model")
    if model_element is None:
        raise SBMLParseError("document has no <model>")
    model = _read_model(model_element)
    return Document(model=model, level=level, version=version)


def read_sbml_file(path) -> Document:
    """Parse an SBML document from a file path.  The file is read as
    bytes, so the parser honours its XML declaration's encoding."""
    with open(path, "rb") as handle:
        return read_sbml(handle.read())


def _read_sbase(element: ET.Element, component) -> None:
    """Populate the attributes shared by all components."""
    component.id = element.get("id")
    component.name = element.get("name")
    component.metaid = element.get("metaid")
    component.sbo_term = element.get("sboTerm")
    notes = _child(element, "notes")
    if notes is not None:
        component.notes = "".join(notes.itertext()).strip() or None
    annotation = _child(element, "annotation")
    if annotation is not None:
        component.annotations = _read_annotations(annotation)


def _read_annotations(annotation: ET.Element) -> Dict[str, List[str]]:
    """Extract MIRIAM qualifier → resource URIs from an annotation."""
    table: Dict[str, List[str]] = {}
    for node in annotation.iter():
        namespace = node.tag.split("}", 1)[0].lstrip("{") if "}" in node.tag else ""
        if namespace in (_BQBIOL_NS, _BQMODEL_NS):
            qualifier = _local(node.tag)
            uris = table.setdefault(qualifier, [])
            for li in node.iter():
                resource = li.get(f"{{{_RDF_NS}}}resource") or li.get("resource")
                if resource:
                    uris.append(resource)
    return {qualifier: uris for qualifier, uris in table.items() if uris}


def _read_math(element: ET.Element, context: str):
    math_element = _child(element, "math")
    if math_element is None:
        return None
    try:
        return parse_math_element(math_element)
    except MathParseError as exc:
        raise SBMLParseError(f"bad math in {context}: {exc}") from exc


def _read_model(element: ET.Element) -> Model:
    model = Model()
    _read_sbase(element, model)

    for item in _list_of(element, "listOfFunctionDefinitions", "functionDefinition"):
        model.add_function_definition(_read_function_definition(item))
    for item in _list_of(element, "listOfUnitDefinitions", "unitDefinition"):
        model.add_unit_definition(_read_unit_definition(item))
    for item in _list_of(element, "listOfCompartmentTypes", "compartmentType"):
        component = CompartmentType()
        _read_sbase(item, component)
        model.add_compartment_type(component)
    for item in _list_of(element, "listOfSpeciesTypes", "speciesType"):
        component = SpeciesType()
        _read_sbase(item, component)
        model.add_species_type(component)
    for item in _list_of(element, "listOfCompartments", "compartment"):
        model.add_compartment(_read_compartment(item))
    for item in _list_of(element, "listOfSpecies", "species"):
        model.add_species(_read_species(item))
    for item in _list_of(element, "listOfParameters", "parameter"):
        model.add_parameter(_read_parameter(item))
    for item in _list_of(element, "listOfInitialAssignments", "initialAssignment"):
        model.add_initial_assignment(_read_initial_assignment(item))
    rules_container = _child(element, "listOfRules")
    if rules_container is not None:
        for item in rules_container:
            rule = _read_rule(item)
            if rule is not None:
                model.add_rule(rule)
    for item in _list_of(element, "listOfConstraints", "constraint"):
        model.add_constraint(_read_constraint(item))
    for item in _list_of(element, "listOfReactions", "reaction"):
        model.add_reaction(_read_reaction(item))
    for item in _list_of(element, "listOfEvents", "event"):
        model.add_event(_read_event(item))
    return model


def _read_function_definition(element: ET.Element) -> FunctionDefinition:
    component = FunctionDefinition()
    _read_sbase(element, component)
    math = _read_math(element, f"functionDefinition {component.id!r}")
    if math is not None and not isinstance(math, Lambda):
        raise SBMLParseError(
            f"functionDefinition {component.id!r} math must be a <lambda>"
        )
    component.math = math
    return component


def _read_unit_definition(element: ET.Element) -> UnitDefinition:
    definition = UnitDefinition(
        id=element.get("id"), name=element.get("name"), units=[]
    )
    for item in _list_of(element, "listOfUnits", "unit"):
        kind = item.get("kind")
        if kind is None:
            raise SBMLParseError(
                f"<unit> without kind in unitDefinition {definition.id!r}"
            )
        multiplier = _float(item, "multiplier")
        definition.units.append(
            Unit(
                kind=kind,
                exponent=_int(item, "exponent", 1),
                scale=_int(item, "scale", 0),
                multiplier=1.0 if multiplier is None else multiplier,
            )
        )
    return definition


def _read_compartment(element: ET.Element) -> Compartment:
    component = Compartment()
    _read_sbase(element, component)
    component.size = _float(element, "size")
    component.units = element.get("units")
    component.spatial_dimensions = _int(element, "spatialDimensions", 3)
    component.compartment_type = element.get("compartmentType")
    component.outside = element.get("outside")
    component.constant = _bool(element, "constant", True)
    return component


def _read_species(element: ET.Element) -> Species:
    component = Species()
    _read_sbase(element, component)
    component.compartment = element.get("compartment")
    component.initial_amount = _float(element, "initialAmount")
    component.initial_concentration = _float(element, "initialConcentration")
    component.substance_units = element.get("substanceUnits")
    component.has_only_substance_units = _bool(
        element, "hasOnlySubstanceUnits", False
    )
    component.boundary_condition = _bool(element, "boundaryCondition", False)
    component.constant = _bool(element, "constant", False)
    component.species_type = element.get("speciesType")
    component.charge = _int(element, "charge")
    return component


def _read_parameter(element: ET.Element) -> Parameter:
    component = Parameter()
    _read_sbase(element, component)
    component.value = _float(element, "value")
    component.units = element.get("units")
    component.constant = _bool(element, "constant", True)
    return component


def _read_initial_assignment(element: ET.Element) -> InitialAssignment:
    component = InitialAssignment()
    _read_sbase(element, component)
    component.symbol = element.get("symbol")
    if component.symbol is None:
        raise SBMLParseError("<initialAssignment> without symbol")
    component.math = _read_math(
        element, f"initialAssignment for {component.symbol!r}"
    )
    return component


def _read_rule(element: ET.Element):
    tag = _local(element.tag)
    if tag == "algebraicRule":
        rule = AlgebraicRule()
        _read_sbase(element, rule)
        rule.math = _read_math(element, "algebraicRule")
        return rule
    if tag in ("assignmentRule", "rateRule"):
        rule = AssignmentRule() if tag == "assignmentRule" else RateRule()
        _read_sbase(element, rule)
        variable = element.get("variable")
        if variable is None:
            raise SBMLParseError(f"<{tag}> without variable")
        rule.variable = variable
        rule.math = _read_math(element, f"{tag} for {variable!r}")
        return rule
    return None  # ignore unknown rule elements (annotations etc.)


def _read_constraint(element: ET.Element) -> Constraint:
    component = Constraint()
    _read_sbase(element, component)
    component.math = _read_math(element, "constraint")
    message = _child(element, "message")
    if message is not None:
        component.message = "".join(message.itertext()).strip() or None
    return component


def _read_species_reference(element: ET.Element) -> SpeciesReference:
    species = element.get("species")
    if species is None:
        raise SBMLParseError("<speciesReference> without species")
    stoichiometry = _float(element, "stoichiometry")
    return SpeciesReference(
        species=species,
        stoichiometry=1.0 if stoichiometry is None else stoichiometry,
    )


def _read_reaction(element: ET.Element) -> Reaction:
    component = Reaction()
    _read_sbase(element, component)
    component.reversible = _bool(element, "reversible", True)
    component.fast = _bool(element, "fast", False)
    for item in _list_of(element, "listOfReactants", "speciesReference"):
        component.reactants.append(_read_species_reference(item))
    for item in _list_of(element, "listOfProducts", "speciesReference"):
        component.products.append(_read_species_reference(item))
    for item in _list_of(element, "listOfModifiers", "modifierSpeciesReference"):
        species = item.get("species")
        if species is None:
            raise SBMLParseError("<modifierSpeciesReference> without species")
        component.modifiers.append(ModifierSpeciesReference(species))
    law_element = _child(element, "kineticLaw")
    if law_element is not None:
        law = KineticLaw()
        _read_sbase(law_element, law)
        law.math = _read_math(law_element, f"kineticLaw of {component.id!r}")
        for item in _list_of(law_element, "listOfParameters", "parameter"):
            law.parameters.append(_read_parameter(item))
        component.kinetic_law = law
    return component


def _read_event(element: ET.Element) -> Event:
    component = Event()
    _read_sbase(element, component)
    trigger_element = _child(element, "trigger")
    if trigger_element is not None:
        component.trigger = Trigger(
            _read_math(trigger_element, f"trigger of event {component.id!r}")
        )
    delay_element = _child(element, "delay")
    if delay_element is not None:
        component.delay = Delay(
            _read_math(delay_element, f"delay of event {component.id!r}")
        )
    for item in _list_of(element, "listOfEventAssignments", "eventAssignment"):
        variable = item.get("variable")
        if variable is None:
            raise SBMLParseError("<eventAssignment> without variable")
        component.assignments.append(
            EventAssignment(
                variable,
                _read_math(item, f"eventAssignment for {variable!r}"),
            )
        )
    return component
