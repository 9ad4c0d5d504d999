"""SBML XML writer.

Serialises the object model back to SBML Level 2 Version 4.  Output is
deterministic (attribute and component order is fixed) so that the
structural diff in :mod:`repro.eval.sbml_diff` and the paper-style
textual comparison (§4.1.1) are stable across runs.

The text is also the model's content address: :func:`~repro.core.artifact_store.model_digest`
hashes it, so every store entry, index posting and recorded benchmark
reference depends on these exact bytes.  The writer emits them
directly, with no intermediate element tree, in the layout of
ElementTree's ``tostring`` after ``indent`` with two spaces:

* one element per line, children two spaces deeper than their parent;
* attributes in a fixed order, empty elements as ``<tag />``;
* namespace declarations on the root, sorted by prefix — ``html`` for
  XHTML notes, ``rdf`` for RDF, and ``ns<N>`` for the biology
  qualifiers, where ``N`` counts the namespaces met before them in
  document order;
* escaping as in :mod:`repro.mathml.writer`.

The XML declaration always names ``utf-8``, the encoding
:func:`write_sbml_file` writes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro._gc import gc_paused
from repro.mathml.writer import escape_attribute, escape_text, write_math
from repro.sbml.components import (
    AlgebraicRule,
    AssignmentRule,
    Compartment,
    Constraint,
    Event,
    EventAssignment,
    FunctionDefinition,
    InitialAssignment,
    Parameter,
    RateRule,
    Reaction,
    SBase,
    Species,
    SpeciesReference,
)
from repro.sbml.model import Document, Model
from repro.sbml.reader import SBML_L2V4_NS
from repro.units.definitions import UnitDefinition

__all__ = ["write_sbml", "write_sbml_file"]

_RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_BQBIOL_NS = "http://biomodels.net/biology-qualifiers/"
_XHTML_NS = "http://www.w3.org/1999/xhtml"

#: Prefixes with a fixed name; any other namespace is ``ns<N>``.
_KNOWN_PREFIXES = {_XHTML_NS: "html", _RDF_NS: "rdf"}

_XML_DECLARATION = "<?xml version='1.0' encoding='utf-8'?>\n"
_STEP = "  "


@gc_paused
def write_sbml(document_or_model) -> str:
    """Serialise a :class:`Document` (or bare :class:`Model`) to XML."""
    if isinstance(document_or_model, Model):
        document = Document(model=document_or_model)
    else:
        document = document_or_model
    writer = _Writer()
    writer.model(document.model, "\n" + _STEP)
    declarations = "".join(
        f' xmlns:{prefix}="{escape_attribute(uri)}"'
        for prefix, uri in sorted(
            (prefix, uri) for uri, prefix in writer.prefixes.items()
        )
    )
    return (
        f"{_XML_DECLARATION}<sbml{declarations}"
        f' xmlns="{SBML_L2V4_NS}"'
        f' level="{escape_attribute(str(document.level))}"'
        f' version="{escape_attribute(str(document.version))}">'
        + "".join(writer.out)
        + "\n</sbml>"
    )


def write_sbml_file(document_or_model, path) -> None:
    """Serialise to a file."""
    text = write_sbml(document_or_model)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _attr(name: str, value) -> str:
    return f' {name}="{escape_attribute(value)}"'


def _sbase_attrs(component: SBase) -> str:
    text = ""
    if component.id is not None:
        text += _attr("id", component.id)
    if component.name is not None:
        text += _attr("name", component.name)
    if component.metaid is not None:
        text += _attr("metaid", component.metaid)
    if component.sbo_term is not None:
        text += _attr("sboTerm", component.sbo_term)
    return text


class _Writer:
    """Accumulates one document's text in ``out``.

    Every ``pad`` argument is the newline and indentation written
    before the element it belongs to (and before its closing tag).
    """

    __slots__ = ("out", "prefixes")

    def __init__(self):
        self.out: List[str] = []
        #: namespace URI -> prefix, in order of first use.
        self.prefixes: Dict[str, str] = {}

    def qname(self, uri: str, local: str) -> str:
        prefix = self.prefixes.get(uri)
        if prefix is None:
            prefix = _KNOWN_PREFIXES.get(uri) or f"ns{len(self.prefixes)}"
            self.prefixes[uri] = prefix
        return f"{prefix}:{local}"

    def open(self, pad: str, start: str) -> int:
        """Write ``pad<start``; the tag is finished by :meth:`close`."""
        out = self.out
        out.append(f"{pad}<{start}")
        out.append("")
        return len(out)

    def close(self, mark: int, pad: str, tag: str) -> None:
        out = self.out
        if len(out) == mark:
            out[mark - 1] = " />"
        else:
            out[mark - 1] = ">"
            out.append(f"{pad}</{tag}>")

    def element(self, pad: str, tag: str, start: str, component: SBase) -> None:
        """An element whose only children are ``component``'s notes
        and annotation; ``start`` is the tag with its attributes."""
        if not component.notes and not component.annotations:
            self.out.append(f"{pad}<{start} />")
            return
        self.out.append(f"{pad}<{start}>")
        self.sbase_children(component, pad + _STEP)
        self.out.append(f"{pad}</{tag}>")

    def math(self, math, pad: str) -> None:
        if math is not None:
            self.out.append(pad)
            write_math(math, self.out, pad, _STEP)

    def paragraph(self, tag: str, text: str, pad: str) -> None:
        """``<tag>`` holding one XHTML paragraph: notes and messages."""
        p = self.qname(_XHTML_NS, "p")
        self.out.append(
            f"{pad}<{tag}>{pad}{_STEP}<{p}>{escape_text(text)}</{p}>{pad}</{tag}>"
        )

    def sbase_children(self, component: SBase, pad: str) -> None:
        if component.notes:
            self.paragraph("notes", component.notes, pad)
        if component.annotations:
            self.annotation(component, pad)

    def annotation(self, component: SBase, pad: str) -> None:
        out = self.out
        rdf_pad = pad + _STEP
        description_pad = rdf_pad + _STEP
        qualifier_pad = description_pad + _STEP
        bag_pad = qualifier_pad + _STEP
        li_pad = bag_pad + _STEP
        rdf = self.qname(_RDF_NS, "RDF")
        description = self.qname(_RDF_NS, "Description")
        about = self.qname(_RDF_NS, "about")
        target = component.metaid or component.id or ""
        out.append(
            f"{pad}<annotation>{rdf_pad}<{rdf}>"
            f"{description_pad}<{description}{_attr(about, '#' + target)}>"
        )
        for qualifier in sorted(component.annotations):
            tag = self.qname(_BQBIOL_NS, qualifier)
            bag = self.qname(_RDF_NS, "Bag")
            uris = component.annotations[qualifier]
            out.append(f"{qualifier_pad}<{tag}>")
            if uris:
                li = self.qname(_RDF_NS, "li")
                resource = self.qname(_RDF_NS, "resource")
                out.append(f"{bag_pad}<{bag}>")
                for uri in uris:
                    out.append(f"{li_pad}<{li}{_attr(resource, uri)} />")
                out.append(f"{bag_pad}</{bag}>")
            else:
                out.append(f"{bag_pad}<{bag} />")
            out.append(f"{qualifier_pad}</{tag}>")
        out.append(
            f"{description_pad}</{description}>{rdf_pad}</{rdf}>{pad}</annotation>"
        )

    def listing(
        self, pad: str, tag: str, items: Sequence, write: Callable
    ) -> None:
        if not items:
            return
        item_pad = pad + _STEP
        self.out.append(f"{pad}<{tag}>")
        for item in items:
            write(item, item_pad)
        self.out.append(f"{pad}</{tag}>")

    def sbase_only(self, tag: str) -> Callable:
        def write(component: SBase, pad: str) -> None:
            self.element(pad, tag, tag + _sbase_attrs(component), component)

        return write

    # -- the model -----------------------------------------------------------

    def model(self, model: Model, pad: str) -> None:
        inner = pad + _STEP
        mark = self.open(pad, "model" + _sbase_attrs(model))
        self.sbase_children(model, inner)
        for tag, items, write in (
            (
                "listOfFunctionDefinitions",
                model.function_definitions,
                self.function_definition,
            ),
            ("listOfUnitDefinitions", model.unit_definitions, self.unit_definition),
            (
                "listOfCompartmentTypes",
                model.compartment_types,
                self.sbase_only("compartmentType"),
            ),
            (
                "listOfSpeciesTypes",
                model.species_types,
                self.sbase_only("speciesType"),
            ),
            ("listOfCompartments", model.compartments, self.compartment),
            ("listOfSpecies", model.species, self.species),
            ("listOfParameters", model.parameters, self.parameter),
            (
                "listOfInitialAssignments",
                model.initial_assignments,
                self.initial_assignment,
            ),
            ("listOfRules", model.rules, self.rule),
            ("listOfConstraints", model.constraints, self.constraint),
            ("listOfReactions", model.reactions, self.reaction),
            ("listOfEvents", model.events, self.event),
        ):
            self.listing(inner, tag, items, write)
        self.close(mark, pad, "model")

    def function_definition(self, fd: FunctionDefinition, pad: str) -> None:
        inner = pad + _STEP
        mark = self.open(pad, "functionDefinition" + _sbase_attrs(fd))
        self.sbase_children(fd, inner)
        self.math(fd.math, inner)
        self.close(mark, pad, "functionDefinition")

    def unit_definition(self, ud: UnitDefinition, pad: str) -> None:
        start = "unitDefinition"
        if ud.id is not None:
            start += _attr("id", ud.id)
        if ud.name is not None:
            start += _attr("name", ud.name)
        if not ud.units:
            self.out.append(f"{pad}<{start} />")
            return
        inner = pad + _STEP
        unit_pad = inner + _STEP
        out = self.out
        out.append(f"{pad}<{start}>{inner}<listOfUnits>")
        for unit in ud.units:
            text = "unit" + _attr("kind", unit.kind)
            if unit.exponent != 1:
                text += _attr("exponent", str(unit.exponent))
            if unit.scale != 0:
                text += _attr("scale", str(unit.scale))
            if unit.multiplier != 1.0:
                text += _attr("multiplier", repr(unit.multiplier))
            out.append(f"{unit_pad}<{text} />")
        out.append(f"{inner}</listOfUnits>{pad}</unitDefinition>")

    def compartment(self, compartment: Compartment, pad: str) -> None:
        start = "compartment" + _sbase_attrs(compartment)
        if compartment.size is not None:
            start += _attr("size", repr(compartment.size))
        if compartment.units is not None:
            start += _attr("units", compartment.units)
        if compartment.spatial_dimensions != 3:
            start += _attr(
                "spatialDimensions", str(compartment.spatial_dimensions)
            )
        if compartment.compartment_type is not None:
            start += _attr("compartmentType", compartment.compartment_type)
        if compartment.outside is not None:
            start += _attr("outside", compartment.outside)
        if not compartment.constant:
            start += ' constant="false"'
        self.element(pad, "compartment", start, compartment)

    def species(self, species: Species, pad: str) -> None:
        start = "species" + _sbase_attrs(species)
        if species.compartment is not None:
            start += _attr("compartment", species.compartment)
        if species.initial_amount is not None:
            start += _attr("initialAmount", repr(species.initial_amount))
        if species.initial_concentration is not None:
            start += _attr(
                "initialConcentration", repr(species.initial_concentration)
            )
        if species.substance_units is not None:
            start += _attr("substanceUnits", species.substance_units)
        if species.has_only_substance_units:
            start += ' hasOnlySubstanceUnits="true"'
        if species.boundary_condition:
            start += ' boundaryCondition="true"'
        if species.constant:
            start += ' constant="true"'
        if species.species_type is not None:
            start += _attr("speciesType", species.species_type)
        if species.charge is not None:
            start += _attr("charge", str(species.charge))
        self.element(pad, "species", start, species)

    def parameter(self, parameter: Parameter, pad: str) -> None:
        start = "parameter" + _sbase_attrs(parameter)
        if parameter.value is not None:
            start += _attr("value", repr(parameter.value))
        if parameter.units is not None:
            start += _attr("units", parameter.units)
        if not parameter.constant:
            start += ' constant="false"'
        self.element(pad, "parameter", start, parameter)

    def initial_assignment(self, ia: InitialAssignment, pad: str) -> None:
        inner = pad + _STEP
        start = (
            "initialAssignment" + _sbase_attrs(ia) + _attr("symbol", ia.symbol or "")
        )
        mark = self.open(pad, start)
        self.sbase_children(ia, inner)
        self.math(ia.math, inner)
        self.close(mark, pad, "initialAssignment")

    def rule(self, rule, pad: str) -> None:
        if isinstance(rule, AssignmentRule):
            tag = "assignmentRule"
            start = tag + _attr("variable", rule.variable or "")
        elif isinstance(rule, RateRule):
            tag = "rateRule"
            start = tag + _attr("variable", rule.variable or "")
        elif isinstance(rule, AlgebraicRule):
            tag = start = "algebraicRule"
        else:
            raise TypeError(f"unknown rule type {type(rule).__name__}")
        inner = pad + _STEP
        mark = self.open(pad, start + _sbase_attrs(rule))
        self.sbase_children(rule, inner)
        self.math(rule.math, inner)
        self.close(mark, pad, tag)

    def constraint(self, constraint: Constraint, pad: str) -> None:
        inner = pad + _STEP
        mark = self.open(pad, "constraint" + _sbase_attrs(constraint))
        self.sbase_children(constraint, inner)
        self.math(constraint.math, inner)
        if constraint.message:
            self.paragraph("message", constraint.message, inner)
        self.close(mark, pad, "constraint")

    def reaction(self, reaction: Reaction, pad: str) -> None:
        inner = pad + _STEP
        start = "reaction" + _sbase_attrs(reaction)
        if not reaction.reversible:
            start += ' reversible="false"'
        if reaction.fast:
            start += ' fast="true"'
        mark = self.open(pad, start)
        self.sbase_children(reaction, inner)
        self.listing(
            inner, "listOfReactants", reaction.reactants, self.species_reference
        )
        self.listing(
            inner, "listOfProducts", reaction.products, self.species_reference
        )
        self.listing(inner, "listOfModifiers", reaction.modifiers, self.modifier)
        law = reaction.kinetic_law
        if law is not None:
            law_inner = inner + _STEP
            law_mark = self.open(inner, "kineticLaw" + _sbase_attrs(law))
            self.sbase_children(law, law_inner)
            self.math(law.math, law_inner)
            self.listing(
                law_inner, "listOfParameters", law.parameters, self.parameter
            )
            self.close(law_mark, inner, "kineticLaw")
        self.close(mark, pad, "reaction")

    def species_reference(self, reference: SpeciesReference, pad: str) -> None:
        text = "speciesReference" + _attr("species", reference.species)
        if reference.stoichiometry != 1.0:
            text += _attr("stoichiometry", repr(reference.stoichiometry))
        self.out.append(f"{pad}<{text} />")

    def modifier(self, modifier, pad: str) -> None:
        self.out.append(
            f"{pad}<modifierSpeciesReference{_attr('species', modifier.species)} />"
        )

    def event(self, event: Event, pad: str) -> None:
        inner = pad + _STEP
        mark = self.open(pad, "event" + _sbase_attrs(event))
        self.sbase_children(event, inner)
        for tag, part in (("trigger", event.trigger), ("delay", event.delay)):
            if part is None:
                continue
            if part.math is None:
                self.out.append(f"{inner}<{tag} />")
            else:
                self.out.append(f"{inner}<{tag}>")
                self.math(part.math, inner + _STEP)
                self.out.append(f"{inner}</{tag}>")
        self.listing(
            inner,
            "listOfEventAssignments",
            event.assignments,
            self.event_assignment,
        )
        self.close(mark, pad, "event")

    def event_assignment(self, assignment: EventAssignment, pad: str) -> None:
        start = "eventAssignment" + _attr("variable", assignment.variable)
        mark = self.open(pad, start)
        self.math(assignment.math, pad + _STEP)
        self.close(mark, pad, "eventAssignment")
