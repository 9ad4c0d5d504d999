"""SBML semantic validation.

The paper's baseline (semanticSBML) "checks the semantic validity of
the models to be composed, to ensure only valid models are merged";
SBMLCompose relies on the same rules when detecting conflicting
components.  This module implements the checks both engines need:
reference integrity, id uniqueness, math binding, function-definition
sanity, unit-reference resolution and degenerate (zero-multiplier)
units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.errors import SBMLValidationError
from repro.mathml.ast import Apply, Identifier, KNOWN_OPERATORS, Lambda, MathNode
from repro.sbml.components import AssignmentRule, RateRule
from repro.sbml.model import Model
from repro.units.kinds import is_known_kind

__all__ = ["ValidationIssue", "validate_model", "assert_valid", "ERROR", "WARNING"]

ERROR = "error"
WARNING = "warning"

#: Symbols implicitly bound in every SBML math context.
_IMPLICIT_SYMBOLS = {"time", "delay", "avogadro"}


@dataclass(frozen=True)
class ValidationIssue:
    """One validation finding."""

    severity: str
    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}:{self.code}] {self.message}"


def validate_model(model: Model) -> List[ValidationIssue]:
    """Run every check; returns all findings (empty list == valid)."""
    issues: List[ValidationIssue] = []
    issues.extend(_check_global_id_uniqueness(model))
    issues.extend(_check_compartments(model))
    issues.extend(_check_species(model))
    issues.extend(_check_parameters_and_units(model))
    issues.extend(_check_function_definitions(model))
    issues.extend(_check_rules(model))
    issues.extend(_check_initial_assignments(model))
    issues.extend(_check_reactions(model))
    issues.extend(_check_events(model))
    return issues


def assert_valid(model: Model) -> None:
    """Raise :class:`SBMLValidationError` if any *error* is found."""
    errors = [
        issue for issue in validate_model(model) if issue.severity == ERROR
    ]
    if errors:
        raise SBMLValidationError(errors)


def _issue(code: str, message: str, severity: str = ERROR) -> ValidationIssue:
    return ValidationIssue(severity, code, message)


def _check_global_id_uniqueness(model: Model) -> List[ValidationIssue]:
    issues = []
    seen: Dict[str, str] = {}
    collections = [
        ("functionDefinition", model.function_definitions),
        ("compartmentType", model.compartment_types),
        ("speciesType", model.species_types),
        ("compartment", model.compartments),
        ("species", model.species),
        ("parameter", model.parameters),
        ("reaction", model.reactions),
        ("event", model.events),
    ]
    for kind, collection in collections:
        for component in collection:
            component_id = getattr(component, "id", None)
            if component_id is None:
                continue
            if component_id in seen:
                issues.append(
                    _issue(
                        "duplicate-id",
                        f"{kind} id {component_id!r} already used by a "
                        f"{seen[component_id]}",
                    )
                )
            else:
                seen[component_id] = kind
    # Unit definitions live in their own id namespace in our model but
    # must be unique among themselves.
    unit_ids: Set[str] = set()
    for ud in model.unit_definitions:
        if ud.id in unit_ids:
            issues.append(
                _issue("duplicate-id", f"duplicate unitDefinition id {ud.id!r}")
            )
        if ud.id is not None:
            unit_ids.add(ud.id)
    return issues


def _unit_ref_known(model: Model, ref: str) -> bool:
    if is_known_kind(ref):
        return True
    if any(ud.id == ref for ud in model.unit_definitions):
        return True
    return ref in ("substance", "volume", "area", "length", "time")


def _check_compartments(model: Model) -> List[ValidationIssue]:
    issues = []
    compartment_ids = {c.id for c in model.compartments}
    type_ids = {ct.id for ct in model.compartment_types}
    for compartment in model.compartments:
        where = f"compartment {compartment.id!r}"
        if compartment.compartment_type is not None and (
            compartment.compartment_type not in type_ids
        ):
            issues.append(
                _issue(
                    "unknown-compartment-type",
                    f"{where} references unknown compartmentType "
                    f"{compartment.compartment_type!r}",
                )
            )
        if compartment.outside is not None and (
            compartment.outside not in compartment_ids
        ):
            issues.append(
                _issue(
                    "unknown-outside",
                    f"{where} is outside unknown compartment "
                    f"{compartment.outside!r}",
                )
            )
        if compartment.size is not None and compartment.size < 0:
            issues.append(
                _issue("negative-size", f"{where} has negative size")
            )
        if compartment.units is not None and not _unit_ref_known(
            model, compartment.units
        ):
            issues.append(
                _issue(
                    "unknown-units",
                    f"{where} references unknown units {compartment.units!r}",
                )
            )
    return issues


def _check_species(model: Model) -> List[ValidationIssue]:
    issues = []
    compartment_ids = {c.id for c in model.compartments}
    type_ids = {st.id for st in model.species_types}
    for species in model.species:
        where = f"species {species.id!r}"
        if species.compartment is None:
            issues.append(
                _issue("missing-compartment", f"{where} has no compartment")
            )
        elif species.compartment not in compartment_ids:
            issues.append(
                _issue(
                    "unknown-compartment",
                    f"{where} lives in unknown compartment "
                    f"{species.compartment!r}",
                )
            )
        if species.species_type is not None and species.species_type not in type_ids:
            issues.append(
                _issue(
                    "unknown-species-type",
                    f"{where} references unknown speciesType "
                    f"{species.species_type!r}",
                )
            )
        if (
            species.initial_amount is not None
            and species.initial_concentration is not None
        ):
            issues.append(
                _issue(
                    "double-initial",
                    f"{where} sets both initialAmount and "
                    "initialConcentration",
                )
            )
        value = species.initial_value()
        if value is not None and value < 0:
            issues.append(
                _issue("negative-initial", f"{where} has negative initial value")
            )
        if species.substance_units is not None and not _unit_ref_known(
            model, species.substance_units
        ):
            issues.append(
                _issue(
                    "unknown-units",
                    f"{where} references unknown substanceUnits "
                    f"{species.substance_units!r}",
                )
            )
    return issues


def _check_parameters_and_units(model: Model) -> List[ValidationIssue]:
    issues = []
    for ud in model.unit_definitions:
        for unit in ud.units:
            if unit.multiplier == 0.0:
                # A zero factor denotes no quantity: no value converts
                # into it, and under a negative exponent it has no
                # canonical form at all.
                issues.append(
                    _issue(
                        "zero-multiplier",
                        f"unitDefinition {ud.id!r} has a {unit.kind!r} "
                        f"unit with multiplier 0",
                    )
                )
    for parameter in model.parameters:
        if parameter.units is not None and not _unit_ref_known(
            model, parameter.units
        ):
            issues.append(
                _issue(
                    "unknown-units",
                    f"parameter {parameter.id!r} references unknown units "
                    f"{parameter.units!r}",
                )
            )
    return issues


def _check_function_definitions(model: Model) -> List[ValidationIssue]:
    issues = []
    function_ids = {fd.id for fd in model.function_definitions if fd.id}
    for fd in model.function_definitions:
        where = f"functionDefinition {fd.id!r}"
        if fd.math is None:
            issues.append(_issue("missing-math", f"{where} has no math"))
            continue
        free = fd.math.free_identifiers() - _IMPLICIT_SYMBOLS
        if free:
            issues.append(
                _issue(
                    "unbound-in-function",
                    f"{where} body uses non-parameter identifier(s) "
                    f"{sorted(free)}",
                )
            )
        called = _called_functions(fd.math.body)
        if fd.id in called:
            issues.append(
                _issue("recursive-function", f"{where} calls itself")
            )
    # Cross-definition cycles (a calls b, b calls a).
    issues.extend(_check_function_cycles(model, function_ids))
    return issues


def _called_functions(math: MathNode) -> Set[str]:
    calls = set()
    for node in math.walk():
        if isinstance(node, Apply) and node.op not in KNOWN_OPERATORS:
            calls.add(node.op)
    return calls


def _check_function_cycles(model: Model, function_ids: Set[str]) -> List[ValidationIssue]:
    graph: Dict[str, Set[str]] = {}
    for fd in model.function_definitions:
        if fd.id and fd.math is not None:
            graph[fd.id] = _called_functions(fd.math.body) & function_ids

    issues = []
    visiting: Set[str] = set()
    visited: Set[str] = set()

    def visit(name: str) -> bool:
        if name in visiting:
            return True
        if name in visited:
            return False
        visiting.add(name)
        cyclic = any(visit(callee) for callee in graph.get(name, ()))
        visiting.discard(name)
        visited.add(name)
        return cyclic

    for name in graph:
        if name not in visited and visit(name):
            issues.append(
                _issue(
                    "recursive-function",
                    f"functionDefinition {name!r} is part of a call cycle",
                )
            )
    return issues


def _variable_targets(model: Model) -> Dict[str, object]:
    """Symbols a rule/assignment may determine."""
    table: Dict[str, object] = {}
    for species in model.species:
        if species.id:
            table[species.id] = species
    for parameter in model.parameters:
        if parameter.id:
            table[parameter.id] = parameter
    for compartment in model.compartments:
        if compartment.id:
            table[compartment.id] = compartment
    return table


def _check_rules(model: Model) -> List[ValidationIssue]:
    issues = []
    targets = _variable_targets(model)
    determined: Set[str] = set()
    for rule in model.rules:
        if rule.math is None:
            issues.append(
                _issue("missing-math", f"{type(rule).__name__} has no math")
            )
        if isinstance(rule, (AssignmentRule, RateRule)):
            variable = rule.variable
            if variable is None or variable not in targets:
                issues.append(
                    _issue(
                        "unknown-variable",
                        f"{type(rule).__name__} determines unknown "
                        f"variable {variable!r}",
                    )
                )
                continue
            if variable in determined:
                issues.append(
                    _issue(
                        "double-determined",
                        f"variable {variable!r} is determined by more "
                        "than one rule",
                    )
                )
            determined.add(variable)
        if rule.math is not None:
            issues.extend(
                _check_math_bindings(
                    model, rule.math, f"{type(rule).__name__}"
                )
            )
    return issues


def _check_initial_assignments(model: Model) -> List[ValidationIssue]:
    issues = []
    targets = _variable_targets(model)
    seen: Set[str] = set()
    for ia in model.initial_assignments:
        if ia.symbol not in targets:
            issues.append(
                _issue(
                    "unknown-symbol",
                    f"initialAssignment for unknown symbol {ia.symbol!r}",
                )
            )
        if ia.symbol in seen:
            issues.append(
                _issue(
                    "double-initial-assignment",
                    f"symbol {ia.symbol!r} has more than one "
                    "initialAssignment",
                )
            )
        if ia.symbol is not None:
            seen.add(ia.symbol)
        if ia.math is None:
            issues.append(
                _issue(
                    "missing-math",
                    f"initialAssignment for {ia.symbol!r} has no math",
                )
            )
        else:
            issues.extend(
                _check_math_bindings(
                    model, ia.math, f"initialAssignment for {ia.symbol!r}"
                )
            )
    return issues


def _check_math_bindings(
    model: Model,
    math: MathNode,
    context: str,
    extra_symbols: Set[str] = frozenset(),
) -> List[ValidationIssue]:
    issues = []
    known = set(model.global_ids()) | _IMPLICIT_SYMBOLS | set(extra_symbols)
    function_ids = {fd.id for fd in model.function_definitions if fd.id}
    bound_params: Set[str] = set()
    for node in math.walk():
        if isinstance(node, Lambda):
            bound_params.update(node.params)
    for node in math.walk():
        if isinstance(node, Identifier):
            if node.name not in known and node.name not in bound_params:
                issues.append(
                    _issue(
                        "unbound-identifier",
                        f"{context} references unknown identifier "
                        f"{node.name!r}",
                    )
                )
        elif isinstance(node, Apply) and node.op not in KNOWN_OPERATORS:
            if node.op not in function_ids:
                issues.append(
                    _issue(
                        "unknown-function",
                        f"{context} calls unknown function {node.op!r}",
                    )
                )
    return issues


def _check_reactions(model: Model) -> List[ValidationIssue]:
    issues = []
    species_ids = {s.id for s in model.species}
    for reaction in model.reactions:
        where = f"reaction {reaction.id!r}"
        if not reaction.reactants and not reaction.products:
            issues.append(
                _issue(
                    "empty-reaction",
                    f"{where} has neither reactants nor products",
                    WARNING,
                )
            )
        for reference in reaction.reactants + reaction.products:
            if reference.species not in species_ids:
                issues.append(
                    _issue(
                        "unknown-species",
                        f"{where} references unknown species "
                        f"{reference.species!r}",
                    )
                )
            if reference.stoichiometry <= 0:
                issues.append(
                    _issue(
                        "bad-stoichiometry",
                        f"{where} has non-positive stoichiometry for "
                        f"{reference.species!r}",
                    )
                )
        for modifier in reaction.modifiers:
            if modifier.species not in species_ids:
                issues.append(
                    _issue(
                        "unknown-species",
                        f"{where} modifier references unknown species "
                        f"{modifier.species!r}",
                    )
                )
        if reaction.kinetic_law is None:
            issues.append(
                _issue("missing-kinetic-law", f"{where} has no kinetic law", WARNING)
            )
        elif reaction.kinetic_law.math is None:
            issues.append(
                _issue(
                    "missing-math", f"{where} kinetic law has no math"
                )
            )
        else:
            local = {
                parameter.id
                for parameter in reaction.kinetic_law.parameters
                if parameter.id
            }
            issues.extend(
                _check_math_bindings(
                    model,
                    reaction.kinetic_law.math,
                    f"{where} kinetic law",
                    extra_symbols=local,
                )
            )
    return issues


def _check_events(model: Model) -> List[ValidationIssue]:
    issues = []
    targets = _variable_targets(model)
    for event in model.events:
        where = f"event {event.id!r}"
        if event.trigger is None or event.trigger.math is None:
            issues.append(
                _issue("missing-trigger", f"{where} has no trigger math")
            )
        else:
            issues.extend(
                _check_math_bindings(
                    model, event.trigger.math, f"{where} trigger"
                )
            )
        if event.delay is not None and event.delay.math is not None:
            issues.extend(
                _check_math_bindings(model, event.delay.math, f"{where} delay")
            )
        if not event.assignments:
            issues.append(
                _issue(
                    "empty-event",
                    f"{where} has no event assignments",
                    WARNING,
                )
            )
        for assignment in event.assignments:
            if assignment.variable not in targets:
                issues.append(
                    _issue(
                        "unknown-variable",
                        f"{where} assigns unknown variable "
                        f"{assignment.variable!r}",
                    )
                )
            if assignment.math is None:
                issues.append(
                    _issue(
                        "missing-math",
                        f"{where} assignment to {assignment.variable!r} "
                        "has no math",
                    )
                )
            else:
                issues.extend(
                    _check_math_bindings(
                        model,
                        assignment.math,
                        f"{where} assignment to {assignment.variable!r}",
                    )
                )
    return issues
