"""Serialise :mod:`repro.mathml.ast` trees back to MathML 2.0.

The writer emits the same SBML-flavoured MathML subset the parser
accepts, so ``parse_mathml(write_mathml(node)) == node`` holds for
every tree the library constructs (a property test asserts this).

Text is emitted directly, with no intermediate element tree.  The
layout is ElementTree's ``tostring`` after ``indent``: attributes in
a fixed order, empty elements as ``<tag />``, ``& < >`` escaped in
text and ``& < > " \\r \\n \\t`` in attribute values.  The SBML
writer embeds the same output, so these bytes are part of every
model's content digest and must not change.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.mathml.ast import (
    Apply,
    Constant,
    Identifier,
    KNOWN_OPERATORS,
    Lambda,
    MathNode,
    Number,
    Piecewise,
)
from repro.mathml.parser import MATHML_NS

__all__ = ["write_mathml"]

_CSYMBOL_SYMBOLS = {
    "time": "http://www.sbml.org/sbml/symbols/time",
    "delay": "http://www.sbml.org/sbml/symbols/delay",
    "avogadro": "http://www.sbml.org/sbml/symbols/avogadro",
}

_TEXT_SPECIAL = re.compile(r"[&<>]").search
_ATTR_SPECIAL = re.compile(r'[&<>"\r\n\t]').search


def escape_text(text: str) -> str:
    """Escape character data the way ElementTree does."""
    if _TEXT_SPECIAL(text) is None:
        return text
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(value: str) -> str:
    """Escape an attribute value the way ElementTree does."""
    if _ATTR_SPECIAL(value) is None:
        return value
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("\r", "&#13;")
        .replace("\n", "&#10;")
        .replace("\t", "&#09;")
    )


_MATH_OPEN = f'<math xmlns="{escape_attribute(MATHML_NS)}">'


def write_mathml(node: MathNode, indent: Optional[str] = None) -> str:
    """Render ``node`` as a complete ``<math>`` document string."""
    out: List[str] = []
    if indent is None:
        write_math(node, out, "", "")
    else:
        write_math(node, out, "\n", indent)
    return "".join(out)


def write_math(node: MathNode, out: List[str], pad: str, step: str) -> None:
    """Append the ``<math>`` element for ``node`` to ``out``.

    ``pad`` is the whitespace written before this element's closing
    tag (a newline plus its indentation, or ``""`` for compact
    output); each child is written after ``pad + step``.  The caller
    writes whatever precedes the opening tag.
    """
    inner = pad + step
    out.append(_MATH_OPEN)
    out.append(inner)
    _write_node(node, out, inner, step)
    out.append(pad)
    out.append("</math>")


def _write_node(node: MathNode, out: List[str], pad: str, step: str) -> None:
    kind = type(node)
    if kind is Apply:
        _write_apply(node, out, pad, step)
    elif kind is Identifier:
        _write_identifier(node, out)
    elif kind is Number:
        _write_number(node, out)
    elif kind is Constant:
        out.append(f"<{node.name} />")
    elif kind is Piecewise:
        _write_piecewise(node, out, pad, step)
    elif kind is Lambda:
        _write_lambda(node, out, pad, step)
    else:
        raise TypeError(f"cannot serialise {kind.__name__}")


def _write_number(node: Number, out: List[str]) -> None:
    units = node.units
    if node.is_integer() and abs(node.value) < 1e15:
        head = '<cn type="integer"'
        text = str(int(node.value))
    else:
        head = "<cn"
        text = repr(node.value)
    if units is not None:
        head += f' units="{escape_attribute(units)}"'
    out.append(f"{head}>{text}</cn>")


def _write_identifier(node: Identifier, out: List[str]) -> None:
    name = node.name
    url = _CSYMBOL_SYMBOLS.get(name)
    if url is not None:
        out.append(f'<csymbol definitionURL="{url}">{name}</csymbol>')
    elif name:
        out.append(f"<ci>{escape_text(name)}</ci>")
    else:
        out.append("<ci />")


def _write_apply(node: Apply, out: List[str], pad: str, step: str) -> None:
    inner = pad + step
    op = node.op
    args = node.args
    if op == "root" or op == "log":
        # args are (degree or base, operand); a degree of 2 or a base
        # of 10 may be elided, but it is always written explicitly for
        # round-trip stability.
        qualifier = "degree" if op == "root" else "logbase"
        deeper = inner + step
        out.append(f"<apply>{inner}<{op} />{inner}<{qualifier}>{deeper}")
        _write_node(args[0], out, deeper, step)
        out.append(f"{inner}</{qualifier}>{inner}")
        _write_node(args[1], out, inner, step)
        out.append(f"{pad}</apply>")
        return
    if op in KNOWN_OPERATORS:
        out.append(f"<apply>{inner}<{op} />")
    elif op:
        out.append(f"<apply>{inner}<ci>{escape_text(op)}</ci>")
    else:
        out.append(f"<apply>{inner}<ci />")
    for arg in args:
        out.append(inner)
        _write_node(arg, out, inner, step)
    out.append(f"{pad}</apply>")


def _write_lambda(node: Lambda, out: List[str], pad: str, step: str) -> None:
    inner = pad + step
    deeper = inner + step
    out.append("<lambda>")
    for param in node.params:
        ci = f"<ci>{escape_text(param)}</ci>" if param else "<ci />"
        out.append(f"{inner}<bvar>{deeper}{ci}{inner}</bvar>")
    out.append(inner)
    _write_node(node.body, out, inner, step)
    out.append(f"{pad}</lambda>")


def _write_piecewise(
    node: Piecewise, out: List[str], pad: str, step: str
) -> None:
    if not node.pieces and node.otherwise is None:
        out.append("<piecewise />")
        return
    inner = pad + step
    deeper = inner + step
    out.append("<piecewise>")
    for value, condition in node.pieces:
        out.append(f"{inner}<piece>{deeper}")
        _write_node(value, out, deeper, step)
        out.append(deeper)
        _write_node(condition, out, deeper, step)
        out.append(f"{inner}</piece>")
    if node.otherwise is not None:
        out.append(f"{inner}<otherwise>{deeper}")
        _write_node(node.otherwise, out, deeper, step)
        out.append(f"{inner}</otherwise>")
    out.append(f"{pad}</piecewise>")
