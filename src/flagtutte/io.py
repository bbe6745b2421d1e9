"""Reading matroid and flag-matroid inputs from JSON files or inline text.

Accepted documents (UTF-8 JSON):

    {"type": "uniform", "r": R, "n": N}
    {"type": "bases", "n": N, "bases": [[1, 2], [1, 3], ...]}
    {"type": "matrix", "rows": [["1", "0", "1/2"], ...]}
    {"type": "graphic", "vertices": V, "edges": [[1, 2], [2, 3], ...]}
    {"type": "flag", "constituents": [<matroid>, ...]}

Elements are 1-indexed; matrix entries are rationals written as integers or
"p/q" strings.  Ranks, sizes, elements and vertex labels must be integers:
a boolean or a fractional number is refused, not truncated.
"""

import json
import os
from fractions import Fraction

from .errors import ParseError
from .matroid import FlagMatroid, Matroid, _bits


def _entry(value):
    if isinstance(value, bool):
        raise ParseError("matrix entries must be rationals, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError("bad rational %r: %s" % (value, exc)) from None
    raise ParseError("bad matrix entry %r (use integers or 'p/q' strings)"
                     % (value,))


def _integer(value):
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ParseError("expected an integer, got %s" % json.dumps(value))
    return int(value)


def matroid_from_dict(doc):
    """Build a Matroid from one parsed JSON document."""
    if not isinstance(doc, dict):
        raise ParseError("matroid document must be a JSON object")
    kind = doc.get("type")
    try:
        if kind == "uniform":
            return Matroid.uniform(_integer(doc["r"]), _integer(doc["n"]))
        if kind == "bases":
            bases = [tuple(map(_integer, b)) for b in doc["bases"]]
            return Matroid.from_bases(_integer(doc["n"]), bases)
        if kind == "matrix":
            rows = [[_entry(x) for x in row] for row in doc["rows"]]
            return Matroid.from_matrix(rows)
        if kind == "graphic":
            edges = [(_integer(u), _integer(v)) for u, v in doc["edges"]]
            vertices = doc.get("vertices")
            return Matroid.graphic(edges, n_vertices=None if vertices is None
                                   else _integer(vertices))
    except KeyError as exc:
        raise ParseError("matroid document of type %r is missing field %s"
                         % (kind, exc)) from None
    except (TypeError, ValueError) as exc:
        raise ParseError("malformed %r document: %s" % (kind, exc)) from None
    raise ParseError("unknown matroid type %r (expected uniform, bases, "
                     "matrix, graphic or flag)" % (kind,))


def object_from_dict(doc):
    """Build a Matroid or FlagMatroid from one parsed JSON document."""
    if isinstance(doc, dict) and doc.get("type") == "flag":
        cons = doc.get("constituents")
        if not isinstance(cons, list) or not cons:
            raise ParseError("flag document needs a nonempty constituents "
                             "list")
        return FlagMatroid(tuple(matroid_from_dict(c) for c in cons))
    return matroid_from_dict(doc)


def load_input(spec):
    """Resolve an --input value: inline JSON if it looks like a document,
    otherwise a path to a JSON file."""
    text = spec.strip()
    if text.startswith("{") or text.startswith("["):
        source = "inline input"
    else:
        if not os.path.exists(spec):
            raise ParseError("input file %r does not exist" % spec)
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError("cannot read %r: %s" % (spec, exc)) from None
        source = spec
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("%s: invalid JSON at line %d column %d: %s"
                         % (source, exc.lineno, exc.colno, exc.msg)) from None
    if isinstance(doc, list):
        return [object_from_dict(d) for d in doc]
    return object_from_dict(doc)


def object_to_dict(obj):
    """Serialize a Matroid or FlagMatroid back to the bases-list schema."""
    if isinstance(obj, FlagMatroid):
        return {"type": "flag",
                "constituents": [object_to_dict(m) for m in obj.constituents]}
    return {"type": "bases", "n": obj.n,
            "bases": [[i + 1 for i in _bits(b)]
                      for b in sorted(obj.bases_masks)]}
