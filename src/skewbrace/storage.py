"""JSON serialization for groups, braces and solutions.

Schemas (identity / labels are index 0 everywhere):
  group:    {"order": n, "table": [[...]]}
  brace:    {"order": n, "add": [[...]], "mul": [[...]]}   (optional "labels")
  solution: {"size": n, "lambda": [[...]], "rho": [[...]]}

The lambda table of a brace is never serialized; it is recomputed on load.
"""

from __future__ import annotations

import json

from .braces import SkewBrace, build_brace
from .errors import SchemaError
from .groups import FiniteGroup, _square_array, build_group
from .ybe import SetSolution, build_solution


def _require_matrix(doc: dict, field: str, size_field: str):
    """doc[field] as one n x n intp array, n = doc[size_field], whose entries
    were each an int, never a float, string or bool; the validators take the
    array without a second look at the entries.  Rows with an entry too large
    for an intp stay lists, for the validators to name it."""
    if field not in doc:
        raise SchemaError(field)
    rows = doc[field]
    if not isinstance(rows, list) or not rows:
        raise SchemaError(field, "expected a non-empty list of rows")
    n = doc.get(size_field)
    if type(n) is not int:    # a JSON true is no size
        raise SchemaError(size_field, "expected an integer")
    if len(rows) != n:
        raise SchemaError(field, f"expected {n} rows, found {len(rows)}")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(field, f"row {i} is not a list of length {n}")
        if set(map(type, row)) != {int}:    # no float, string or bool
            raise SchemaError(field, f"row {i} has a non-integer entry")
    arr = _square_array(rows)
    return rows if arr is None else arr


def _read_object(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SchemaError("document", "expected a JSON object")
    return doc


def load_group(path: str) -> FiniteGroup:
    return build_group(_require_matrix(_read_object(path), "table", "order"))


def _write_object(doc: dict, path: str) -> None:
    """Write doc as json.dump writes it, a line of text.  json.dumps runs the C
    encoder (json.dump runs the pure-Python one) on one row of each table,
    a tuple of rows, at a time, so the text of a whole table is never held."""
    with open(path, "w") as fh:
        sep = "{"
        for key, value in doc.items():
            fh.write(f"{sep}{json.dumps(key)}: ")
            if isinstance(value, tuple):
                for i, row in enumerate(value):
                    fh.write((", " if i else "[") + json.dumps(row))
                fh.write("]")
            else:
                fh.write(json.dumps(value))
            sep = ", "
        fh.write("}\n")


def save_group(G: FiniteGroup, path: str) -> None:
    _write_object({"order": G.order, "table": G.table}, path)


def load_brace(path: str) -> SkewBrace:
    doc = _read_object(path)
    add = _require_matrix(doc, "add", "order")
    mul = _require_matrix(doc, "mul", "order")
    return build_brace(add, mul)


def save_brace(B: SkewBrace, path: str, labels: list[str] | None = None) -> None:
    doc = {
        "order": B.order,
        "add": B.add.table,
        "mul": B.mul.table,
    }
    if labels is not None:
        doc["labels"] = list(labels)
    _write_object(doc, path)


def load_solution(path: str) -> SetSolution:
    doc = _read_object(path)
    lam = _require_matrix(doc, "lambda", "size")
    rho = _require_matrix(doc, "rho", "size")
    return build_solution(lam, rho)


def save_solution(S: SetSolution, path: str) -> None:
    _write_object({"size": S.size, "lambda": S.lambda_perms, "rho": S.rho_perms}, path)


def sniff_kind(path: str) -> str:
    """Classify an artifact file by its keys: group, brace or solution."""
    doc = _read_object(path)
    if "add" in doc and "mul" in doc:
        return "brace"
    if "table" in doc:
        return "group"
    if "lambda" in doc and "rho" in doc:
        return "solution"
    raise SchemaError("document", "unrecognized artifact: no known key set")
