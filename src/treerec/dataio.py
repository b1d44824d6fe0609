"""Line-delimited dataset files and JSON fit reports.

A dataset file starts with one JSON header line declaring the representation
shape, either ``{"dim": D}`` or ``{"length": L, "vocab": V, "alphabet": S}``
where ``S`` is a string of V distinct characters mapping tokens to vocabulary
columns.  Every following line is one record::

    {"id": "...", "derivation": "(a b)", "repr": [..flat floats..]}
    {"id": "...", "derivation": "(a b)", "tokens": "jjjj"}

with exactly one of ``repr`` (row-major flattened values) or ``tokens`` (a
hard code, one character per position).  Floats are serialized with Python's
shortest round-trip representation, so re-reading a file reproduces values
bit-exactly.

``read_dataset`` parses each distinct derivation text of a file once and
hands its records to ``Dataset``, the one record check (duplicate ids,
finiteness); an error names the first faulty line all the same.
"""

from __future__ import annotations

import json
import math
import string
from pathlib import Path

import numpy as np

from .derivation import (Derivation, DerivationSyntaxError, Symbol, format_derivation,
                         parse_derivation)
from .solver import INIT_SCALE, Dataset, FitConfig, PrimitiveTable, Record, TreReport
from .space import (
    CodeShape,
    LinearComposition,
    Shape,
    VectorShape,
    decode_message,
    encode_message,
    is_hard_code,
)


class DatasetFormatError(ValueError):
    """Malformed dataset file; ``line`` is 1-based."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def default_alphabet(vocab: int) -> str:
    pool = string.ascii_lowercase + string.ascii_uppercase + string.digits
    if vocab > len(pool):
        raise ValueError(f"no default alphabet for vocab {vocab}; supply one")
    return pool[:vocab]


def _alphabet(alphabet, vocab: int) -> str:
    """``alphabet``, if it is a string of ``vocab`` distinct characters."""
    if not isinstance(alphabet, str) or len(alphabet) != vocab or len(set(alphabet)) != vocab:
        raise ValueError("alphabet must be a string of vocab distinct characters")
    return alphabet


def _dump_line(obj) -> str:
    return json.dumps(obj, separators=(", ", ": "))


def write_dataset(path: str | Path, dataset: Dataset,
                  alphabet: str | None = None) -> None:
    """Write a dataset file from its float64 values; hard one-hot codes use tokens form."""
    header, values = _shape_header(dataset.shape, alphabet), dataset._values
    tokens_form = isinstance(dataset.shape, CodeShape) and is_hard_code(
        values.reshape(-1, dataset.shape.vocab))
    lines = [_dump_line(header)]
    for rec, value in zip(dataset.records, values):
        row = {"id": rec.id, "derivation": format_derivation(rec.derivation)}
        if tokens_form:
            row["tokens"] = decode_message(value, header["alphabet"])
        else:
            row["repr"] = value.ravel().tolist()
        lines.append(_dump_line(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path``, newlines translated as ``Path.read_text``
    does; bytes that are not UTF-8 raise DatasetFormatError with their line.
    (UTF-8 multi-byte sequences never contain the bytes of CR or LF.)"""
    data = Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DatasetFormatError(data.count(b"\n", 0, e.start) + 1,
                                 f"not UTF-8: byte 0x{data[e.start]:02x}") from None


def read_dataset(path: str | Path) -> tuple[Dataset, str | None]:
    """Parse a dataset file; returns the dataset and the declared alphabet
    (None for vector-shaped data).  Raises DatasetFormatError with the
    first offending 1-based line number.  ``Dataset`` is the one record
    check: it checks the records parsed before the first parse fault."""
    text = _read_text(path)
    numbered = [(i + 1, ln) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    if not numbered:
        raise DatasetFormatError(1, "empty dataset file")

    header_no, header_line = numbered[0]
    shape, alphabet = _parse_header(header_no, _loads(header_line, header_no, "header"))
    rows = numbered[1:]
    if not rows:
        raise DatasetFormatError(header_no, "dataset file has a header but no records")

    # Row k holds record k's flat values; its representation is a view of it.
    values = np.empty((len(rows), math.prod(shape.array_shape())))
    records: list[Record] = []
    parsed: dict[str, Derivation] = {}
    fault = None
    try:
        for (line_no, line), out in zip(rows, values):
            records.append(_parse_record(line_no, line, shape, alphabet, parsed, out))
    except DatasetFormatError as e:
        fault = e
    # A fault ``Dataset`` finds lies on a line before the parse fault, if any.
    try:
        dataset = Dataset(records, shape) if records else None
    except ValueError as e:
        raise DatasetFormatError(rows[e.record][0], str(e)) from None
    if fault is not None:
        raise fault
    return dataset, alphabet


def _loads(text: str, line_no: int, what: str):
    """``text``, which starts on line ``line_no``, parsed as JSON.  Malformed
    JSON raises DatasetFormatError naming the line of the fault, and JSON
    nested too deeply for the parser's recursion naming ``line_no``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DatasetFormatError(line_no + e.lineno - 1, f"invalid JSON {what}: {e}") from None
    except RecursionError:
        raise DatasetFormatError(line_no, f"invalid JSON {what}: nested too deeply") from None


def _shape_header(shape: Shape, alphabet: str | None) -> dict:
    """The JSON header of ``shape``, as dataset files and reports write it;
    ``_parse_header`` reads it back.  Both check the alphabet with ``_alphabet``."""
    if isinstance(shape, VectorShape):
        return {"dim": shape.dim}
    return {"length": shape.length, "vocab": shape.vocab, "alphabet": _alphabet(
        default_alphabet(shape.vocab) if alphabet is None else alphabet, shape.vocab)}


def _parse_header(line_no: int, header) -> tuple[Shape, str | None]:
    keys = set(header) if isinstance(header, dict) else None
    try:
        if keys == {"dim"}:
            return VectorShape(header["dim"]), None
        if keys == {"length", "vocab", "alphabet"}:
            shape = CodeShape(header["length"], header["vocab"])
            return shape, _alphabet(header["alphabet"], shape.vocab)
    except ValueError as e:
        raise DatasetFormatError(line_no, str(e)) from None
    raise DatasetFormatError(
        line_no, "header must be a JSON object of either {dim} or {length, vocab, alphabet}")


def _parse_record(line_no: int, line: str, shape: Shape, alphabet: str | None,
                  parsed: dict[str, Derivation], out: np.ndarray) -> Record:
    """Parse one record line and write its flat values, not yet checked for
    finiteness, to ``out``; returns its record, whose representation is a
    view of ``out``.  ``parsed`` maps the derivation texts met so far to
    their derivations, so that each text is parsed once."""
    def fail(message: str):
        raise DatasetFormatError(line_no, message)

    row = _loads(line, line_no, "record")
    if not isinstance(row, dict):
        fail("record must be a JSON object")
    if not isinstance(row.get("id"), str) or not row["id"]:
        fail("record needs a non-empty string 'id'")
    text = row.get("derivation")
    if not isinstance(text, str):
        fail("record needs a 'derivation' string")
    deriv = parsed.get(text)
    if deriv is None:
        try:
            deriv = parsed[text] = parse_derivation(text)
        except DerivationSyntaxError as e:
            fail(f"bad derivation: {e}")

    has_repr = "repr" in row
    has_tokens = "tokens" in row
    if has_repr == has_tokens:
        fail("record needs exactly one of 'repr' or 'tokens'")
    if has_tokens:
        if not isinstance(shape, CodeShape):
            fail("'tokens' records require a {length, vocab, alphabet} header")
        tokens = row["tokens"]
        if not isinstance(tokens, str) or len(tokens) != shape.length:
            fail(f"'tokens' must be a string of length {shape.length}")
        try:
            matrix = encode_message(tokens, alphabet)
        except ValueError as e:
            fail(str(e))
        out[:] = matrix.ravel()
    else:
        _fill_values(line_no, row["repr"], out, "'repr'")
    return Record(row["id"], out.reshape(shape.array_shape()), deriv)


_NUMBER_TYPES = frozenset((int, float))  # not bool: JSON true/false load as bools


def _fill_values(line_no: int, values, out: np.ndarray, what: str) -> None:
    """Write a flat JSON list of numbers to the 1-d ``out``, whatever their
    finiteness; ``what`` names the list in the DatasetFormatError raised for
    anything else."""
    if not isinstance(values, list) or not _NUMBER_TYPES.issuperset(map(type, values)):
        raise DatasetFormatError(line_no, f"{what} must be a flat list of numbers")
    if len(values) != len(out):
        raise DatasetFormatError(
            line_no, f"{what} has {len(values)} values, expected {len(out)}")
    try:
        out[:] = values
    except OverflowError as e:  # an int past float range
        raise DatasetFormatError(line_no, str(e)) from None


def _parse_values(line_no: int, values, shape: Shape, what: str) -> np.ndarray:
    """A flat JSON list of finite numbers as an array of ``shape``; ``what``
    names the list in the DatasetFormatError it raises otherwise."""
    out = np.empty(math.prod(shape.array_shape()))
    _fill_values(line_no, values, out, what)
    if not np.isfinite(out).all():
        raise DatasetFormatError(line_no, "representation values must be finite")
    return out.reshape(shape.array_shape())


# -- fit reports ---------------------------------------------------------------


def report_to_dict(report: TreReport, config: FitConfig, shape: Shape,
                   alphabet: str | None = None, **config_extra) -> dict:
    out = {
        "config": {
            "distance": config.distance.kind,
            "composition": getattr(config.composition, "kind", "unknown"),
            "learn_composition": config.learn_composition,
            "learning_rate": config.learning_rate,
            "steps": config.steps,
            "seed": config.seed,
            "init_scale": INIT_SCALE,
            "convergence_tol": config.convergence_tol,
            "restarts": config.restarts,
            **config_extra,
        },
        "shape": _shape_header(shape, alphabet),
        "aggregate_tre": report.aggregate,
        "per_datum_tre": dict(report.per_datum),
        "primitives": {
            sym.name: value.ravel().tolist()
            for sym, value in report.table.entries.items()
        },
        "diagnostics": {
            "steps_run": report.steps_run,
            "final_objective": report.final_objective,
            "converged": report.converged,
            "messages": list(report.diagnostics),
        },
    }
    params = report.table.composition_params
    if params is not None:
        out["composition_params"] = {
            "left_weights": params.left_weights.tolist(),
            "right_weights": params.right_weights.tolist(),
        }
    return out


def render_report(report_dict: dict) -> str:
    return json.dumps(report_dict, indent=2) + "\n"


def write_report(path: str | Path, report_dict: dict) -> None:
    Path(path).write_text(render_report(report_dict), encoding="utf-8")


def _key_line(text: str, key: str, depth: int, start: int = 0) -> tuple[int, int]:
    """Line number and offset of the line where ``render_report`` writes
    ``key`` at nesting ``depth``, searching from ``start``; (1, 0) if absent."""
    at = text.find("\n" + "  " * depth + json.dumps(key) + ":", start) + 1
    return text.count("\n", 0, at) + 1, at


def load_report(path: str | Path) -> tuple[dict, PrimitiveTable, Shape]:
    """Re-ingest a report: parsed JSON plus the learned table, ready for
    re-evaluation against the original dataset.  Malformed JSON, shape,
    primitives or composition weights raise DatasetFormatError with the line
    of the key at fault; JSON nested too deeply to parse names line 1."""
    text = _read_text(path)
    data = _loads(text, 1, "report")
    if not isinstance(data, dict):
        raise DatasetFormatError(1, "report must be a JSON object")
    shape, _ = _parse_header(_key_line(text, "shape", 1)[0], data.get("shape"))
    # Primitive names are searched after the "primitives" key, as a record
    # id in "per_datum_tre" may have the same name.
    line, start = _key_line(text, "primitives", 1)
    primitives = data.get("primitives")
    if not isinstance(primitives, dict):
        raise DatasetFormatError(line, "report needs a 'primitives' object")
    entries = {}
    for name, values in primitives.items():
        line = _key_line(text, name, 2, start)[0]
        try:
            symbol = Symbol(name)
        except ValueError as e:
            raise DatasetFormatError(line, str(e)) from None
        entries[symbol] = _parse_values(line, values, shape, f"primitive {name!r}")
    params = None
    if "composition_params" in data:
        line, start = _key_line(text, "composition_params", 1)
        cp = data["composition_params"]
        keys = ("left_weights", "right_weights")
        if not isinstance(cp, dict) or not all(key in cp for key in keys):
            raise DatasetFormatError(
                line, "'composition_params' must be an object with 'left_weights' "
                      "and 'right_weights'")
        # Linear weights act on the leading axis of the representation.
        side = shape.array_shape()[0]
        weights = []
        for key in keys:
            line, rows = _key_line(text, key, 2, start)[0], cp[key]
            if not isinstance(rows, list) or len(rows) != side:
                raise DatasetFormatError(line, f"{key!r} must be a list of {side} rows")
            weights.append(np.stack([_parse_values(line, row, VectorShape(side),
                                                   f"row {i} of {key!r}")
                                     for i, row in enumerate(rows)]))
        params = LinearComposition(*weights)
    return data, PrimitiveTable(entries, params), shape
