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
"""

from __future__ import annotations

import json
import string
from pathlib import Path

import numpy as np

from .derivation import DerivationSyntaxError, Symbol, format_derivation, parse_derivation
from .solver import Dataset, FitConfig, PrimitiveTable, Record, TreReport
from .space import (
    CodeShape,
    LinearComposition,
    Shape,
    VectorShape,
    as_representation,
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


def _dump_line(obj) -> str:
    return json.dumps(obj, separators=(", ", ": "))


def write_dataset(path: str | Path, dataset: Dataset,
                  alphabet: str | None = None) -> None:
    """Write a dataset file; hard one-hot code datasets use tokens form."""
    lines = dataset_to_lines(dataset, alphabet)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def dataset_to_lines(dataset: Dataset, alphabet: str | None = None) -> list[str]:
    shape = dataset.shape
    tokens_form = False
    if isinstance(shape, CodeShape):
        if alphabet is None:
            alphabet = default_alphabet(shape.vocab)
        if len(alphabet) != shape.vocab or len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet must contain vocab distinct characters")
        tokens_form = all(is_hard_code(r.representation) for r in dataset.records)
    lines = [_dump_line(_shape_header(shape, alphabet))]
    for rec in dataset.records:
        row = {"id": rec.id, "derivation": format_derivation(rec.derivation)}
        if tokens_form:
            row["tokens"] = decode_message(rec.representation, alphabet)
        else:
            row["repr"] = rec.representation.ravel().tolist()
        lines.append(_dump_line(row))
    return lines


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
    offending 1-based line number."""
    text = _read_text(path)
    raw_lines = [ln for ln in text.splitlines()]
    numbered = [(i + 1, ln) for i, ln in enumerate(raw_lines) if ln.strip()]
    if not numbered:
        raise DatasetFormatError(1, "empty dataset file")

    header_no, header_line = numbered[0]
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as e:
        raise DatasetFormatError(header_no, f"invalid JSON header: {e}") from None
    shape, alphabet = _parse_header(header_no, header)

    records: list[Record] = []
    seen_ids: set[str] = set()
    for line_no, line in numbered[1:]:
        records.append(_parse_record(line_no, line, shape, alphabet, seen_ids))
    if not records:
        raise DatasetFormatError(header_no, "dataset file has a header but no records")
    return Dataset(tuple(records), shape), alphabet


def _shape_header(shape: Shape, alphabet: str | None) -> dict:
    """The JSON header of ``shape``, as dataset files and reports write it;
    ``_parse_header`` reads it back."""
    if isinstance(shape, VectorShape):
        return {"dim": shape.dim}
    return {"length": shape.length, "vocab": shape.vocab,
            "alphabet": alphabet or default_alphabet(shape.vocab)}


def _parse_header(line_no: int, header) -> tuple[Shape, str | None]:
    # ``type(v) is int``, here and for 'repr': JSON true/false load as bools.
    if not isinstance(header, dict):
        raise DatasetFormatError(line_no, "header must be a JSON object")
    if "dim" in header:
        if set(header) != {"dim"}:
            raise DatasetFormatError(line_no, "vector header declares only 'dim'")
        dim = header["dim"]
        if type(dim) is not int or dim < 1:
            raise DatasetFormatError(line_no, "'dim' must be a positive integer")
        return VectorShape(dim), None
    if set(header) == {"length", "vocab", "alphabet"}:
        length, vocab, alphabet = header["length"], header["vocab"], header["alphabet"]
        if not (type(length) is int and length >= 1
                and type(vocab) is int and vocab >= 1):
            raise DatasetFormatError(
                line_no, "'length' and 'vocab' must be positive integers")
        if (not isinstance(alphabet, str) or len(alphabet) != vocab
                or len(set(alphabet)) != vocab):
            raise DatasetFormatError(
                line_no, "'alphabet' must be a string of vocab distinct characters")
        return CodeShape(length, vocab), alphabet
    raise DatasetFormatError(
        line_no, "header must declare either {dim} or {length, vocab, alphabet}")


def _parse_record(line_no: int, line: str, shape: Shape, alphabet: str | None,
                  seen_ids: set[str]) -> Record:
    def fail(message: str):
        raise DatasetFormatError(line_no, message)

    try:
        row = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"invalid JSON record: {e}")
    if not isinstance(row, dict):
        fail("record must be a JSON object")
    if not isinstance(row.get("id"), str) or not row["id"]:
        fail("record needs a non-empty string 'id'")
    rid = row["id"]
    if rid in seen_ids:
        fail(f"duplicate record id {rid!r}")
    seen_ids.add(rid)
    if not isinstance(row.get("derivation"), str):
        fail("record needs a 'derivation' string")
    try:
        deriv = parse_derivation(row["derivation"])
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
        return Record(rid, matrix, deriv)

    return Record(rid, _parse_values(line_no, row["repr"], shape, "'repr'"), deriv)


def _parse_values(line_no: int, values, shape: Shape, what: str) -> np.ndarray:
    """A flat JSON list of finite numbers as an array of ``shape``; ``what``
    names the list in the DatasetFormatError it raises otherwise."""
    expected = int(np.prod(shape.array_shape()))
    if (not isinstance(values, list)
            or not all(type(v) in (int, float) for v in values)):
        raise DatasetFormatError(line_no, f"{what} must be a flat list of numbers")
    if len(values) != expected:
        raise DatasetFormatError(
            line_no, f"{what} has {len(values)} values, expected {expected}")
    try:
        return as_representation(
            np.asarray(values, dtype=np.float64).reshape(shape.array_shape()))
    except (ValueError, OverflowError) as e:  # OverflowError: an int past float range
        raise DatasetFormatError(line_no, str(e)) from None


# -- fit reports ---------------------------------------------------------------


def config_echo(config: FitConfig, **extra) -> dict:
    comp = config.composition
    echo = {
        "distance": config.distance.kind,
        "composition": getattr(comp, "kind", "unknown"),
        "learn_composition": config.learn_composition,
        "learning_rate": config.learning_rate,
        "steps": config.steps,
        "seed": config.seed,
        "init_scale": config.init_scale,
        "convergence_tol": config.convergence_tol,
        "restarts": config.effective_restarts,
    }
    echo.update(extra)
    return echo


def report_to_dict(report: TreReport, config: FitConfig, shape: Shape,
                   alphabet: str | None = None, **config_extra) -> dict:
    out = {
        "config": config_echo(config, **config_extra),
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
    of the key at fault."""
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise DatasetFormatError(e.lineno, f"invalid JSON report: {e}") from None
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
