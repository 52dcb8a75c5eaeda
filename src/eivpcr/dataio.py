"""File ingest and artifact persistence: masked CSV matrices, panel
tables, model JSON, and experiment report files.

All real numbers are serialized as shortest-round-trip decimals (17
significant digits when needed), so write->read returns bit-identical
floats. Parsing uses the C locale's decimal point regardless of the
environment.

Cell grammar of the CSV readers. The ``csv`` module splits the text into
rows and fields (its default dialect: comma delimiter, double-quote
quoting, ``\n``, ``\r\n`` or ``\r`` line ends, and a blank line is a row
with no fields). Each field is stripped of surrounding whitespace. A field
equal to ``NA``, ``nan`` or the empty string is missing; any other field
must be accepted by Python's ``float()`` (so ``1_000``, ``1e-320`` and
non-ASCII decimal digits are numbers) and be finite. An error names the
first ragged row or bad cell in file order.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import chain, compress, islice
from pathlib import Path

import numpy as np

from .core import MaskedMatrix
from .errors import BadParam, CorruptModel, ParseError, Ragged, SchemaMismatch, UnknownUnit
from .pcr import PcrModel, _rank
from .synthetic_control import PanelDataset

MODEL_SCHEMA_VERSION = 1

_NA_OUT = "NA"
_NA_TOKENS = frozenset(("NA", "nan", ""))  # stripped fields read as missing

# Cells parsed per block: small enough that a block's strings stay in cache
# between the passes over them, large enough that per-block costs vanish.
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class CsvMatrixSpec:
    """A numeric table's path and whether its first row holds column
    labels; its cells follow the module's grammar (commas, NA tokens)."""

    path: str | Path
    has_header: bool = False


def read_masked_csv(spec: CsvMatrixSpec) -> MaskedMatrix:
    """Parse a rectangular CSV into observed values and a mask.

    Cells equal to ``NA``, ``nan`` or "" (after stripping whitespace) are
    missing; every other cell must parse as a finite float. Row and column
    positions in errors are 1-based and count data rows only.
    """
    try:
        labels, blocks = _read_blocks(spec)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{spec.path}: not valid {exc.encoding} text ({exc.reason})") from None
    values, mask = (np.concatenate(parts) for parts in zip(*blocks))
    return MaskedMatrix(values=values, mask=mask, col_labels=labels)


def _read_blocks(spec: CsvMatrixSpec):
    """Header labels (or None) and the parsed blocks of data rows."""
    with open(spec.path, newline="") as f:
        reader = csv.reader(f)
        labels = None
        if spec.has_header:
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{spec.path}: empty file, expected a header row")
            labels = tuple(tok.strip() for tok in header)
        first = next(reader, None)
        if first is None:
            raise ParseError(f"{spec.path}: no data rows")
        width = len(first)
        if labels is not None and len(labels) != width:
            raise Ragged(
                f"{spec.path}: header has {len(labels)} fields, first data row has {width}"
            )
        reader = chain([first], reader)
        block_rows = max(1, _BLOCK_CELLS // max(width, 1))
        blocks = []
        while rows := list(islice(reader, block_rows)):
            blocks.append(_parse_block(spec, rows, width, first_row=1 + len(blocks) * block_rows))
    return labels, blocks


def _parse_block(spec: CsvMatrixSpec, rows: list, width: int, first_row: int):
    """Values (NaN where missing) and mask of consecutive data rows, each
    step one pass over the whole block."""
    if set(map(len, rows)) != {width}:
        _raise_first_bad_cell(spec, rows, width, first_row)
    tokens = list(map(str.strip, chain.from_iterable(rows)))
    mask = ~np.fromiter(map(_NA_TOKENS.__contains__, tokens), dtype=bool, count=len(tokens))
    try:
        # the mask's bytes are 0/1 selectors, one per token in file order
        observed = np.array(list(compress(tokens, mask.tobytes())), dtype=float)
    except ValueError:
        _raise_first_bad_cell(spec, rows, width, first_row)
        raise
    if not np.isfinite(observed).all():
        _raise_first_bad_cell(spec, rows, width, first_row)
    values = np.full(len(tokens), np.nan)
    values[mask] = observed
    shape = (len(rows), width)
    return values.reshape(shape), mask.reshape(shape)


def _raise_first_bad_cell(spec: CsvMatrixSpec, rows: list, width: int, first_row: int) -> None:
    """Raise the error for the first ragged row or bad cell in file order.

    Runs only after a block-level check has failed, to name the culprit.
    """
    for i, row in enumerate(rows, first_row):
        if len(row) != width:
            raise Ragged(f"{spec.path}: row {i} has {len(row)} fields, expected {width}")
        for j, tok in enumerate(row, 1):
            tok = tok.strip()
            if tok in _NA_TOKENS:
                continue
            try:
                x = float(tok)
            except ValueError:
                raise ParseError(
                    f"{spec.path}: unreadable number {tok!r} at row {i}, column {j}",
                    row=i,
                    col=j,
                ) from None
            if not math.isfinite(x):
                raise ParseError(
                    f"{spec.path}: non-finite value {tok!r} at row {i}, column {j}",
                    row=i,
                    col=j,
                )


def write_masked_csv(matrix: MaskedMatrix, path) -> None:
    """Inverse of :func:`read_masked_csv`; missing cells become "NA"."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        if matrix.col_labels is not None:
            writer.writerow(matrix.col_labels)
        for vals, obs in zip(matrix.values, matrix.mask):
            writer.writerow(
                [_fmt(v) if o else _NA_OUT for v, o in zip(vals, obs)]
            )


def read_response_csv(spec: CsvMatrixSpec) -> np.ndarray:
    """A fully observed single-column (or single-row) table as a vector."""
    m = read_masked_csv(spec)
    if m.cols != 1 and m.rows != 1:
        raise BadParam(
            f"{spec.path}: response must be a single column or row, got {m.rows}x{m.cols}"
        )
    if not m.mask.all():
        raise BadParam(f"{spec.path}: response vector has missing entries")
    return m.values.ravel().copy()


def read_panel_csv(spec: CsvMatrixSpec, target, pre_periods: int) -> PanelDataset:
    """Read a time-by-unit outcome table and split it at ``pre_periods``.

    ``target`` is a unit (column) name when the table has a header, or a
    0-based integer column index; numeric strings fall back to index
    lookup. A name that labels more than one column raises UnknownUnit. A
    non-integer index or ``pre_periods`` raises BadParam.
    """
    outcomes = read_masked_csv(spec)
    idx = _resolve_unit(target, outcomes.col_labels, outcomes.cols)
    pre = _rank(pre_periods, "pre_periods")
    if not 1 <= pre < outcomes.rows:
        raise BadParam(
            f"pre_periods={pre} outside [1, {outcomes.rows - 1}] for {outcomes.rows} rows"
        )
    return PanelDataset(
        outcomes=outcomes,
        target_col=idx,
        pre_periods=pre,
    )


def _resolve_unit(target, labels, cols: int) -> int:
    if isinstance(target, str):
        if labels is not None and target in labels:
            hits = [j for j, label in enumerate(labels) if label == target]
            if len(hits) > 1:
                raise UnknownUnit(f"unit {target!r} labels columns {hits}, expected one")
            return hits[0]
        try:
            idx = int(target)
        except ValueError:
            known = ", ".join(labels) if labels else "no unit labels in file"
            raise UnknownUnit(f"unknown unit {target!r} ({known})") from None
    else:
        idx = _rank(target, "target")
    if not 0 <= idx < cols:
        raise UnknownUnit(f"unit index {idx} outside [0, {cols - 1}]")
    return idx


def write_model(model: PcrModel, path) -> None:
    """Persist the fields that define predictions; the retained factors,
    which only diagnostics read, are not serialized."""
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "k": model.k,
        "rho_hat": model.rho_hat,
        "beta_hat": [float(v) for v in model.beta_hat],
        "singular_values": [float(v) for v in model.singular_values],
    }
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")


_MODEL_FIELDS = {
    "schema_version": int,
    "k": int,
    "rho_hat": (int, float),
    "beta_hat": list,
    "singular_values": list,
}


def read_model(path) -> PcrModel:
    """Load and re-validate a model written by :func:`write_model`.

    Structural problems (missing or mistyped fields, wrong schema
    version) raise SchemaMismatch; documents that parse but violate model
    invariants raise CorruptModel.
    """
    with open(path) as f:
        try:
            doc = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaMismatch(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SchemaMismatch(f"{path}: expected a JSON object")
    for field, want in _MODEL_FIELDS.items():
        if field not in doc:
            raise SchemaMismatch(f"{path}: missing field {field!r}")
        if not isinstance(doc[field], want) or isinstance(doc[field], bool):
            raise SchemaMismatch(f"{path}: field {field!r} has wrong type")
    if doc["schema_version"] != MODEL_SCHEMA_VERSION:
        raise SchemaMismatch(
            f"{path}: schema_version {doc['schema_version']} unsupported "
            f"(expected {MODEL_SCHEMA_VERSION})"
        )
    for field in ("beta_hat", "singular_values"):
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in doc[field]):
            raise SchemaMismatch(f"{path}: field {field!r} must hold numbers")
    try:
        return PcrModel(
            beta_hat=np.asarray(doc["beta_hat"], dtype=float),
            k=doc["k"],
            rho_hat=float(doc["rho_hat"]),
            singular_values=np.asarray(doc["singular_values"], dtype=float),
        )
    except CorruptModel:
        raise
    except Exception as exc:  # defensive: any invariant machinery failure
        raise CorruptModel(f"{path}: {exc}") from None


def write_records_csv(records, path) -> None:
    """One CSV row per record dict; columns from the first record."""
    records = list(records)
    if not records:
        raise BadParam("no records to write")
    fields = list(records[0])
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(fields)
        for rec in records:
            if set(rec) != set(fields):
                raise BadParam("records have inconsistent fields")
            writer.writerow([_cell(rec[c]) for c in fields])


def write_json(obj, path) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=2, default=json_default)
        f.write("\n")


def json_default(obj):
    """Lower numpy scalars/arrays to plain Python for JSON encoders."""
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _cell(v):
    if isinstance(v, (bool, np.bool_)):
        return int(v)
    if isinstance(v, float):  # np.float64 subclasses float; normalize its repr
        return repr(float(v))
    if isinstance(v, np.integer):
        return int(v)
    return v
