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
first ragged row or bad cell in file order. One leading UTF-8 byte order
mark (Excel's "CSV UTF-8" writes one) and every ``\r`` and ``\n`` byte at
the end of the file are dropped before either route below runs, so the
blank lines after the last row, which ``np.loadtxt`` skips too, are not
rows; a last line holding only spaces or tabs stays a row. Files are
decoded in the locale's encoding.

A file whose data rows hold only ASCII numbers and missing cells written
``NA``, ``nan`` or empty, with ``\n`` or ``\r\n`` line ends, ``,`` or ``, ``
separators and an optionally quoted header (what R, ``np.savetxt`` and
pandas write), is parsed by numpy's C reader behind byte-level guards
instead; any file those guards do not admit, or that reader does not
accept, goes through ``csv`` one cell at a time. The grammar, the results
(value bits, mask, labels) and the errors are the same on either route.
"""
from __future__ import annotations

import codecs
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import MaskedMatrix, _rank
from .errors import BadParam, CorruptModel, ParseError, Ragged, SchemaMismatch, UnknownUnit
from .pcr import PcrModel
from .synthetic_control import PanelDataset

# the schema of a model without column labels; a model fitted on a
# labelled design is written as schema 2, which adds "col_labels"
MODEL_SCHEMA_VERSION = 1
_LABELLED_SCHEMA_VERSION = 2

_NA_OUT = "NA"
_NA_TOKENS = frozenset(("NA", "nan", ""))  # stripped fields read as missing

# The only bytes a data row may hold for the np.loadtxt route; the others
# it rewrites into them; and the header bytes csv treats specially (NUL is
# an error before 3.11).
_PLAIN_BYTES = b"0123456789.eE+-,\nNA"
_REWRITTEN_BYTES = frozenset(b"\r na")
_CSV_SPECIAL = frozenset(b"\r\0")
_COMMA, _NEWLINE, _N, _A, _ZERO = b",\nNA0"
# NA cells read as 0 through np.loadtxt; the mask then marks them missing
_NA_AS_ZEROS = bytes.maketrans(b"NA", b"00")


@dataclass(frozen=True)
class CsvMatrixSpec:
    """A numeric table's path and whether its first row holds column
    labels; its cells follow the module's grammar (commas, NA tokens)."""

    path: str | Path
    has_header: bool = False


def read_masked_csv(spec: CsvMatrixSpec) -> MaskedMatrix:
    r"""Parse a rectangular CSV into observed values and a mask.

    Cells equal to ``NA``, ``nan`` or "" (after stripping whitespace) are
    missing; every other cell must parse as a finite float. Row and column
    positions in errors are 1-based and count data rows only.

    The file is read once, as bytes. A numeric ASCII file in a common
    layout (``\n`` or ``\r\n`` line ends, ``,`` or ``, `` separators,
    ``NA``, ``nan`` or empty missing cells, a quoted header) is parsed by
    ``np.loadtxt`` (see :func:`_read_plain`); any other file, or any the
    guards there do not admit, by a per-cell loop over ``csv`` rows as they
    are read, holding one row's fields at a time. Both give the same value
    bits, mask and labels, and every error (type, message, row, column)
    comes from the ``csv`` loop.
    """
    with open(spec.path, "rb") as f:
        data = f.read().removeprefix(codecs.BOM_UTF8).rstrip(b"\r\n")
    plain = _read_plain(data, spec.has_header)
    if plain is None:
        return _read_csv(spec, data)
    labels, values, mask = plain
    return MaskedMatrix(values=values, mask=mask, col_labels=labels)


def _read_plain(data: bytes, has_header: bool):
    r"""Labels, values and mask of a file whose bytes show that
    ``np.loadtxt`` reads it as the ``csv`` loop would; None for any other
    file, which that loop then reads or rejects.

    The header ends at the first ``\n``, less one ``\r`` before it. It must
    be ASCII without ``\r`` or NUL, and its labels are ``csv``'s own split
    of that line, so quoted labels read as there; a quote left open past
    the line, or any other ``csv.Error``, leaves the file to the loop.

    Data bytes outside ``_PLAIN_BYTES`` must be ``\r``, space, ``n`` or
    ``a``, and are then rewritten: ``\r\n`` to ``\n``, ``, `` to ``,`` and
    ``nan`` to ``NA``, as ``csv`` reads a line end, strips a leading space
    and reads a missing cell. Then the guards, from one scan of the field
    boundaries: every byte is in ``_PLAIN_BYTES``, every field is within
    ``csv``'s field size limit less the two bytes a rewrite strips at most
    (`` nan`` to ``NA``), every ``N`` and ``A`` belongs to an ``NA`` field,
    and no line is wholly empty (``csv`` reads a row with no fields).
    ``loadtxt`` reads ``NA`` as ``00`` and an empty field as a ``0`` written
    in; the mask marks both. So rows end only at ``\n``, no field holds
    quotes or whitespace, and every other field holds only ``0-9 . e E + -``,
    which ``loadtxt`` parses as ``float()`` does: both call CPython's
    correctly rounded ``PyOS_string_to_double``.
    A ragged row or a malformed number (``1e``, ``.``, ``--1``) makes
    ``loadtxt`` raise, and an overflow (``1e400``) reads as an infinity;
    either leaves the file to the ``csv`` loop, which names the culprit.
    """
    labels = None
    if has_header:
        header, _, data = data.partition(b"\n")
        header = header.removesuffix(b"\r")
        if not header.isascii() or _CSV_SPECIAL & set(header):
            return None
        try:
            [fields] = csv.reader([header.decode("ascii")], strict=True)
        except csv.Error:
            return None
        labels = tuple(tok.strip() for tok in fields)
    odd = data.translate(None, _PLAIN_BYTES)  # empty for plain files: no rewrite pass
    if odd:
        if not _REWRITTEN_BYTES.issuperset(odd):
            return None
        data = data.replace(b"\r\n", b"\n").replace(b", ", b",").replace(b"nan", b"NA")
        if data.translate(None, _PLAIN_BYTES):
            return None
    if not data:
        return None
    a = np.frombuffer(data, dtype=np.uint8)
    # field i spans bytes bounds[i] + 1 .. bounds[i + 1] - 1
    bounds = np.flatnonzero((a == _COMMA) | (a == _NEWLINE))
    bounds = np.concatenate(([-1], bounds, [a.size]))
    widths = np.diff(bounds) - 1
    starts = bounds[:-1] + 1
    if widths.max() > csv.field_size_limit() - 2:
        return None
    # an empty field starts on a delimiter or past the end ("clip": the last)
    na = a.take(starts, mode="clip") == _N
    n_na = np.count_nonzero(na)
    # every N starts a two-byte field that ends in A, and there is no other A
    if (
        n_na != np.count_nonzero(a == _N)
        or n_na != np.count_nonzero(a == _A)
        or (widths[na] != 2).any()
        or (a[starts[na] + 1] != _A).any()
    ):
        return None
    empty = widths == 0
    if empty.any():
        line_end = np.concatenate(([True], a[bounds[1:-1]] == _NEWLINE, [True]))
        if (empty & line_end[:-1] & line_end[1:]).any():
            return None
        data = np.insert(a, starts[empty], _ZERO).tobytes()
    try:
        values = np.loadtxt(
            io.BytesIO(data.translate(_NA_AS_ZEROS)),
            delimiter=",",
            dtype=float,
            ndmin=2,
            comments=None,
        )
    except ValueError:
        return None
    if not np.isfinite(values).all() or (labels is not None and len(labels) != values.shape[1]):
        return None
    return labels, values, ~(na | empty).reshape(values.shape)


def _read_csv(spec: CsvMatrixSpec, data: bytes) -> MaskedMatrix:
    """The ``csv`` route: a loop over each row's cells as ``csv.reader``
    yields it, into one float buffer, so no row outlives its parse.

    The first ragged row or bad cell in file order is raised only once the
    reader has drained the file, storing nothing more, so a reader error
    (a ``csv.Error`` or an undecodable byte) anywhere in the file wins, as
    it does when every row is read before any cell is parsed."""
    # imported here: every CLI command loads this module, and only this
    # route needs the float buffer
    from array import array

    labels, width, n_rows, error = None, None, 0, None
    values = array("d")
    with io.TextIOWrapper(io.BytesIO(data), newline="") as f:
        rows = csv.reader(f)
        try:
            if spec.has_header:
                header = next(rows, None)
                if header is None:
                    raise ParseError(f"{spec.path}: empty file, expected a header row")
                labels = tuple(tok.strip() for tok in header)
            for row in rows:
                if error is not None:
                    continue
                n_rows += 1
                if width is None:
                    width = len(row)
                    if labels is not None and len(labels) != width:
                        error = Ragged(
                            f"{spec.path}: header has {len(labels)} fields, "
                            f"first data row has {width}"
                        )
                        continue
                error = _parse_row(spec.path, row, n_rows, width, values)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{spec.path}: not valid {exc.encoding} text ({exc.reason})") from None
        except csv.Error as exc:
            raise ParseError(f"{spec.path}: {exc}") from None
    if error is not None:
        raise error
    if n_rows == 0:
        raise ParseError(f"{spec.path}: no data rows")
    # observed cells are finite, so NaN marks exactly the missing ones
    values = np.frombuffer(values).reshape(n_rows, width)
    return MaskedMatrix(values=values, mask=~np.isnan(values), col_labels=labels)


def _parse_row(path, row, i, width, values):
    """Append data row ``i``'s cells to ``values`` (NaN for a missing
    cell); the error for a ragged row or its first bad cell, else None."""
    if len(row) != width:
        return Ragged(f"{path}: row {i} has {len(row)} fields, expected {width}")
    for j, tok in enumerate(map(str.strip, row), 1):
        if tok in _NA_TOKENS:
            values.append(math.nan)
            continue
        try:
            x = float(tok)
        except ValueError:
            return ParseError(
                f"{path}: unreadable number {tok!r} at row {i}, column {j}", row=i, col=j
            )
        if not math.isfinite(x):
            return ParseError(
                f"{path}: non-finite value {tok!r} at row {i}, column {j}", row=i, col=j
            )
        values.append(x)
    return None


def write_masked_csv(matrix: MaskedMatrix, path) -> None:
    """Inverse of :func:`read_masked_csv`; missing cells become "NA"."""
    with open(path, "w", newline="") as f:
        # "\n" row ends and "NA" cells keep the file on read_masked_csv's
        # np.loadtxt route without a rewrite pass
        writer = csv.writer(f, lineterminator="\n")
        if matrix.col_labels is not None:
            writer.writerow(matrix.col_labels)
        for vals, obs in zip(matrix.values, matrix.mask):
            writer.writerow(
                [repr(float(v)) if o else _NA_OUT for v, o in zip(vals, obs)]
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
    """Persist the fields that define predictions; ``right_vectors``,
    which only diagnostics read, is not serialized. A model with column
    labels is written as schema 2 with ``col_labels``; any other, as
    schema 1."""
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "k": model.k,
        "rho_hat": model.rho_hat,
        "beta_hat": [float(v) for v in model.beta_hat],
        "singular_values": [float(v) for v in model.singular_values],
    }
    if model.col_labels is not None:
        doc["schema_version"] = _LABELLED_SCHEMA_VERSION
        doc["col_labels"] = list(model.col_labels)
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
    """Load and re-validate a model written by :func:`write_model`, of
    schema 1 or 2.

    Structural problems (missing or mistyped fields, wrong schema
    version) raise SchemaMismatch; documents that parse but violate model
    invariants raise CorruptModel. The file is UTF-8 JSON, read as bytes,
    so a leading byte order mark is ignored (RFC 8259 allows it).
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaMismatch(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SchemaMismatch(f"{path}: expected a JSON object")
    for field, want in _MODEL_FIELDS.items():
        if field not in doc:
            raise SchemaMismatch(f"{path}: missing field {field!r}")
        if not isinstance(doc[field], want) or isinstance(doc[field], bool):
            raise SchemaMismatch(f"{path}: field {field!r} has wrong type")
    if doc["schema_version"] not in (MODEL_SCHEMA_VERSION, _LABELLED_SCHEMA_VERSION):
        raise SchemaMismatch(
            f"{path}: schema_version {doc['schema_version']} unsupported "
            f"(expected {MODEL_SCHEMA_VERSION} or {_LABELLED_SCHEMA_VERSION})"
        )
    for field in ("beta_hat", "singular_values"):
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in doc[field]):
            raise SchemaMismatch(f"{path}: field {field!r} must hold numbers")
    labels = None
    if doc["schema_version"] == _LABELLED_SCHEMA_VERSION:
        labels = doc.get("col_labels")
        if not isinstance(labels, list) or not all(isinstance(c, str) for c in labels):
            raise SchemaMismatch(f"{path}: schema 2 needs 'col_labels', a list of strings")
    try:
        return PcrModel(
            beta_hat=np.asarray(doc["beta_hat"], dtype=float),
            k=doc["k"],
            rho_hat=float(doc["rho_hat"]),
            singular_values=np.asarray(doc["singular_values"], dtype=float),
            col_labels=labels,
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


def _cell(v):
    if isinstance(v, (bool, np.bool_)):
        return int(v)
    if isinstance(v, float):  # np.float64 subclasses float; normalize its repr
        return repr(float(v))
    return v
