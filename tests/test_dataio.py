import builtins
import codecs
import csv
import io
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

from eivpcr import dataio

from eivpcr import (
    BadParam,
    CorruptModel,
    MaskedMatrix,
    ParseError,
    PcrModel,
    Ragged,
    SchemaMismatch,
    TargetMissingPre,
    UnknownUnit,
    estimate_rho,
    fit,
)
from eivpcr.dataio import (
    MODEL_SCHEMA_VERSION,
    CsvMatrixSpec,
    read_masked_csv,
    read_model,
    read_panel_csv,
    read_response_csv,
    write_json,
    write_masked_csv,
    write_model,
    write_records_csv,
)


def _write(path, text):
    path.write_text(text)
    return CsvMatrixSpec(path=str(path))


def _reference_read_masked_csv(spec: CsvMatrixSpec) -> MaskedMatrix:
    """The reader as a per-cell loop: the reference both routes of the
    reader must match bit for bit, errors included. A leading UTF-8 byte
    order mark is not data, and blank lines after the last row are
    skipped."""
    with open(spec.path, "rb") as f:
        data = f.read().removeprefix(codecs.BOM_UTF8)
    with io.TextIOWrapper(io.BytesIO(data), newline="") as f:
        try:
            rows = list(csv.reader(f))
        except csv.Error as exc:
            raise ParseError(f"{spec.path}: {exc}") from None
    while rows and not rows[-1]:
        rows.pop()
    labels = None
    if spec.has_header:
        if not rows:
            raise ParseError(f"{spec.path}: empty file, expected a header row")
        labels = tuple(tok.strip() for tok in rows[0])
        rows = rows[1:]
    if not rows:
        raise ParseError(f"{spec.path}: no data rows")
    width = len(rows[0])
    if labels is not None and len(labels) != width:
        raise Ragged(
            f"{spec.path}: header has {len(labels)} fields, first data row has {width}"
        )
    values = np.empty((len(rows), width))
    mask = np.empty((len(rows), width), dtype=bool)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise Ragged(
                f"{spec.path}: row {i + 1} has {len(row)} fields, expected {width}"
            )
        for j, tok in enumerate(row):
            tok = tok.strip()
            if tok in ("NA", "nan", ""):
                values[i, j] = np.nan
                mask[i, j] = False
                continue
            try:
                x = float(tok)
            except ValueError:
                raise ParseError(
                    f"{spec.path}: unreadable number {tok!r} at row {i + 1}, column {j + 1}",
                    row=i + 1,
                    col=j + 1,
                ) from None
            if not math.isfinite(x):
                raise ParseError(
                    f"{spec.path}: non-finite value {tok!r} at row {i + 1}, column {j + 1}",
                    row=i + 1,
                    col=j + 1,
                )
            values[i, j] = x
            mask[i, j] = True
    return MaskedMatrix(values=values, mask=mask, col_labels=labels)


def _outcome(read, spec):
    """Everything a read yields: value bits, mask and labels, or the error."""
    try:
        m = read(spec)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "col", None)
    return m.values.shape, m.values.tobytes(), m.mask.tobytes(), m.col_labels


_CELLS = st.one_of(
    st.sampled_from([
        "0", "-2.5", "1e3", " 3 ", "NA", " NA ", "nan", "NaN", "", " ", "inf", "-Infinity",
        "1e400", "1e-320", "1_000", "_1", "١٢", "0x1", "zap", "?", "1;2", '"4"', '"5,6"',
        '" NA "', '"7\n8"', "1.0000000000000000000000000000000000000000000000000000001",
    ]),
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
)
# header cells csv unquotes, keeps literally, or reads across a line end
_LABELS = st.sampled_from([" u ", "v1", "", '"a""b"', 'a"b', '"x\ny"', '"p,q"', '" w "'])


@st.composite
def _csv_cases(draw):
    """(text, has_header): mostly rectangular tables of mixed cells,
    sometimes ragged, plus raw text from CSV's own alphabet."""
    has_header = draw(st.booleans())
    if draw(st.integers(0, 4)) == 0:
        text = draw(st.text(alphabet=st.sampled_from(list('0123456789.,;-e_ NAnif?"\r\n')),
                            max_size=40))
        return text, has_header
    width = draw(st.integers(0, 4))
    widths = st.sampled_from([width] * 8 + [max(width - 1, 0), width + 1])
    rows = [draw(st.lists(_CELLS, min_size=w, max_size=w))
            for w in draw(st.lists(widths, min_size=1, max_size=6))]
    if has_header:
        n_labels = draw(widths)
        rows.insert(0, draw(st.lists(_LABELS, min_size=n_labels, max_size=n_labels)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    sep = draw(st.sampled_from([",", ", "]))
    text = newline.join(sep.join(row) for row in rows)
    if draw(st.booleans()):
        text += newline
    return text, has_header


_NUMBER_CHARS = "0123456789.eE+-"
# the np.loadtxt route's alphabet, and the pieces it rewrites into it
_PLAIN_TOKENS = list(_NUMBER_CHARS + ",\nNA") + ["\r\n", ", ", "nan", "\r", " ", "n", "a"]

# cells the np.loadtxt route reads, and cells that must send a file on to
# the csv route, which rejects them; "" stays among the odd cells although
# that route now admits it, and the odd-cell test compares only its outcome
_PLAIN_CELLS = st.one_of(
    st.sampled_from(
        ["NA", "nan", "", "-0", "0", "5.", ".5", "+7", "1E5", "1e-400", "4.9e-324"]
    ),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
)
_ODD_CELLS = [
    "+NA", "-NA", "NANA", "1NA", "NA1", "N", "A", "AN", "1N", "N5", "5A", "1e400", "-1e400",
    ".", "e5", "1e", "--1", "+", "", "NaN", "nann", "anan", "1nan", "nA",
]
_ODD_PLAIN_CELLS = st.sampled_from(_ODD_CELLS) | st.text(
    alphabet=_NUMBER_CHARS + "NAna ", max_size=6
)


@st.composite
def _plain_cases(draw):
    """(text, has_header) whose data bytes all come from the alphabet the
    np.loadtxt route admits or rewrites into it (``\r\n``, ``, ``, ``nan``):
    a table of plain cells with at most one defect (odd cells, a ragged
    row, a blank line, a trailing comma, an extra final line end or a
    header of the wrong width), or raw text from that alphabet."""
    has_header = draw(st.booleans())
    width = draw(st.integers(1, 4))
    defect = draw(st.sampled_from(
        [None, "cells", "cells", "cells", "ragged", "blank", "comma", "newline", "header", "raw"]
    ))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    sep = draw(st.sampled_from([",", ", "]))
    if defect == "raw":
        text = "".join(draw(st.lists(st.sampled_from(_PLAIN_TOKENS), max_size=30)))
        width = len(text.partition("\n")[0].split(","))
    else:
        cells = draw(st.lists(st.lists(_PLAIN_CELLS, min_size=width, max_size=width),
                              min_size=1, max_size=6))
        row = draw(st.integers(0, len(cells) - 1))
        if defect == "cells":
            for _ in range(draw(st.integers(1, 2))):
                cells[row][draw(st.integers(0, width - 1))] = draw(_ODD_PLAIN_CELLS)
                row = draw(st.integers(0, len(cells) - 1))
        elif defect == "ragged":
            if width > 1 and draw(st.booleans()):
                cells[row].pop()
            else:
                cells[row].append(draw(_PLAIN_CELLS))
        rows = [sep.join(r) for r in cells]
        if defect == "blank":
            rows.insert(draw(st.integers(0, len(rows))), "")
        elif defect == "comma":
            rows[row] += ","
        end = newline * 2 if defect == "newline" else draw(st.sampled_from([newline, ""]))
        text = newline.join(rows) + end
    if has_header:
        n_labels = width + (defect == "header")
        labels = draw(st.lists(_LABELS, min_size=n_labels, max_size=n_labels))
        text = ",".join(labels) + newline + text
    return text, has_header


def _route(spec):
    """Which reader ran: "plain" (np.loadtxt) or "csv"."""
    with mock.patch.object(dataio, "_read_csv", wraps=dataio._read_csv) as csv_route:
        _outcome(read_masked_csv, spec)
    return "csv" if csv_route.called else "plain"


class TestReadMaskedCsv:
    def test_basic_grid_with_missing_cell(self, tmp_path):
        spec = _write(tmp_path / "m.csv", "1,2\n3,NA\n")
        m = read_masked_csv(spec)
        assert m.values.shape == (2, 2)
        assert_array_equal(m.mask, [[True, True], [True, False]])
        assert m.values[0, 0] == 1.0 and m.values[1, 0] == 3.0
        assert np.isnan(m.values[1, 1])

    def test_all_default_missing_tokens(self, tmp_path):
        spec = _write(tmp_path / "m.csv", "NA,nan\n,4\n")
        m = read_masked_csv(spec)
        assert m.mask.sum() == 1
        assert m.values[1, 1] == 4.0

    def test_crlf_is_accepted(self, tmp_path):
        spec = _write(tmp_path / "m.csv", "1,2\r\n3,4\r\n")
        assert_array_equal(read_masked_csv(spec).values, [[1.0, 2.0], [3.0, 4.0]])
        m = read_masked_csv(_write(tmp_path / "m.csv", "1,NA\r\n3,4\r\n"))
        assert_array_equal(m.mask, [[True, False], [True, True]])
        with pytest.raises(ParseError) as info:
            read_masked_csv(_write(tmp_path / "m.csv", "1,2\r\n3,x\r\n"))
        assert (info.value.row, info.value.col) == (2, 2)

    def test_header_becomes_labels(self, tmp_path):
        spec = CsvMatrixSpec(path=str(tmp_path / "m.csv"), has_header=True)
        (tmp_path / "m.csv").write_text("a,b,c\n1,2,3\n")
        m = read_masked_csv(spec)
        assert m.col_labels == ("a", "b", "c")
        assert m.values.shape == (1, 3)

    def test_ragged_rows(self, tmp_path):
        spec = _write(tmp_path / "m.csv", "1,2\n3\n")
        with pytest.raises(Ragged):
            read_masked_csv(spec)

    def test_header_width_clash_is_ragged(self, tmp_path):
        spec = CsvMatrixSpec(path=str(tmp_path / "m.csv"), has_header=True)
        (tmp_path / "m.csv").write_text("a,b\n1,2,3\n")
        with pytest.raises(Ragged):
            read_masked_csv(spec)

    def test_parse_error_reports_position(self, tmp_path):
        spec = _write(tmp_path / "m.csv", "1,2\n3,zap\n")
        with pytest.raises(ParseError) as info:
            read_masked_csv(spec)
        assert info.value.row == 2 and info.value.col == 2

    def test_parse_error_position_skips_header(self, tmp_path):
        spec = CsvMatrixSpec(path=str(tmp_path / "m.csv"), has_header=True)
        (tmp_path / "m.csv").write_text("a,b\nx,2\n")
        with pytest.raises(ParseError) as info:
            read_masked_csv(spec)
        assert info.value.row == 1 and info.value.col == 1

    def test_nonfinite_token_rejected(self, tmp_path):
        spec = _write(tmp_path / "m.csv", "1,inf\n3,4\n")
        with pytest.raises(ParseError) as info:
            read_masked_csv(spec)
        assert info.value.row == 1 and info.value.col == 2
        for token, col in [("NaN", 1), ("-Infinity", 3), ("1e400", 2)]:
            cells = ["1", "2", "3"]
            cells[col - 1] = token
            spec = _write(tmp_path / "m.csv", "4,5,6\n" + ",".join(cells) + "\n")
            with pytest.raises(ParseError, match=f"non-finite value '{token}' at row 2, column {col}"):
                read_masked_csv(spec)

    def test_empty_file_rejected(self, tmp_path):
        spec = _write(tmp_path / "m.csv", "")
        with pytest.raises(ParseError):
            read_masked_csv(spec)

    def test_parse_error_before_ragged_row_wins(self, tmp_path):
        spec = _write(tmp_path / "m.csv", "1,zap\n3,4\n5\n")
        with pytest.raises(ParseError) as info:
            read_masked_csv(spec)
        assert (info.value.row, info.value.col) == (1, 2)

    def test_padded_na_token_is_missing(self, tmp_path):
        m = read_masked_csv(_write(tmp_path / "m.csv", "1, NA \n\tNA,2\n"))
        assert_array_equal(m.mask, [[True, False], [False, True]])

    def test_quoted_cell_holding_the_delimiter_is_one_field(self, tmp_path):
        m = read_masked_csv(_write(tmp_path / "m.csv", '"7",2\n3,4\n'))
        assert m.values[0, 0] == 7.0
        spec = _write(tmp_path / "m.csv", '1,"2,5"\n3,4\n')
        with pytest.raises(ParseError, match="unreadable number '2,5' at row 1, column 2"):
            read_masked_csv(spec)

    def test_blank_line_in_the_middle_is_ragged(self, tmp_path):
        for text in ("1,2\n\n3,4\n", "1,2\n\n3,4\n\n"):
            spec = _write(tmp_path / "m.csv", text)
            with pytest.raises(Ragged, match="row 2 has 0 fields, expected 2"):
                read_masked_csv(spec)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("header", ["", "a,b"], ids=["no-header", "header"])
    def test_blank_lines_after_the_last_row_are_skipped(self, tmp_path, newline, header):
        path = tmp_path / "m.csv"
        spec = CsvMatrixSpec(path=str(path), has_header=bool(header))
        rows = [header] * bool(header) + ["1,NA", "3,4"]
        path.write_bytes(newline.join(rows).encode())
        want = _outcome(read_masked_csv, spec)
        assert want[0] == (2, 2) and want[3] == (("a", "b") if header else None)
        for blank in (1, 3):
            path.write_bytes((newline.join(rows) + newline * (1 + blank)).encode())
            assert _route(spec) == "plain"
            assert _outcome(read_masked_csv, spec) == want
            assert _outcome(_reference_read_masked_csv, spec) == want

    @pytest.mark.parametrize("text", ["1,2\n \n", "1,2\n\t\n", "1,2\r\n \r\n"],
                             ids=["space", "tab", "crlf-space"])
    def test_last_line_of_only_whitespace_is_a_row(self, tmp_path, text):
        # only line ends are dropped from the end of a file: a last line
        # holding a space or a tab is a row of one field
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        spec = CsvMatrixSpec(path=str(path))
        want = _outcome(_reference_read_masked_csv, spec)
        assert want[:2] == (Ragged, f"{path}: row 2 has 1 fields, expected 2")
        assert _outcome(read_masked_csv, spec) == want
        assert _outcome(lambda s: dataio._read_csv(s, path.read_bytes()), spec) == want

    def test_trailing_comma_is_an_unobserved_last_column(self, tmp_path):
        # a comma ending every row opens one more field, an empty cell, so
        # the file has an extra column with no observed cell that still
        # counts toward rho_hat
        spec = _write(tmp_path / "m.csv", "1,2,\n3,4,\n5,6,\n")
        assert _route(spec) == "plain"
        m = read_masked_csv(spec)
        assert_array_equal(m.mask, [[True, True, False]] * 3)
        assert_array_equal(m.values[:, :2], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert estimate_rho(m) == 6 / 9
        loop = dataio._read_csv(spec, (tmp_path / "m.csv").read_bytes())
        assert _outcome(lambda _: loop, spec) == _outcome(read_masked_csv, spec)
        assert _outcome(_reference_read_masked_csv, spec) == _outcome(read_masked_csv, spec)

    def test_float_syntax_beyond_plain_decimals(self, tmp_path):
        m = read_masked_csv(_write(tmp_path / "m.csv", "1_000,١٢,1e-320,-.5\n"))
        assert m.values.tolist() == [[1000.0, 12.0, 1e-320, -0.5]]

    def test_errors_deep_in_a_large_file_name_their_row(self, tmp_path):
        rows = [[repr(0.1 * (i + j)) for j in range(300)] for i in range(700)]
        rows[650][299] = "zap"
        spec = _write(tmp_path / "m.csv", "".join(",".join(r) + "\n" for r in rows))
        with pytest.raises(ParseError) as info:
            read_masked_csv(spec)
        assert (info.value.row, info.value.col) == (651, 300)
        del rows[650][299]
        spec = _write(tmp_path / "m.csv", "".join(",".join(r) + "\n" for r in rows))
        with pytest.raises(Ragged, match="row 651 has 299 fields"):
            read_masked_csv(spec)

    @pytest.mark.parametrize("early", ['"zap",2\n', '"1"\n'], ids=["bad-cell", "ragged-row"])
    def test_reader_error_late_in_the_file_wins(self, tmp_path, early):
        # the csv route streams its rows, so the reader must still drain the
        # file past the first bad row before that row's error is raised
        body = early + '"3",4\n' * 20_000
        path = tmp_path / "m.csv"
        path.write_bytes((body + "5,\xff\n").encode("latin-1"))
        with pytest.raises(ParseError, match="not valid"):
            read_masked_csv(CsvMatrixSpec(path=path))
        spec = _write(path, body + "5," + "6" * (csv.field_size_limit() + 1) + "\n")
        outcome = _outcome(read_masked_csv, spec)
        assert outcome[0] is ParseError and "field larger than field limit" in outcome[1]
        assert outcome == _outcome(_reference_read_masked_csv, spec)

    def test_quoted_cells_peak_under_three_times_the_file(self, tmp_path):
        # quoted cells take the csv route; a row's field strings are freed
        # once parsed, so the peak is the file's bytes plus the float buffers
        values = np.random.default_rng(3).standard_normal((300, 100))
        text = "".join(",".join(f'"{v!r}"' for v in row) + "\n" for row in values.tolist())
        spec = _write(tmp_path / "q.csv", text)
        assert _route(spec) == "csv"
        tracemalloc.start()
        try:
            m = read_masked_csv(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.values.tobytes() == values.tobytes()
        assert peak < 3 * len(text)

    @settings(max_examples=300)
    @given(case=_csv_cases())
    def test_matches_reference_reader(self, tmp_path_factory, case):
        text, has_header = case
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        path.write_bytes(text.encode())
        spec = CsvMatrixSpec(path=str(path), has_header=has_header)
        assert _outcome(read_masked_csv, spec) == _outcome(_reference_read_masked_csv, spec)

    @settings(max_examples=300)
    @given(case=_plain_cases(), limit=st.sampled_from([None, 2, 3, 4]))
    def test_plain_alphabet_matches_reference_reader(self, tmp_path_factory, case, limit):
        # a small csv field size limit falls inside the bytes a rewrite strips
        text, has_header = case
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        path.write_bytes(text.encode())
        spec = CsvMatrixSpec(path=str(path), has_header=has_header)
        saved = csv.field_size_limit(limit or csv.field_size_limit())
        try:
            assert _outcome(read_masked_csv, spec) == _outcome(_reference_read_masked_csv, spec)
        finally:
            csv.field_size_limit(saved)

    @pytest.mark.parametrize("cell", _ODD_CELLS)
    def test_odd_cell_after_plain_rows_matches_reference_reader(self, tmp_path, cell):
        # the first row starts with NA and the odd cell sits in row 2, so a
        # guard that checks only where the data starts lets it through; an
        # empty field is admitted, so only its outcome is compared
        for text in (f"NA,1\n2,{cell}\n", f"NA,1\n{cell},2", f"NA,1\n2,{cell},\n"):
            spec = _write(tmp_path / "m.csv", text)
            if cell:
                assert _route(spec) == "csv", text
            assert _outcome(read_masked_csv, spec) == _outcome(_reference_read_masked_csv, spec)

    @pytest.mark.parametrize("text, has_header, route", [
        ("0.1,NA,-2.5\n1e-05,3.0,NA\nNA,-0.0,1.2345678901234567e+300\n", False, "plain"),
        ("a,b\n1,NA\n-3,4.5", True, "plain"),
        ("7\n", False, "plain"),
        ("1,NA\r\n3,4\r\n", False, "plain"),
        ('"a",b\n1,2\n', True, "plain"),
        ("1, NA\n3, 4\n", False, "plain"),
        ("1,,3\n,5,\n", False, "plain"),
        ("nan,1\n2,nan\n", False, "plain"),
        ('"a""b", c,d\r\n1, nan,\r\n,NA, 2.5\r\n', True, "plain"),
        ("\ufeff1.5,2\n3,NA\n", False, "plain"),
        ("\ufeffc0,c1\n1.5,2\n3,NA\n", True, "plain"),
        ("a,b\n1,2,3\n", True, "csv"),
        ("1,NA\n+NA,4\n", False, "csv"),
        ("1,2\n\n3,4\n", False, "csv"),
        ("1,2\r\n\r\n3,4\r\n", False, "csv"),
        ("1,1e400\n", False, "csv"),
        ("1,2\n3\n", False, "csv"),
        ("a\0,b\n1,2\n", True, "csv"),
        ("1,2\r3,4\r", False, "csv"),
        ("1,\t2\n3,4\n", False, "csv"),
        ("1 ,2\n3,4\n", False, "csv"),
        ('"1",2\n3,4\n', False, "csv"),
        ("1_000,2\n", False, "csv"),
        ("NaN,1\n", False, "csv"),
    ], ids=["benchmark-format", "header", "one-cell", "crlf", "quoted-header", "comma-space",
            "empty-fields", "nan", "all-rewrites", "bom", "bom-header", "header-width-clash",
            "signed-na", "blank-line", "crlf-blank-line", "overflow", "ragged", "nul-header",
            "bare-cr", "tab", "space-before-comma", "quoted-cell", "underscore", "capital-nan"])
    def test_route_taken(self, tmp_path, text, has_header, route):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        spec = CsvMatrixSpec(path=str(path), has_header=has_header)
        assert _route(spec) == route
        assert _outcome(read_masked_csv, spec) == _outcome(_reference_read_masked_csv, spec)

    def test_csv_field_size_limit_holds_on_either_route(self, tmp_path):
        saved = csv.field_size_limit(8)
        try:
            for text, has_header in [
                ("1.2345678,2\n", False),
                ("abcdefghi,b\n1,2\n", True),
                ('"abcdefghi",b\r\n1,2\r\n', True),
                ("1, 23456789\r\n", False),
                ("1,2\n3, 1.2345678\n", False),
            ]:
                path = tmp_path / "m.csv"
                path.write_bytes(text.encode())
                spec = CsvMatrixSpec(path=str(path), has_header=has_header)
                outcome = _outcome(read_masked_csv, spec)
                assert outcome[0] is ParseError
                assert outcome == _outcome(_reference_read_masked_csv, spec)
            # a rewrite strips up to two bytes of a field (" nan" -> "NA"):
            # csv reads " nan" under a limit of 4 and fails under 3
            failed = {}
            for limit in (3, 4):
                csv.field_size_limit(limit)
                for text in ("1, nan\r\n,2\r\n", "1, 123\n,2\n", "1, ,2\n"):
                    spec = _write(tmp_path / "m.csv", text)
                    outcome = _outcome(read_masked_csv, spec)
                    assert outcome == _outcome(_reference_read_masked_csv, spec), (limit, text)
                    failed[limit, text] = outcome[0] is ParseError
            assert failed[3, "1, nan\r\n,2\r\n"] and not failed[4, "1, nan\r\n,2\r\n"]
        finally:
            csv.field_size_limit(saved)

    def test_benchmark_style_file_takes_the_plain_route(self, tmp_path):
        # shortest round-trip decimals with NaN written as NA, as the
        # benchmark's input files are
        rng = np.random.default_rng(5)
        values = rng.standard_normal((20, 5)) * 10.0 ** rng.integers(-8, 8, (20, 5))
        values[rng.random((20, 5)) < 0.2] = np.nan
        lines = [",".join(map(repr, row)) for row in values.tolist()]
        spec = _write(tmp_path / "z.csv", ("\n".join(lines) + "\n").replace("nan", "NA"))
        assert _route(spec) == "plain"
        m = read_masked_csv(spec)
        assert 0 < np.count_nonzero(~m.mask) < m.mask.size
        assert_array_equal(m.mask, ~np.isnan(values))
        assert m.values.tobytes() == values.tobytes()

    def test_empty_cells_take_one_boundary_scan(self, tmp_path):
        # the field boundaries of a file with empty cells are found once,
        # not again after the empty fields are filled
        spec = _write(tmp_path / "m.csv", "1,,3\n,5,\n")
        assert _route(spec) == "plain"
        with mock.patch.object(np, "flatnonzero", wraps=np.flatnonzero) as scan:
            m = read_masked_csv(spec)
        assert scan.call_count == 1
        assert_array_equal(m.mask, [[True, False, True], [False, True, False]])

    def test_empty_cells_read_alike_on_both_routes(self, tmp_path):
        # a table the size of cli_small's design, as pandas writes missing
        # cells: empty, at row starts and ends as well as inside
        rng = np.random.default_rng(11)
        values = rng.standard_normal((200, 50)) * 10.0 ** rng.integers(-8, 8, (200, 50))
        values[rng.random((200, 50)) < 0.2] = np.nan
        lines = [",".join("" if math.isnan(v) else repr(v) for v in row) for row in values.tolist()]
        labels = tuple(f"x{j}" for j in range(50))
        path = tmp_path / "e.csv"
        path.write_text(",".join(labels) + "\n" + "\n".join(lines) + "\n")
        spec = CsvMatrixSpec(path=str(path), has_header=True)
        assert _route(spec) == "plain"
        plain = read_masked_csv(spec)
        loop = dataio._read_csv(spec, path.read_bytes())
        assert 0.15 < np.count_nonzero(~plain.mask) / plain.mask.size < 0.25
        assert not plain.mask[:, 0].all() and not plain.mask[:, -1].all()
        assert plain.values.tobytes() == loop.values.tobytes()
        assert plain.mask.tobytes() == loop.mask.tobytes()
        assert plain.col_labels == loop.col_labels == labels
        assert_array_equal(plain.mask, ~np.isnan(values))

    def test_file_is_opened_once_on_either_route(self, tmp_path):
        # a pipe can be read only once, so the csv route reuses the bytes
        routes = set()
        for text in ("1,NA\n3,4\n", "1, NA\r\n3,4\r\n", "1,\n3,4\n", "1,nan\n3,4\n",
                     "1,NA \n3,4\n"):
            spec = _write(tmp_path / "m.csv", text)
            with mock.patch.object(builtins, "open", wraps=builtins.open) as opened:
                m = read_masked_csv(spec)
            assert opened.call_count == 1
            assert_array_equal(m.mask, [[True, False], [True, True]])
            routes.add(_route(spec))
        assert routes == {"plain", "csv"}

    def test_savetxt_file_takes_the_plain_route(self, tmp_path):
        # np.savetxt writes NaN as "nan" and 19 significant digits
        rng = np.random.default_rng(7)
        values = rng.standard_normal((20, 5)) * 10.0 ** rng.integers(-8, 8, (20, 5))
        values[rng.random((20, 5)) < 0.2] = np.nan
        path = tmp_path / "s.csv"
        np.savetxt(path, values, delimiter=",")
        spec = CsvMatrixSpec(path=str(path))
        assert _route(spec) == "plain"
        m = read_masked_csv(spec)
        lines = path.read_text().splitlines()
        expected = [[float(tok) for tok in line.split(",")] for line in lines]
        assert 0 < np.count_nonzero(~m.mask) < m.mask.size
        assert_array_equal(m.mask, ~np.isnan(values))
        assert m.values.tobytes() == np.array(expected).tobytes()

    def test_undecodable_bytes_are_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1,2\n3,\xff\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not valid "):
            read_masked_csv(CsvMatrixSpec(path=path))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not valid "):
            read_response_csv(CsvMatrixSpec(path=path))


class TestWriteMaskedCsv:
    def test_round_trip_is_exact_on_observed_cells(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((7, 5)) * 10.0**rng.integers(-8, 8, (7, 5))
        mask = rng.random((7, 5)) < 0.8
        m = MaskedMatrix.from_dense(values, mask)
        path = tmp_path / "round.csv"
        write_masked_csv(m, path)
        spec = CsvMatrixSpec(path=str(path))
        assert _route(spec) == "plain"
        back = read_masked_csv(spec)
        assert_array_equal(back.mask, m.mask)
        assert_array_equal(back.values[back.mask], m.values[m.mask])

    def test_cells_are_shortest_round_trip_decimals(self, tmp_path):
        m = MaskedMatrix.from_dense([[0.1, 7.0]], [[True, False]])
        path = tmp_path / "short.csv"
        write_masked_csv(m, path)
        assert path.read_bytes() == b"0.1,NA\n"
        spec = CsvMatrixSpec(path=str(path))
        assert _route(spec) == "plain"
        back = read_masked_csv(spec)
        assert_array_equal(back.mask, m.mask)
        assert back.values[0, 0] == 0.1

    def test_labels_written_back(self, tmp_path):
        m = MaskedMatrix.from_dense(np.eye(2), np.ones((2, 2), bool), col_labels=("u", "v"))
        path = tmp_path / "lab.csv"
        write_masked_csv(m, path)
        assert path.read_text().splitlines()[0] == "u,v"
        spec = CsvMatrixSpec(path=str(path), has_header=True)
        assert _route(spec) == "plain"
        back = read_masked_csv(spec)
        assert back.col_labels == ("u", "v")


class TestReadResponseCsv:
    def test_column_form(self, tmp_path):
        spec = _write(tmp_path / "y.csv", "1.5\n2.5\n-3\n")
        assert_array_equal(read_response_csv(spec), [1.5, 2.5, -3.0])

    def test_row_form(self, tmp_path):
        spec = _write(tmp_path / "y.csv", "1.5,2.5,-3\n")
        assert_array_equal(read_response_csv(spec), [1.5, 2.5, -3.0])

    def test_missing_entry_rejected(self, tmp_path):
        spec = _write(tmp_path / "y.csv", "1\nNA\n")
        with pytest.raises(BadParam):
            read_response_csv(spec)

    def test_two_dimensional_rejected(self, tmp_path):
        spec = _write(tmp_path / "y.csv", "1,2\n3,4\n")
        with pytest.raises(BadParam):
            read_response_csv(spec)


_PANEL_TEXT = (
    "target,d1,d2\n"
    "1,1,0\n"
    "2,0,2\n"
    "3,1,2\n"
    "4,2,2\n"
    "NA,3,1\n"
    "NA,1,4\n"
)


class TestReadPanelCsv:
    def _spec(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(_PANEL_TEXT)
        return CsvMatrixSpec(path=str(path), has_header=True)

    def test_by_label(self, tmp_path):
        panel = read_panel_csv(self._spec(tmp_path), "target", 4)
        assert panel.target_col == 0
        assert panel.pre_periods == 4
        assert panel.outcomes.col_labels == ("target", "d1", "d2")
        assert panel.donors_pre().col_labels == ("d1", "d2")
        assert_array_equal(panel.target_pre(), [1.0, 2.0, 3.0, 4.0])
        assert panel.donors_post().values.shape == (2, 2)

    def test_by_numeric_string_index(self, tmp_path):
        panel = read_panel_csv(self._spec(tmp_path), "0", 4)
        assert panel.target_col == 0

    def test_by_int_index(self, tmp_path):
        panel = read_panel_csv(self._spec(tmp_path), 1, 4)
        assert panel.target_col == 1

    def test_unknown_label(self, tmp_path):
        with pytest.raises(UnknownUnit):
            read_panel_csv(self._spec(tmp_path), "ghost", 4)

    def test_target_label_naming_two_columns_is_ambiguous(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("target,d1,d1,d2\n1,1,0,2\n2,0,2,1\n3,1,2,2\nNA,3,1,0\n")
        spec = CsvMatrixSpec(path=str(path), has_header=True)
        with pytest.raises(UnknownUnit, match=r"^unit 'd1' labels columns \[1, 2\], expected one$"):
            read_panel_csv(spec, "d1", 3)
        # repeated donor labels are legal when the target is unique
        panel = read_panel_csv(spec, "target", 3)
        assert panel.donors_pre().col_labels == ("d1", "d1", "d2")
        assert read_panel_csv(spec, "d2", 3).target_col == 3

    def test_index_out_of_range(self, tmp_path):
        with pytest.raises(UnknownUnit):
            read_panel_csv(self._spec(tmp_path), 17, 4)

    def test_target_gap_in_pre_period(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("t,d\n1,1\nNA,2\n3,3\n4,4\n")
        with pytest.raises(TargetMissingPre):
            read_panel_csv(CsvMatrixSpec(path=str(path), has_header=True), "t", 3)

    def test_pre_period_bounds(self, tmp_path):
        with pytest.raises(BadParam):
            read_panel_csv(self._spec(tmp_path), "target", 0)
        with pytest.raises(BadParam):
            read_panel_csv(self._spec(tmp_path), "target", 6)

    def test_fractional_pre_periods_is_rejected_not_truncated(self, tmp_path):
        with pytest.raises(BadParam, match=r"^pre_periods=4\.5 must be an integer$"):
            read_panel_csv(self._spec(tmp_path), "target", 4.5)

    def test_fractional_target_index_is_rejected_not_truncated(self, tmp_path):
        with pytest.raises(BadParam, match=r"^target=1\.7 must be an integer$"):
            read_panel_csv(self._spec(tmp_path), 1.7, 4)


def _small_model(col_labels=None):
    rng = np.random.default_rng(11)
    z = MaskedMatrix.from_dense(
        rng.standard_normal((12, 6)), np.ones((12, 6), bool), col_labels=col_labels
    )
    y = rng.standard_normal(12)
    return fit(z, y, k=3)


class TestModelFiles:
    def test_round_trip_bits(self, tmp_path):
        model = _small_model()
        path = tmp_path / "model.json"
        write_model(model, path)
        back = read_model(path)
        assert back.k == model.k
        assert back.rho_hat == model.rho_hat
        assert_array_equal(back.beta_hat, model.beta_hat)
        assert_array_equal(back.singular_values, model.singular_values)

    def test_document_layout(self, tmp_path):
        path = tmp_path / "model.json"
        write_model(_small_model(), path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == MODEL_SCHEMA_VERSION
        assert set(doc) == {"schema_version", "k", "rho_hat", "beta_hat", "singular_values"}

    def test_unlabelled_model_keeps_schema_1_bytes(self, tmp_path):
        path = tmp_path / "model.json"
        write_model(PcrModel(beta_hat=[0.1, -2.0], k=1, rho_hat=0.5, singular_values=[3.0]), path)
        assert path.read_bytes() == (
            b'{"beta_hat": [0.1, -2.0], "k": 1, "rho_hat": 0.5, '
            b'"schema_version": 1, "singular_values": [3.0]}\n'
        )

    def test_schema_1_document_loads(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            '{"beta_hat": [0.1, -2.0], "k": 1, "rho_hat": 0.5, '
            '"schema_version": 1, "singular_values": [3.0]}\n'
        )
        back = read_model(path)
        assert back.beta_hat.tolist() == [0.1, -2.0] and back.col_labels is None

    def test_byte_order_mark_is_not_part_of_the_document(self, tmp_path):
        # as a Windows editor may save a schema-1 model.json
        from eivpcr import PredictionConfig, predict

        model = _small_model()
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        write_model(model, plain)
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        back = read_model(marked)
        assert back.col_labels is None
        z_new = MaskedMatrix.from_dense(np.random.default_rng(4).standard_normal((5, 6)))
        cfg = PredictionConfig(ell=2)
        want = predict(read_model(plain), z_new, cfg)
        assert predict(back, z_new, cfg).tobytes() == want.tobytes()

    def test_labelled_model_round_trips_as_schema_2(self, tmp_path):
        model = _small_model(("a", "b c", "", 'd"e', "f", "g"))
        path = tmp_path / "model.json"
        write_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 2
        assert doc["col_labels"] == ["a", "b c", "", 'd"e', "f", "g"]
        back = read_model(path)
        assert back.col_labels == model.col_labels
        assert_array_equal(back.beta_hat, model.beta_hat)

    def _tamper(self, tmp_path, mutate, model=None):
        path = tmp_path / "model.json"
        write_model(model or _small_model(), path)
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        return path

    def test_schema_mismatches(self, tmp_path):
        cases = [
            lambda d: d.pop("schema_version"),
            lambda d: d.__setitem__("schema_version", 99),
            lambda d: d.__setitem__("k", "three"),
            lambda d: d.__setitem__("k", True),
            lambda d: d.pop("beta_hat"),
            lambda d: d.__setitem__("beta_hat", [1.0, None, 2.0]),
            lambda d: d.__setitem__("rho_hat", [0.5]),
        ]
        for mutate in cases:
            with pytest.raises(SchemaMismatch):
                read_model(self._tamper(tmp_path, mutate))
        labelled = _small_model(tuple("abcdef"))
        for mutate in [
            lambda d: d.pop("col_labels"),
            lambda d: d.__setitem__("col_labels", "abcdef"),
            lambda d: d.__setitem__("col_labels", ["a", "b", "c", "d", "e", 6]),
            lambda d: d.__setitem__("schema_version", 3),
        ]:
            with pytest.raises(SchemaMismatch):
                read_model(self._tamper(tmp_path, mutate, labelled))
        with pytest.raises(CorruptModel, match="5 column labels for 6 coefficients"):
            read_model(self._tamper(tmp_path, lambda d: d["col_labels"].pop(), labelled))

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]")
        with pytest.raises(SchemaMismatch):
            read_model(path)
        path.write_text("{not json")
        with pytest.raises(SchemaMismatch):
            read_model(path)
        path.write_bytes(b'{"k": \xff}')
        with pytest.raises(SchemaMismatch, match="not valid JSON"):
            read_model(path)

    def test_corrupt_values(self, tmp_path):
        with pytest.raises(CorruptModel):
            read_model(self._tamper(
                tmp_path, lambda d: d.__setitem__("singular_values", sorted(d["singular_values"]))
            ))
        with pytest.raises(CorruptModel):
            read_model(self._tamper(tmp_path, lambda d: d.__setitem__("rho_hat", 1.5)))

    def test_coefficient_no_float_holds(self, tmp_path):
        # json reads 1 followed by 400 zeros as an int; numpy cannot make it a float
        path = self._tamper(tmp_path, lambda d: d["beta_hat"].__setitem__(0, 10**400))
        with pytest.raises(CorruptModel, match="int too large to convert to float"):
            read_model(path)

    def test_rank_above_coefficient_count(self, tmp_path):
        def mutate(d):
            d.update(k=5, beta_hat=d["beta_hat"][:3], singular_values=[5.0, 4.0, 3.0, 2.0, 1.0])

        with pytest.raises(CorruptModel, match="k=5 exceeds the 3 coefficients"):
            read_model(self._tamper(tmp_path, mutate))

    def test_reread_model_predicts(self, tmp_path):
        # right vectors are not stored, but the loaded model must still predict
        from eivpcr import PredictionConfig, predict

        path = tmp_path / "model.json"
        model = _small_model()
        write_model(model, path)
        back = read_model(path)
        assert isinstance(back, PcrModel)
        assert model.right_vectors is not None
        assert back.right_vectors is None
        rng = np.random.default_rng(21)
        z_new = MaskedMatrix.from_dense(rng.standard_normal((5, 6)), np.ones((5, 6), bool))
        cfg = PredictionConfig(ell=2)
        assert_array_equal(predict(back, z_new, cfg), predict(model, z_new, cfg))


class TestRecordAndJsonWriters:
    def test_records_csv(self, tmp_path):
        path = tmp_path / "r.csv"
        write_records_csv([{"a": 1, "b": 2.5}, {"a": 2, "b": np.float64(0.1)}], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2.5"
        assert lines[2] == "2,0.1"

    def test_records_csv_rejects_mixed_fields(self, tmp_path):
        with pytest.raises(BadParam):
            write_records_csv([{"a": 1}, {"b": 2}], tmp_path / "r.csv")
        with pytest.raises(BadParam):
            write_records_csv([], tmp_path / "r.csv")

    def test_write_json_handles_numpy_values(self, tmp_path):
        path = tmp_path / "o.json"
        write_json({"v": np.float64(0.5), "n": np.int64(3), "a": np.arange(2)}, path)
        assert json.loads(path.read_text()) == {"a": [0, 1], "n": 3, "v": 0.5}

    def test_json_default_rejects_other_types(self):
        with pytest.raises(TypeError, match="^set is not JSON serializable$"):
            dataio.json_default({1})
