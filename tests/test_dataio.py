import csv
import json
import math
import re
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
    """The reader as a per-cell loop: the reference the vectorized reader
    must match bit for bit, errors included."""
    with open(spec.path, newline="") as f:
        rows = list(csv.reader(f))
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
        rows.insert(0, [f" u{j} " for j in range(draw(widths))])
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(",".join(row) for row in rows)
    if draw(st.booleans()):
        text += newline
    return text, has_header


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
        spec = _write(tmp_path / "m.csv", "1,2\n\n3,4\n")
        with pytest.raises(Ragged, match="row 2 has 0 fields, expected 2"):
            read_masked_csv(spec)

    def test_float_syntax_beyond_plain_decimals(self, tmp_path):
        m = read_masked_csv(_write(tmp_path / "m.csv", "1_000,١٢,1e-320,-.5\n"))
        assert m.values.tolist() == [[1000.0, 12.0, 1e-320, -0.5]]

    def test_errors_in_later_blocks_name_their_row(self, tmp_path):
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

    @settings(max_examples=300)
    @given(case=_csv_cases(), block=st.sampled_from([1, 2, 5, dataio._BLOCK_CELLS]))
    def test_matches_reference_reader(self, tmp_path_factory, case, block):
        text, has_header = case
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        path.write_bytes(text.encode())
        spec = CsvMatrixSpec(path=str(path), has_header=has_header)
        expected = _outcome(_reference_read_masked_csv, spec)
        with mock.patch.object(dataio, "_BLOCK_CELLS", block):
            assert _outcome(read_masked_csv, spec) == expected

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
        back = read_masked_csv(CsvMatrixSpec(path=str(path)))
        assert_array_equal(back.mask, m.mask)
        assert_array_equal(back.values[back.mask], m.values[m.mask])

    def test_labels_written_back(self, tmp_path):
        m = MaskedMatrix.from_dense(np.eye(2), np.ones((2, 2), bool), col_labels=("u", "v"))
        path = tmp_path / "lab.csv"
        write_masked_csv(m, path)
        assert path.read_text().splitlines()[0] == "u,v"
        back = read_masked_csv(CsvMatrixSpec(path=str(path), has_header=True))
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


def _small_model():
    rng = np.random.default_rng(11)
    z = MaskedMatrix.from_dense(rng.standard_normal((12, 6)), np.ones((12, 6), bool))
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

    def _tamper(self, tmp_path, mutate):
        path = tmp_path / "model.json"
        write_model(_small_model(), path)
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

    def test_reread_model_predicts(self, tmp_path):
        # retained factors are not stored, but the loaded model must still predict
        from eivpcr import PredictionConfig, predict

        path = tmp_path / "model.json"
        model = _small_model()
        write_model(model, path)
        back = read_model(path)
        assert isinstance(back, PcrModel)
        assert back.retained is None
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
