import csv
import logging
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimediation.data import (
    DataError,
    ModelSpec,
    build_design,
    dataset_from_arrays,
    load_csv,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_three_row_csv(self, tmp_path):
        path = write(tmp_path, "T,M,Y\n0,1.5,2.0\n1,2.5,3.0\n0,0.5,1.0\n")
        ds = load_csv(path)
        assert ds.n == 3
        assert ds.column_names == ("T", "M", "Y")
        assert np.array_equal(ds.column("T"), [0.0, 1.0, 0.0])
        assert ds.n_dropped == 0

    def test_all_rows_unusable_is_error(self, tmp_path):
        path = write(tmp_path, "a,b\n1,x\n")
        with pytest.raises(DataError, match="no usable rows"):
            load_csv(path)

    def test_named_column_subset(self, tmp_path):
        header = "treat,job_seek,depress2,econ_hard,sex,age"
        path = write(tmp_path, header + "\n1,3.2,2.1,2,0,35\n0,4.0,1.5,3,1,42\n")
        ds = load_csv(path, columns=["treat", "job_seek", "depress2", "econ_hard", "sex", "age"])
        assert ds.column_names == ("treat", "job_seek", "depress2", "econ_hard", "sex", "age")
        assert ds.n == 2

    def test_rows_with_missing_cells_dropped_and_counted(self, tmp_path):
        path = write(tmp_path, "T,Y\n0,1.0\n1,\n0,NA\n1,2.0\n")
        ds = load_csv(path)
        assert ds.n == 2
        assert ds.n_dropped == 2

    def test_missing_cells_outside_selected_columns_ignored(self, tmp_path):
        path = write(tmp_path, "T,Y,junk\n0,1.0,abc\n1,2.0,def\n")
        ds = load_csv(path, columns=["T", "Y"])
        assert ds.n == 2
        assert ds.n_dropped == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(str(tmp_path / "absent.csv"))

    @pytest.mark.parametrize("columns", [None, ["b"]])
    @pytest.mark.parametrize(
        "text, lineno, found",
        [
            ("a,b\n1,2,3\n", 2, 3),
            ("a,b\n1,2\n3,4,\n5,6\n", 3, 3),
            ("a,b\n1,2\n3\n", 3, 1),
            ("a,b\n1,2\n   \n3,4\n", 3, 1),
            ('a,b\n1,"x\n2"\n3\n', 4, 1),
        ],
        ids=["extra-cell", "trailing-comma", "short-row", "whitespace-line", "after-multi-line-cell"],
    )
    def test_cell_count_mismatch_names_line(self, tmp_path, text, lineno, found, columns):
        path = write(tmp_path, text)
        with pytest.raises(DataError, match=rf"data\.csv:{lineno}: expected 2 cells, found {found}$"):
            load_csv(path, columns=columns)

    def test_lone_carriage_return_ends_a_record(self, tmp_path):
        # Split at line feeds only, "1,2\r3" has the header's comma count.
        with pytest.raises(DataError, match=r"data\.csv:3: expected 2 cells, found 1$"):
            load_csv(write(tmp_path, "a,b\n1,2\r3\n"), columns=["a"])

    def test_unknown_requested_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="not found in header"):
            load_csv(path, columns=["a", "zzz"])

    def test_reload_is_byte_identical(self, tmp_path):
        path = write(tmp_path, "T,Y\n0,1.25\n1,-3.5e-2\n0,7\n")
        a = load_csv(path)
        b = load_csv(path)
        for name in a.column_names:
            assert a.column(name).tobytes() == b.column(name).tobytes()

    @pytest.mark.parametrize("cell", ["inf", "nan", "-Infinity", " NaN ", "1e400"])
    def test_non_finite_cells_dropped(self, tmp_path, cell):
        path = write(tmp_path, f"T,Y\n0,{cell}\n1,1.0\n0,2.0\n")
        ds = load_csv(path)
        assert ds.n == 2
        assert ds.n_dropped == 1
        assert np.array_equal(ds.column("Y"), [1.0, 2.0])

    @pytest.mark.parametrize(
        "text",
        [
            "T,Y\n0,1.5\n\n1,2.5\n",
            "T,Y\r\n0,1.5\r\n\r\n1,2.5\r\n",
            "T,Y\n0,1.5\n1,2.5",
            'T,Y\n0,"1.5"\n1,2.5\n',
            "T,Y\n 0 ,1.5\t\n1, 2.5 \n",
            "T,Y\n0,1.5\n1,2.5\n\n\n",
        ],
        ids=["blank-line", "crlf", "no-final-newline", "quoted-cell", "spaces", "trailing-blank-lines"],
    )
    def test_accepted_layouts(self, tmp_path, text):
        for columns in (None, ["Y"]):
            ds = load_csv(write(tmp_path, text), columns=columns)
            assert (ds.n, ds.n_dropped) == (2, 0)
            assert np.array_equal(ds.column("Y"), [1.5, 2.5])

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("a,b\n1," + "1" * (csv.field_size_limit() + 1) + "\n3,4\n", 2),
            ("a,b\n1,2\n\n3," + "1" * (csv.field_size_limit() + 1) + "\n", 4),
            ("a,b" + "1" * (csv.field_size_limit() + 1) + "\n1,2\n", 1),
        ],
        ids=["first-row", "after-blank-line", "header"],
    )
    def test_over_long_field_is_data_error_naming_its_line(self, tmp_path, text, lineno):
        path = write(tmp_path, text)
        with pytest.raises(DataError, match=rf"data\.csv:{lineno}: field larger than field limit"):
            load_csv(path, columns=["a"])

    @pytest.mark.parametrize("na_row, dropped", [("", 0), ("1,NA\n", 1)], ids=["bulk", "rows"])
    def test_byte_order_mark_is_ignored(self, tmp_path, na_row, dropped):
        text = "T,Y\n0,1.5\n" + na_row + "1,2.5\n"
        plain = load_csv(write(tmp_path, text, "plain.csv"))
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text.encode())
        bom = load_csv(str(tmp_path / "bom.csv"))
        assert bom.column_names == plain.column_names == ("T", "Y")
        assert (bom.n, bom.n_dropped) == (plain.n, plain.n_dropped) == (2, dropped)
        for name in plain.column_names:
            assert bom.column(name).tobytes() == plain.column(name).tobytes()

    def test_underscore_digits_parse_like_float(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,b\n1_000,2\n3,4\n"))
        assert np.array_equal(ds.column("a"), [1000.0, 3.0])
        assert ds.n_dropped == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("columns", [None, ["a"]])
    def test_header_only_is_error(self, tmp_path, columns):
        with pytest.raises(DataError, match=r"no usable rows after filtering \(0 dropped\)"):
            load_csv(write(tmp_path, "a,b\n"), columns=columns)

    def test_one_row_and_one_column(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,b\n1,2\n"))
        assert ds.n == 1 and np.array_equal(ds.column("b"), [2.0])
        ds = load_csv(write(tmp_path, "a\n1\n\n2\n  \n"))
        assert (ds.n, ds.n_dropped) == (2, 1)
        assert np.array_equal(ds.column("a"), [1.0, 2.0])

    @pytest.mark.parametrize("columns", [None, ["a"], ["b", "a"]])
    def test_duplicated_header_name_is_error(self, tmp_path, columns):
        path = write(tmp_path, "a,a,b\n1,2,3\n")
        with pytest.raises(DataError, match=r"duplicated header names: \['a'\]"):
            load_csv(path, columns=columns)

    def test_duplicated_header_name_not_retained_is_ignored(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,a,b\n1,2,3\n"), columns=["b"])
        assert ds.column_names == ("b",)
        assert np.array_equal(ds.column("b"), [3.0])

    def test_debug_line_names_route(self, tmp_path, caplog):
        caplog.set_level(logging.DEBUG, logger="semimediation.data")
        load_csv(write(tmp_path, "a,b\n1,2\nnan,3\n"))
        load_csv(write(tmp_path, 'a,b\n1,"2"\n'))
        first, second = (r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG)
        assert first.endswith("bulk route kept 1 row(s), dropped 1")
        assert second.endswith("rows route kept 1 row(s), dropped 0; bulk parse declined: quote character")

    @pytest.mark.parametrize(
        "header, name, route",
        [
            ('"T","Y"', "Y", "bulk"),
            ('"T,x","Y"', "Y", "bulk"),
            ('T"x,"Y"', "Y", "bulk"),
            ('"T\nx","Y"', "Y", "rows"),
            ('T"x,"Y\nz"', "Y\nz", "rows"),
        ],
        ids=["quoted", "quoted-comma", "odd-quotes", "quoted-newline", "even-quotes-open"],
    )
    def test_quoted_header(self, tmp_path, caplog, header, name, route):
        # R's write.csv quotes every header name; a header record that ends on
        # its first line leaves the data lines to the bulk parse.
        caplog.set_level(logging.DEBUG, logger="semimediation.data")
        ds = load_csv(write(tmp_path, header + "\n0,1.5\n1,nan\n1,2.5\n"), columns=[name])
        assert (ds.n, ds.n_dropped) == (2, 1)
        assert np.array_equal(ds.column(name), [1.5, 2.5])
        (message,) = (r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG)
        assert f": {route} route kept 2 row(s), dropped 1" in message

    def test_unclosed_quote_in_header_takes_every_line(self, tmp_path):
        with pytest.raises(DataError, match=r"no usable rows after filtering \(0 dropped\)"):
            load_csv(write(tmp_path, 'T,"Y\n0,1.5\n1,2.5\n'))

    def test_late_unparseable_cell_falls_back_to_rows(self, tmp_path, caplog):
        caplog.set_level(logging.DEBUG, logger="semimediation.data")
        path = write(tmp_path, "a,b\n" + "1,2.5\n" * 5000 + "3,NA\n")
        ds = load_csv(path)
        assert (ds.n, ds.n_dropped) == (5000, 1)
        assert np.array_equal(ds.column("b"), np.full(5000, 2.5))
        (message,) = (r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG)
        assert "rows route kept 5000 row(s), dropped 1; bulk parse declined: could not convert string 'NA'" in message

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("first", ["0,1.5\n", '0,"1.5"\n'], ids=["bulk", "rows"])
    def test_pipe_is_read_once(self, first):
        # A pipe yields its bytes to the first reader only, as `--data <(zcat f.csv.gz)`
        # does. 20 kB is more than one read buffer and less than the pipe's capacity.
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, ("T,Y\n" + first + "1,2.5\n" * 3000).encode())
            os.close(write_end)
            ds = load_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert ds.n == 3001
        assert np.array_equal(ds.column("Y"), [1.5] + [2.5] * 3000)

    def test_quoted_line_end_in_unread_column(self, tmp_path):
        # Each physical line has the header's comma count, but the record spans two.
        ds = load_csv(write(tmp_path, 'a,b\n1,"x\n2,0"\n3,4\n'), columns=["a"])
        assert np.array_equal(ds.column("a"), [1.0, 3.0])


def oracle_load(path, columns):
    """The CSV contract written out directly: csv.reader, float() and a finite filter."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        # Each record with the line it ends on.
        records = [(reader.line_num, record) for record in reader]
    header = [h.strip() for h in records[0][1]]
    keep = [header.index(c) for c in (header if columns is None else columns)]
    rows, dropped = [], 0
    for lineno, record in records[1:]:
        if not record:
            continue
        if len(record) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} cells, found {len(record)}")
        try:
            values = [float(record[i]) for i in keep]
        except ValueError:
            values = [math.nan]
        if all(math.isfinite(v) for v in values):
            rows.append(values)
        else:
            dropped += 1
    if not rows:
        raise DataError(f"{path}: no usable rows after filtering ({dropped} dropped)")
    return np.array(rows), dropped


NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), st.integers(-(10**6), 10**6).map(str))
CELLS = st.one_of(
    NUMBERS,
    NUMBERS,
    NUMBERS,
    st.sampled_from(
        ["", "NA", "abc", "nan", "inf", "-Infinity", "1e400", "1_000", " 2.5 ", "\t-3\t", '"4.5"', "+.5", "١"]
    ),
)


@st.composite
def csv_files(draw):
    """A small file mixing the cell kinds, row kinds and line endings the contract names."""
    width = draw(st.integers(1, 4))
    header = [f"c{j}" for j in range(width)]
    endings = draw(st.sampled_from([["\n"], ["\r\n"], ["\r"], ["\n", "\r\n", "\r"]]))
    # Header names plain, quoted as R's write.csv does, or quoted around a comma or a line end.
    quoting = draw(st.sampled_from(["plain", "quoted", "comma", "newline"]))
    if quoting != "plain":
        header[0] = {"quoted": "c0", "comma": "c,0", "newline": "c\n0"}[quoting]
    text = ",".join(header if quoting == "plain" else [f'"{h}"' for h in header])
    for _ in range(draw(st.integers(0, 6))):
        text += draw(st.sampled_from(endings))
        kind = draw(st.sampled_from(["row"] * 12 + ["blank", "blank", "spaces", "ragged", "quoted-newline"]))
        if kind == "spaces":
            text += "  "
        elif kind == "quoted-newline":
            # Each physical line has the header's comma count; the record does not end at the first.
            cells = draw(st.lists(CELLS, min_size=width - 1, max_size=width - 1))
            text += ",".join([*cells, '"x\n2' + ",0" * (width - 1) + '"'])
        elif kind != "blank":
            n_cells = width if kind == "row" else draw(st.sampled_from([width - 1, width + 1]))
            text += ",".join(draw(st.lists(CELLS, min_size=n_cells, max_size=n_cells)))
    if draw(st.booleans()):
        text += draw(st.sampled_from(endings))
    columns = draw(st.none() | st.lists(st.sampled_from(header), min_size=1, max_size=width, unique=True))
    return text, columns


@given(csv_files())
@settings(max_examples=500, deadline=None)
def test_load_csv_matches_oracle(tmp_path_factory, case):
    text, columns = case
    path = str(tmp_path_factory.mktemp("oracle") / "data.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    try:
        expected = oracle_load(path, columns)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            load_csv(path, columns=columns)
        assert str(got.value) == str(exc)
        return
    ds = load_csv(path, columns=columns)
    mat, dropped = expected
    assert (ds.n, ds.n_dropped) == (mat.shape[0], dropped)
    for j, name in enumerate(ds.column_names):
        assert ds.column(name).tobytes() == np.ascontiguousarray(mat[:, j]).tobytes()


class TestBuildDesign:
    def test_smallest_model(self):
        ds = dataset_from_arrays(T=np.array([0.0, 1, 0, 1]), Y=np.array([1.0, 2, 3, 4]))
        design = build_design(ds, ModelSpec(response="Y", treatment="T"))
        assert design.values.shape == (4, 2)
        assert design.column_roles == ("intercept", "treatment")
        assert np.array_equal(design.values[:, 0], np.ones(4))
        assert np.array_equal(design.values[:, 1], ds.column("T"))

    def test_interaction_column_is_exact_product(self):
        t = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
        m = np.array([2.0, 3.0, -1.0, 0.5, 2.5])
        ds = dataset_from_arrays(T=t, M=m, Y=np.array([0.0, 1, 2, 3, 4]))
        design = build_design(ds, ModelSpec(response="Y", treatment="T", mediator="M", interaction=True))
        assert np.array_equal(design.values[:2, 3], np.array([0.0, 3.0]))
        assert np.array_equal(design.values[:, 3], t * m)
        assert design.column_roles == ("intercept", "treatment", "mediator", "interaction")

    def test_rescaled_outcome_interaction_layout(self):
        rng = np.random.default_rng(1)
        n = 30
        treat = (rng.random(n) < 0.5).astype(float)
        frac = rng.random(n)
        time = rng.exponential(200.0, n)
        ds = dataset_from_arrays(TREAT=treat, FRAC=frac, TIME=time).with_scaled_column("TIME", 0.01)
        design = build_design(ds, ModelSpec(response="TIME", treatment="TREAT", mediator="FRAC", interaction=True))
        assert design.p == 4
        assert design.column_roles == ("intercept", "treatment", "mediator", "interaction")
        assert np.array_equal(design.values[:, 3], treat * frac)

    def test_non_binary_treatment_rejected(self):
        ds = dataset_from_arrays(T=np.array([0.0, 2.0]), Y=np.array([1.0, 2.0]))
        with pytest.raises(DataError, match="0/1"):
            build_design(ds, ModelSpec(response="Y", treatment="T"))

    def test_missing_column_rejected(self):
        ds = dataset_from_arrays(T=np.array([0.0, 1.0]), Y=np.array([1.0, 2.0]))
        with pytest.raises(DataError, match="not present"):
            build_design(ds, ModelSpec(response="Y", treatment="T", covariates=("ghost",)))

    def test_single_intercept_role(self, laplace_mediation_data):
        design = build_design(
            laplace_mediation_data,
            ModelSpec(response="Y", treatment="T", mediator="M", covariates=("X1",), interaction=True),
        )
        assert design.column_roles.count("intercept") == 1
        assert np.all(design.values[:, 0] == 1.0)
        assert design.column_roles == ("intercept", "treatment", "mediator", "interaction", "covariate")

    def test_duplicate_roles_rejected(self):
        ds = dataset_from_arrays(T=np.array([0.0, 1.0]), Y=np.array([1.0, 2.0]))
        with pytest.raises(DataError, match="distinct"):
            build_design(ds, ModelSpec(response="Y", treatment="T", covariates=("T",)))


def test_scaled_column_copy_semantics():
    ds = dataset_from_arrays(T=np.array([0.0, 1.0]), Y=np.array([1.0, 2.0]))
    scaled = ds.with_scaled_column("Y", 0.5)
    assert np.array_equal(scaled.column("Y"), [0.5, 1.0])
    assert np.array_equal(ds.column("Y"), [1.0, 2.0])
    with pytest.raises(DataError):
        ds.with_scaled_column("Y", 0.0)
