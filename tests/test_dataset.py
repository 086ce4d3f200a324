"""Dataset, group, and matrix ingestion."""

import io

import numpy as np
import pytest
from numpy.testing import assert_allclose

import revalloc
from revalloc.dataset import (
    GroupAssignment,
    ParseError,
    ValidationError,
    check_scores,
    load_dataset,
    load_groups,
    load_matrix,
    load_reference,
    normalize,
    write_dataset,
    write_matrix,
)

from conftest import TOY_DATA, TOY_GROUPS, TOY_MATRIX, TOY_SHARES_REFERENCE


def make_csv(text: str) -> io.StringIO:
    return io.StringIO(text.strip() + "\n")


def test_toy_dataset_shape(toy_dataset):
    assert toy_dataset.n == 5
    assert toy_dataset.m == 3
    assert toy_dataset.s == 2
    assert toy_dataset.names == [f"DMU_{i}" for i in range(1, 6)]
    assert toy_dataset.raw_inputs[0, 0] == 23


def test_bank_dataset_shape(bank_dataset):
    assert bank_dataset.n == 18
    assert bank_dataset.m == 3
    assert bank_dataset.s == 3
    assert bank_dataset.raw_outputs[7, 1] == 306926  # largest loan book


def test_normalization_column_arithmetic(toy_dataset):
    # first input column is (23, 60, 44, 40, 70); sum 237
    expected = np.array([23, 60, 44, 40, 70]) / 237.0
    assert_allclose(toy_dataset.norm_inputs[:, 0], expected, rtol=0, atol=1e-15)


def test_normalized_columns_sum_to_one(toy_dataset, bank_dataset):
    for ds in (toy_dataset, bank_dataset):
        assert_allclose(ds.norm_inputs.sum(axis=0), 1.0, rtol=0, atol=1e-12)
        assert_allclose(ds.norm_outputs.sum(axis=0), 1.0, rtol=0, atol=1e-12)


def test_single_dmu_normalizes_to_one():
    ds = load_dataset(make_csv("dmu,x:a,y:b\nonly,7,3"))
    assert ds.norm_inputs[0, 0] == 1.0
    assert ds.norm_outputs[0, 0] == 1.0


def test_identical_dmus_normalize_to_half():
    ds = load_dataset(make_csv("dmu,x:a,y:b\nA,4,9\nB,4,9"))
    assert_allclose(ds.norm_inputs, 0.5, rtol=0, atol=0)
    assert_allclose(ds.norm_outputs, 0.5, rtol=0, atol=0)


def test_normalize_scale_invariant_per_column():
    rng = np.random.default_rng(7)
    X = rng.uniform(0.1, 9.0, (6, 3))
    Y = rng.uniform(0.1, 9.0, (6, 2))
    nx, ny = normalize(X, Y)
    X2 = X.copy()
    X2[:, 1] *= 37.5
    Y2 = Y.copy()
    Y2[:, 0] *= 0.004
    nx2, ny2 = normalize(X2, Y2)
    assert_allclose(nx2, nx, rtol=0, atol=1e-12)
    assert_allclose(ny2, ny, rtol=0, atol=1e-12)


def test_round_trip_preserves_raw_bits(toy_dataset, tmp_path):
    rng = np.random.default_rng(3)
    ds = revalloc.Dataset(
        names=["a", "b", "c"],
        input_names=["i1", "i2"],
        output_names=["o1"],
        raw_inputs=rng.uniform(0.01, 5.0, (3, 2)),
        raw_outputs=rng.uniform(0.01, 5.0, (3, 1)),
    )
    path = tmp_path / "ds.csv"
    write_dataset(ds, path)
    back = load_dataset(path)
    assert (back.raw_inputs == ds.raw_inputs).all()
    assert (back.raw_outputs == ds.raw_outputs).all()
    assert_allclose(back.norm_inputs, ds.norm_inputs, rtol=0, atol=1e-12)


def test_all_zero_input_dmu_rejected():
    with pytest.raises(ValidationError, match="positive input"):
        load_dataset(make_csv("dmu,x:a,x:b,y:c\nA,0,0,3\nB,1,2,4"))


def test_zero_column_sum_rejected():
    with pytest.raises(ValidationError, match="zero sum"):
        load_dataset(make_csv("dmu,x:a,y:c\nA,1,0\nB,2,0"))


def test_duplicate_names_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        load_dataset(make_csv("dmu,x:a,y:c\nA,1,2\nA,2,3"))
    with pytest.raises(ValidationError, match="duplicate"):
        load_matrix(make_csv("dmu,A,A\nA,1,0.5\nA,0.5,1"))


def test_blank_name_in_matrix_header_rejected():
    with pytest.raises(ValidationError, match="DMU 2 of 2 has a blank name"):
        load_matrix(make_csv("dmu,A, \nA,1,0.5\n ,0.5,1"))


@pytest.mark.parametrize("cell", ["-1", "nan", "inf", "oops", "1_5", "\u0663"])
def test_bad_cells_are_parse_errors(cell):
    with pytest.raises(ParseError):
        load_dataset(make_csv(f"dmu,x:a,y:c\nA,{cell},2\nB,2,3"))


def test_unrecognized_header_rejected():
    with pytest.raises(ParseError, match="unrecognized"):
        load_dataset(make_csv("dmu,x:a,weird,y:c\nA,1,5,2"))


def test_header_needs_both_prefixes():
    with pytest.raises(ParseError):
        load_dataset(make_csv("dmu,x:a,x:b\nA,1,2"))


def test_column_order_is_prefix_driven():
    # outputs may appear before inputs; identification is by prefix
    ds = load_dataset(make_csv("dmu,y:out,x:in\nA,10,1\nB,20,3"))
    assert ds.input_names == ["in"]
    assert ds.output_names == ["out"]
    assert ds.raw_inputs[1, 0] == 3


def test_load_toy_matrix_cells(toy_matrix):
    assert toy_matrix.n == 5
    assert toy_matrix.values[1, 0] == 0.89  # evaluator 2 scoring target 1
    assert (np.diag(toy_matrix.values) == 1.0).all()


def test_load_bank_matrix_cells(bank_matrix):
    assert bank_matrix.n == 18
    assert bank_matrix.values[4, 0] == 0.30  # evaluator 5 scoring target 1


def test_singleton_matrix_valid():
    m = load_matrix(make_csv("dmu,A\nA,1.0"))
    assert m.values.shape == (1, 1)


def test_empty_matrix_rejected():
    # used to fail inside numpy ("zero-size array to reduction operation")
    with pytest.raises(ValidationError, match="at least one DMU"):
        revalloc.CrossEfficiencyMatrix(names=[], values=np.empty((0, 0)))


def test_non_square_matrix_rejected():
    with pytest.raises(ValidationError, match="square"):
        load_matrix(make_csv("dmu,A,B\nA,1,0.5"))


def test_out_of_range_matrix_entry_rejected():
    with pytest.raises(ValidationError, match="range"):
        load_matrix(make_csv("dmu,A,B\nA,1,1.5\nB,0.5,1"))


def test_matrix_round_trip_full_precision(tmp_path, bank_matrix):
    rng = np.random.default_rng(11)
    values = rng.uniform(0.001, 1.0, (7, 7))
    m = revalloc.CrossEfficiencyMatrix(names=[f"d{i}" for i in range(7)], values=values)
    path = tmp_path / "m.csv"
    write_matrix(m, path)
    back = load_matrix(path)
    assert (back.values == values).all()


def test_edge_floats_round_trip_bit_exactly(tmp_path):
    # signed zero, subnormal and smallest normal, tiny, inexact, and one ulp below 1
    values = np.array([-0.0, 5e-324, 2.2250738585072014e-308, 1e-17, 0.1, 1 / 3,
                       1 - 2**-53, 1.0, 0.5]).reshape(3, 3)
    path = tmp_path / "m.csv"
    write_matrix(revalloc.CrossEfficiencyMatrix(names=["a", "b", "c"], values=values), path)
    assert path.read_text(encoding="utf-8") == (
        "dmu,a,b,c\n"
        "a,-0.0,5e-324,2.2250738585072014e-308\n"
        "b,1e-17,0.1,0.3333333333333333\n"
        "c,0.9999999999999999,1.0,0.5\n")
    assert load_matrix(path).values.tobytes() == values.tobytes()

    ds = revalloc.Dataset(names=["A", "B"], input_names=["in"], output_names=["out"],
                          raw_inputs=[[1e16], [123456789.12345679]],
                          raw_outputs=[[1e-300], [1e16]])
    path = tmp_path / "ds.csv"
    write_dataset(ds, path)
    assert path.read_text(encoding="utf-8") == (
        "dmu,x:in,y:out\n"
        "A,1e+16,1e-300\n"
        "B,123456789.12345679,1e+16\n")
    back = load_dataset(path)
    assert back.raw_inputs.tobytes() == ds.raw_inputs.tobytes()
    assert back.raw_outputs.tobytes() == ds.raw_outputs.tobytes()


def test_load_groups_round_trip(toy_dataset):
    ga = load_groups(TOY_GROUPS, toy_dataset.names)
    assert ga.H == 2
    assert ga.groups.tolist() == [1, 1, 2, 2, 1]


def test_groups_must_cover_dataset(toy_dataset):
    with pytest.raises(ValidationError, match="cover"):
        load_groups(make_csv("dmu,group\nDMU_1,1"), toy_dataset.names)


def test_group_ids_must_be_contiguous():
    with pytest.raises(ValidationError, match="cover 1"):
        GroupAssignment(groups=np.array([1, 3, 1]), H=3)


def test_group_ids_must_be_positive(toy_dataset):
    bad = make_csv("dmu,group\n" + "\n".join(f"DMU_{i},0" for i in range(1, 6)))
    with pytest.raises(ValidationError, match="positive"):
        load_groups(bad, toy_dataset.names)


def test_blank_lines_before_the_header_are_skipped():
    # make_csv strips the text, so the blank lines go in through StringIO
    names = ["A", "B"]
    blank = "\n , \n\n"
    assert load_dataset(io.StringIO(blank + "dmu,x:a,y:b\nA,1,2\n\nB,2,3\n")).names == names
    assert load_groups(io.StringIO(blank + "dmu,group\nA,1\n\nB,2\n"), names).H == 2
    assert load_reference(io.StringIO(blank + "dmu,phi\nA,0.25\n\nB,0.5\n"),
                          names).tolist() == [0.25, 0.5]
    assert load_matrix(io.StringIO(blank + "dmu,A,B\nA,1,0.5\n\nB,0.5,1\n")).names == names


@pytest.mark.parametrize("rows, error, message", [
    ("A,1\nB,2\nA,1", ValidationError, "line 4: duplicate row for DMU 'A'"),
    ("A,1\nC,1\nB,2", ValidationError, "line 3: unknown DMU 'C'"),
    ("A,1", ValidationError, r"file does not cover DMUs \['B'\]"),
    ("A,1\nB", ParseError, "line 3: expected 2 fields, got 1"),
], ids=["duplicate", "unknown", "missing", "short-row"])
def test_keyed_files_name_every_dmu_exactly_once(rows, error, message):
    for load, kind, column in ((load_groups, "groups", "group"),
                               (load_reference, "reference", "phi")):
        with pytest.raises(error, match=f"{kind} {message}"):
            load(make_csv(f"dmu,{column}\n{rows}"), ["A", "B"])


TOY_NAMES = [f"DMU_{i}" for i in range(1, 6)]


@pytest.mark.parametrize("load, path", [
    (load_dataset, TOY_DATA),
    (lambda source: load_groups(source, TOY_NAMES), TOY_GROUPS),
    (lambda source: load_reference(source, TOY_NAMES), TOY_SHARES_REFERENCE),
    (load_matrix, TOY_MATRIX),
], ids=["dataset", "groups", "reference", "matrix"])
def test_byte_order_mark_is_skipped(tmp_path, load, path):
    bom = tmp_path / path.name
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())

    def fields(obj):
        items = vars(obj).items() if hasattr(obj, "__dict__") else [("", obj)]
        return {key: np.asarray(value).tolist() for key, value in items}

    assert fields(load(bom)) == fields(load(path))
    with open(bom, encoding="utf-8", newline="") as stream:   # the mark stays in the text
        assert fields(load(stream)) == fields(load(path))


GBK_NAME = "\u5317\u4eac\u5206\u884c".encode("gbk")   # a branch name, not UTF-8


@pytest.mark.parametrize("load, content, message", [
    (load_dataset, b"dmu,x:a,y:b\nA,1,2\n" + GBK_NAME + b",2,3\n", "line 3: not UTF-8 text"),
    (lambda source: load_groups(source, ["A"]), b"dmu,group\n" + GBK_NAME + b",1\n",
     "line 2: not UTF-8 text"),
    (lambda source: load_reference(source, ["A"]), b"dmu,phi\n" + GBK_NAME + b",0.5\n",
     "line 2: not UTF-8 text"),
    (load_matrix, b"dmu," + GBK_NAME + b"\n" + GBK_NAME + b",1\n", "line 1: not UTF-8 text"),
    (load_dataset, b"dmu,x:a,y:b\nA,1,2\nB,1," + b"1" * 131073 + b"\n",
     "line 3: field larger than field limit (131072)"),
], ids=["dataset", "groups", "reference", "matrix", "field-limit"])
def test_a_line_the_reader_refuses_is_named(tmp_path, load, content, message):
    path = tmp_path / "input.csv"
    path.write_bytes(content)
    with pytest.raises(ParseError) as err:
        load(path)
    assert str(err.value) == message


@pytest.mark.parametrize("load, content", [
    (load_dataset, b"dmu,x:a,y:b\nA,1,2\n" + GBK_NAME + b",2,3\n"),
    (lambda source: load_groups(source, ["A"]), b"dmu,group\n" + GBK_NAME + b",1\n"),
    (lambda source: load_reference(source, ["A"]), b"dmu,phi\n" + GBK_NAME + b",0.5\n"),
    (load_matrix, b"dmu," + GBK_NAME + b"\n" + GBK_NAME + b",1\n"),
    # past the stream's first chunk of decoded text: the fault shows mid-read
    (load_dataset, b"dmu,x:a,y:b\n" + b"A,1,2\n" * 4000 + GBK_NAME + b",2,3\n"),
], ids=["dataset", "groups", "reference", "matrix", "dataset-late"])
def test_a_stream_that_does_not_decode_is_a_parse_error(tmp_path, load, content):
    # a text stream decodes in chunks ahead of the row read, so the message
    # names no line rather than a wrong one
    path = tmp_path / "input.csv"
    path.write_bytes(content)
    with open(path, encoding="utf-8", newline="") as stream, pytest.raises(ParseError) as err:
        load(stream)
    assert str(err.value) == "text stream does not decode as UTF-8; its line is unknown"


@pytest.mark.parametrize("load, text, message", [
    (load_dataset, 'dmu,x:a,y:b\n"A\nB",1,2\nC,x,3\n',
     "malformed number 'x' at line 4, column 'x:a'"),
    (load_dataset, 'dmu,x:a,y:b\n\n"A\n\nB",1,2\nC,1\n', "line 6: expected 3 fields, got 2"),
    (lambda source: load_groups(source, ["A\nB", "C"]), 'dmu,group\n"A\nB",1\nC,x\n',
     "groups line 4: group id 'x' is not an integer"),
    (load_dataset, 'dmu,x:a,y:b\n"A\nB",1,2\nC,1,"' + "1" * 131073 + '"\n',
     "line 4: field larger than field limit (131072)"),
], ids=["cell", "field-count", "groups", "field-limit"])
def test_a_row_is_named_by_the_line_it_starts_on(load, text, message):
    # a quoted field may span lines, so rows and lines are counted apart
    with pytest.raises(ParseError) as err:
        load(io.StringIO(text))
    assert str(err.value) == message


def dataset(**changes):
    """A two-DMU Dataset built directly, with ``changes`` to its fields."""
    fields = dict(names=["A", "B"], input_names=["x"], output_names=["y"],
                  raw_inputs=[[1.0], [2.0]], raw_outputs=[[3.0], [4.0]])
    return revalloc.Dataset(**{**fields, **changes})


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: dataset(names=[], raw_inputs=np.empty((0, 1)),
                                 raw_outputs=np.empty((0, 1))),
                 ValidationError, "dataset needs at least one DMU", id="no-dmu"),
    pytest.param(lambda: dataset(raw_inputs=[1.0, 2.0]),
                 ValidationError, "input/output data must be 2-dimensional", id="1d-data"),
    pytest.param(lambda: dataset(raw_outputs=[[3.0]]),
                 ValidationError, "row count does not match number of DMU names",
                 id="row-count"),
    pytest.param(lambda: dataset(input_names=[], raw_inputs=np.empty((2, 0))),
                 ValidationError, "need at least one input and one output column",
                 id="no-input-column"),
    pytest.param(lambda: dataset(input_names=["x", "z"]),
                 ValidationError, "input name count does not match input columns",
                 id="input-names"),
    pytest.param(lambda: dataset(output_names=[]),
                 ValidationError, "output name count does not match output columns",
                 id="output-names"),
    pytest.param(lambda: dataset(raw_inputs=[[1.0], [np.inf]]),
                 ParseError, "non-finite input value", id="non-finite"),
    pytest.param(lambda: dataset(raw_outputs=[[3.0], [-4.0]]),
                 ParseError, "negative output value", id="negative"),
    pytest.param(lambda: dataset(raw_inputs=[[1e308], [1e308]]),
                 ValidationError, "input column 0 sum overflows a float",
                 id="input-sum-overflow"),
    pytest.param(lambda: dataset(raw_outputs=[[3.0, 1e308], [4.0, 1e308]],
                                 output_names=["y", "z"]),
                 ValidationError, "output column 1 sum overflows a float",
                 id="output-sum-overflow"),
    pytest.param(lambda: dataset(raw_inputs=[["a"], [2.0]]),
                 ParseError, "input values must be numbers", id="text-data"),
    pytest.param(lambda: dataset(raw_inputs=np.array([[True], [True]])),
                 ParseError, "input values must be numbers", id="bool-data"),
    pytest.param(lambda: dataset(raw_inputs=np.array([[1.0 + 0j], [2.0 + 0j]])),
                 ParseError, "input values must be numbers", id="complex-data"),
    pytest.param(lambda: dataset(raw_outputs=np.array([[b"3"], [b"4"]])),
                 ParseError, "output values must be numbers", id="bytes-data"),
    pytest.param(lambda: dataset(input_names=["a", "a"], raw_inputs=[[1.0, 1.0], [2.0, 3.0]]),
                 ValidationError, "duplicate input names: ['a']", id="input-name-repeated"),
    pytest.param(lambda: dataset(input_names=np.array(["a", "a"]),
                                 raw_inputs=[[1.0, 1.0], [2.0, 3.0]]),
                 ValidationError, "duplicate input names: ['a']", id="input-name-array"),
    pytest.param(lambda: dataset(names=np.array(["A", "A"])),
                 ValidationError, "duplicate DMU names: ['A']", id="name-array"),
    pytest.param(lambda: revalloc.CrossEfficiencyMatrix(names=np.array(["A", "A"]),
                                                        values=np.eye(2)),
                 ValidationError, "duplicate DMU names: ['A']", id="matrix-name-array"),
    pytest.param(lambda: dataset(output_names=[" "]),
                 ValidationError, "output 1 of 1 has a blank name", id="output-name-blank"),
    pytest.param(lambda: load_dataset(make_csv("dmu,x:a,x:a,y:b\nA,1,2,3")),
                 ValidationError, "duplicate input names: ['a']", id="input-column-repeated"),
    pytest.param(lambda: load_dataset(make_csv("dmu,x:,y:\nA,1,2")),
                 ValidationError, "input 1 of 1 has a blank name", id="input-column-blank"),
    pytest.param(lambda: revalloc.ShapleyTriple([], [], []),
                 ValidationError, "share rows need at least one DMU", id="triple-empty"),
    pytest.param(lambda: revalloc.ShapleyTriple(["0.5", "1"], [0.6, 1.0], [0.7, 1.0]),
                 ParseError, "shares must be numbers", id="triple-text"),
    pytest.param(lambda: revalloc.ccr_efficiency(dataset(), 1.0),
                 ValidationError, "DMU index must be an integer, got 1.0", id="index-type"),
    pytest.param(lambda: revalloc.CrossEfficiencyMatrix(names=["A"], values=np.eye(2)),
                 ValidationError, "matrix shape (2, 2) does not match 1 names",
                 id="matrix-names"),
    pytest.param(lambda: dataset(names=[1, 2]),
                 ValidationError, "DMU names must be strings, got 1", id="name-type"),
    pytest.param(lambda: GroupAssignment(groups=[1.5, 1.0], H=1),
                 ValidationError, "group ids must cover 1..1 exactly, got [1.0, 1.5]",
                 id="group-fraction"),
    pytest.param(lambda: GroupAssignment(groups=[[1], [1]], H=1),
                 ValidationError, "group ids must form a vector, got shape (2, 1)",
                 id="group-2d"),
    pytest.param(lambda: GroupAssignment(groups=[None, 1], H=1),
                 ValidationError, "group ids must be numbers, got [None, 1]", id="group-none"),
    pytest.param(lambda: GroupAssignment(groups=[True, True], H=1),
                 ValidationError, "group ids must be numbers, got [True, True]",
                 id="group-bool"),
    pytest.param(lambda: GroupAssignment(groups=[1, 1], H=1.0),
                 ValidationError, "group count must be an integer, got 1.0", id="group-count"),
    pytest.param(lambda: GroupAssignment(groups=[1, 1], H=True),
                 ValidationError, "group count must be an integer, got True",
                 id="group-count-bool"),
    pytest.param(lambda: revalloc.ccr_efficiency(dataset(), True),
                 ValidationError, "DMU index must be an integer, got True", id="index-bool"),
    pytest.param(lambda: revalloc.shapley_triples("abc"),
                 ParseError, "matrix entries must be numbers", id="scores-text"),
    pytest.param(lambda: revalloc.shapley_triples(np.array([[True, False], [True, True]])),
                 ParseError, "matrix entries must be numbers", id="scores-bool"),
    pytest.param(lambda: revalloc.shapley_triples([["1", "0.5"], ["0.5", "1"]]),
                 ParseError, "matrix entries must be numbers", id="scores-numeric-text"),
    pytest.param(lambda: revalloc.shapley_triples(np.eye(2, dtype=complex)),
                 ParseError, "matrix entries must be numbers", id="scores-complex"),
    pytest.param(lambda: check_scores(np.ones((2, 3))),
                 ValidationError, "matrix must be square, got shape (2, 3)", id="scores-shape"),
    pytest.param(lambda: check_scores([[1.0, np.nan], [0.5, 1.0]]),
                 ParseError, "matrix contains non-finite entries", id="scores-nan"),
    pytest.param(lambda: load_dataset(io.StringIO("")),
                 ParseError, "empty dataset file", id="empty-dataset"),
    pytest.param(lambda: load_dataset(make_csv("x:a,y:b\n1,2")),
                 ParseError, "header must contain exactly one 'dmu' column", id="no-dmu-column"),
    pytest.param(lambda: load_dataset(make_csv("dmu,x:a,y:b\nA,1")),
                 ParseError, "line 2: expected 3 fields, got 2", id="field-count"),
    pytest.param(lambda: load_groups(make_csv("dmu,grp\nA,1"), ["A"]),
                 ParseError, "groups file must have header 'dmu,group'", id="keyed-header"),
    pytest.param(lambda: load_groups(make_csv("dmu,group\nA,one"), ["A"]),
                 ParseError, "groups line 2: group id 'one' is not an integer",
                 id="group-id"),
    pytest.param(lambda: load_groups(make_csv("dmu,group\nA,1_0"), ["A"]),
                 ParseError, "groups line 2: group id '1_0' is not an integer",
                 id="group-id-separator"),
    pytest.param(lambda: load_dataset(make_csv("dmu,x:a,y:b,y: b\nA,1,2,2")),
                 ValidationError, "duplicate output names: ['b']", id="output-name-spaced"),
    pytest.param(lambda: load_dataset(make_csv("dmu,x:a,y:c\nA,1_5,2")),
                 ParseError, "malformed number '1_5' at line 2, column 'x:a'",
                 id="cell-separator"),
    pytest.param(lambda: load_matrix(io.StringIO("")),
                 ParseError, "empty matrix file", id="empty-matrix"),
    pytest.param(lambda: load_matrix(make_csv("dmu,A,B\nA,1,0.5\nB,0.5")),
                 ValidationError, "matrix is not square: row 2 has 1 cells", id="short-row"),
    pytest.param(lambda: load_matrix(make_csv("dmu,A,B\nA,1,0.5\nC,0.5,1")),
                 ValidationError, "row name 'C' does not match column name 'B'",
                 id="row-name"),
    pytest.param(lambda: load_matrix(make_csv("dmu,A\nA,\u0660.\u0665")),
                 ParseError, "malformed number '\u0660.\u0665' at matrix cell (A, A)",
                 id="matrix-cell-digits"),
])
def test_each_check_names_its_fault(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message
