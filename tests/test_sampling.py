import hashlib
import string

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from activefoil.errors import ContractViolation, DatasetError, DegenerateIntervalError
from activefoil.sampling import (
    RNG_SCHEME,
    ParameterBox,
    denormalize,
    derive_seed,
    make_box,
    read_matrix_csv,
    sample,
    unit_box,
    write_matrix_csv,
    write_table,
)

# Each example overwrites the same files under tmp_path.
_FILE_EXAMPLES = settings(max_examples=60, deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])

_EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
             1.7976931348623157e308, -1.7976931348623157e308)
_FINITE = st.one_of(st.sampled_from(_EXTREMES),
                    st.floats(allow_nan=False, allow_infinity=False))
_WORD = st.text(alphabet=string.ascii_letters + string.digits + "_", min_size=1,
                max_size=8)


def _header_label(label):
    """A label a CSV header holds: not empty or f, no leading #, no
    surrounding whitespace, no comma or line break."""
    return (bool(label) and label == label.strip() and not label.startswith("#")
            and label != "f" and not any(c in label for c in ",\r\n"))


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


def test_box_validation_and_properties():
    box = ParameterBox(lower=[0.0, -2.0], upper=[1.0, 2.0], labels=("a", "b"))
    assert box.dim == 2
    np.testing.assert_array_equal(box.center, [0.5, 0.0])
    np.testing.assert_array_equal(box.width, [1.0, 4.0])
    assert box.labels == ("a", "b")
    with pytest.raises(ValueError):
        box.lower[0] = 5.0  # bounds are read-only

    with pytest.raises(ContractViolation):
        ParameterBox(lower=[0.0, 0.0], upper=[1.0])
    with pytest.raises(ContractViolation):
        ParameterBox(lower=[0.0], upper=[np.inf])
    with pytest.raises(ContractViolation):
        ParameterBox(lower=[1.0], upper=[1.0])
    with pytest.raises(ContractViolation):
        ParameterBox(lower=[0.0], upper=[1.0], labels=("a", "b"))


def test_box_default_labels():
    box = ParameterBox(lower=[0.0, 0.0, 0.0], upper=[1.0, 1.0, 1.0])
    assert box.labels == ("x1", "x2", "x3")


def test_box_save_load_roundtrip(tmp_path):
    base = make_box([0.1, -0.5, 3.0])
    box = ParameterBox(base.lower, base.upper, labels=("p", "q", "r"))
    path = tmp_path / "box.json"
    box.save(path)
    again = ParameterBox.load(path)
    np.testing.assert_array_equal(again.lower, box.lower)
    np.testing.assert_array_equal(again.upper, box.upper)
    assert again.labels == box.labels
    # two saves of the same box are byte-identical
    path2 = tmp_path / "box2.json"
    again.save(path2)
    assert path.read_bytes() == path2.read_bytes()
    path3 = tmp_path / "broken.json"
    path3.write_text('{"lower": [0.0], "upper": [1.0]}\n')
    with pytest.raises(DatasetError):
        ParameterBox.load(path3)


def test_make_box_literal_bounds():
    box = make_box([2.0, -4.0])
    np.testing.assert_allclose(box.lower, [1.6, -4.8], rtol=1e-15)
    np.testing.assert_allclose(box.upper, [2.4, -3.2], rtol=1e-15)
    assert np.all(box.lower < box.upper)
    with pytest.raises(DegenerateIntervalError):
        make_box([1.0, 0.0])
    with pytest.raises(ContractViolation):
        make_box([1.0], fraction=1.5)


def test_unit_box():
    box = unit_box(4)
    np.testing.assert_array_equal(box.lower, -np.ones(4))
    np.testing.assert_array_equal(box.upper, np.ones(4))
    with pytest.raises(ContractViolation):
        unit_box(0)


def test_denormalize_is_total():
    box = unit_box(2)
    np.testing.assert_array_equal(denormalize([3.0, -7.0], box), [3.0, -7.0])
    # the corners of [-1, 1]^m land on the box's corners
    box = make_box([1.0, -2.0, 0.3])
    np.testing.assert_allclose(denormalize(-np.ones(3), box), box.lower, atol=1e-14)
    np.testing.assert_allclose(denormalize(np.ones(3), box), box.upper, atol=1e-14)
    with pytest.raises(ContractViolation):
        denormalize([0.5, 0.5], box)


def test_sample_shape_range_determinism():
    box = make_box(np.arange(1.0, 6.0))
    s1 = sample(box, 50, seed=123)
    s2 = sample(box, 50, seed=123)
    assert s1.matrix.shape == (50, 5)
    assert np.all(np.abs(s1.matrix) <= 1.0)
    np.testing.assert_array_equal(s1.matrix, s2.matrix)
    assert not np.array_equal(s1.matrix, sample(box, 50, seed=124).matrix)
    with pytest.raises(ContractViolation):
        sample(box, 0, seed=1)


def test_sample_rows_are_independent_substreams():
    box = unit_box(3)
    full = sample(box, 20, seed=99).matrix
    # prefix property: a shorter run reproduces the leading rows
    np.testing.assert_array_equal(sample(box, 7, seed=99).matrix, full[:7])
    # each row regenerable standalone from its spawn key
    for i in (0, 5, 19):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(99, spawn_key=(i,)))
        )
        np.testing.assert_array_equal(rng.uniform(-1.0, 1.0, 3), full[i])
    assert RNG_SCHEME == "pcg64-rowwise-v1"


def test_sample_physical_lies_in_box():
    box = make_box([0.5, -1.0])
    s = sample(box, 200, seed=3)
    x = s.physical()
    assert np.all(x >= box.lower) and np.all(x <= box.upper)


def test_sample_mean_is_small():
    # frozen check: m=10, N=1000, seed=7 has max |column mean| ~ 0.0353
    s = sample(unit_box(10), 1000, seed=7)
    assert np.max(np.abs(s.matrix.mean(axis=0))) < 0.06


def test_derive_seed_matches_hash_construction():
    root, label = 7, "qoi:quadratic"
    digest = hashlib.sha256(f"{root}:{label}".encode()).digest()
    expected = int.from_bytes(digest[:8], "little") >> 1
    assert derive_seed(root, label) == expected
    assert 0 <= derive_seed(root, label) < 2**63
    assert derive_seed(root, "a") != derive_seed(root, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert derive_seed(root, label) == derive_seed(root, label)


def test_matrix_csv_roundtrip_exact(tmp_path):
    rng = np.random.Generator(np.random.PCG64(11))
    mat = rng.standard_normal((9, 4))
    f = rng.standard_normal(9)
    path = tmp_path / "data.csv"
    write_matrix_csv(path, mat, f=f, labels=["a", "b", "c", "d"], meta={"seed": 11})
    back, fback, labels, meta = read_matrix_csv(path)
    np.testing.assert_array_equal(back, mat)  # %.17g survives the round trip
    np.testing.assert_array_equal(fback, f)
    assert labels == ["a", "b", "c", "d"]
    assert meta == {"seed": "11"}
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    assert raw.decode().splitlines()[0] == "# seed=11"


def test_matrix_csv_without_outputs(tmp_path):
    path = tmp_path / "x.csv"
    write_matrix_csv(path, [[1.0, 2.0]], meta=None)
    mat, f, labels, meta = read_matrix_csv(path)
    assert f is None
    assert labels == ["x1", "x2"]
    assert meta == {}
    np.testing.assert_array_equal(mat, [[1.0, 2.0]])


def test_write_matrix_csv_contracts(tmp_path):
    with pytest.raises(ContractViolation):
        write_matrix_csv(tmp_path / "bad.csv", [[1.0, 2.0]], labels=["only"])
    with pytest.raises(ContractViolation):
        write_matrix_csv(tmp_path / "bad.csv", [[1.0, 2.0]], f=[1.0, 2.0])


def test_read_matrix_csv_error_lines(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("# k=v\na,b\n1.0,2.0\n3.0\n")
    with pytest.raises(DatasetError) as info:
        read_matrix_csv(path)
    assert info.value.line == 4 and "line 4" in str(info.value)

    path.write_text("a,b\n1.0,zap\n")
    with pytest.raises(DatasetError) as info:
        read_matrix_csv(path)
    assert info.value.line == 2

    path.write_text("a,,c\n1,2,3\n")
    with pytest.raises(DatasetError) as info:
        read_matrix_csv(path)
    assert info.value.line == 1

    path.write_text("# only meta\n")
    with pytest.raises(DatasetError):
        read_matrix_csv(path)

    path.write_text("a,b\n")
    with pytest.raises(DatasetError):
        read_matrix_csv(path)


@pytest.mark.parametrize("field", ["nan", "NaN", "inf", "-inf", "1e999"])
@pytest.mark.parametrize("column", [0, 2])
def test_read_matrix_csv_rejects_non_finite_fields(tmp_path, field, column):
    path = tmp_path / "evals.csv"
    row = ["0.5", "-0.25", "1.5"]
    row[column] = field
    path.write_text("# n=2\nx1,x2,f\n0.1,0.2,0.3\n" + ",".join(row) + "\n")
    with pytest.raises(DatasetError) as info:
        read_matrix_csv(path)
    assert info.value.line == 4 and "line 4" in str(info.value)
    assert ("x1", "f")[column // 2] in str(info.value)


def test_read_matrix_csv_tolerates_blanks_and_crlf(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_bytes(b"# n=2\r\na,f\r\n\r\n1.5,2.5\r\n0.5,0.25\r\n")
    mat, f, labels, meta = read_matrix_csv(path)
    np.testing.assert_array_equal(mat, [[1.5], [0.5]])
    np.testing.assert_array_equal(f, [2.5, 0.25])
    assert meta == {"n": "2"}


@_FILE_EXAMPLES
@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 4)), with_f=st.booleans(),
       data=st.data())
def test_matrix_csv_roundtrip_is_bitwise(tmp_path, shape, with_f, data):
    mat = data.draw(arrays(np.float64, shape, elements=_FINITE))
    f = data.draw(arrays(np.float64, shape[0], elements=_FINITE)) if with_f else None
    path = tmp_path / "data.csv"
    write_matrix_csv(path, mat, f=f)
    back, fback, _, _ = read_matrix_csv(path)
    np.testing.assert_array_equal(_bits(back), _bits(mat))
    if with_f:
        np.testing.assert_array_equal(_bits(fback), _bits(f))
    else:
        assert fback is None


@_FILE_EXAMPLES
@given(rows=st.lists(st.lists(_FINITE, min_size=3, max_size=3), min_size=1,
                     max_size=5),
       meta=st.dictionaries(_WORD, st.one_of(
           st.integers(), st.floats(allow_nan=False),
           st.text(alphabet=string.ascii_letters + string.digits + " _-.:,=/",
                   max_size=12).map(str.strip)), max_size=5))
def test_write_table_meta_sorted_and_rows_exact(tmp_path, rows, meta):
    path = tmp_path / "table.csv"
    write_table(path, "a,b,c", rows, meta)
    lines = path.read_text().splitlines()
    keys = [line[2:].partition("=")[0] for line in lines[:len(meta)]]
    assert keys == sorted(meta)
    assert lines[len(meta)] == "a,b,c"
    back, _, labels, meta_back = read_matrix_csv(path)
    assert labels == ["a", "b", "c"]
    assert meta_back == {key: str(value) for key, value in meta.items()}
    np.testing.assert_array_equal(_bits(back), _bits(rows))


def test_write_table_exact_text(tmp_path):
    # whole floats print like integers (the pareto 0/1 flags); each block of
    # a 3-D table ends with a blank line
    path = tmp_path / "grid.dat"
    write_table(path, "# columns: y1,y2", np.array([[[1, 0.5]], [[2.0, -0.0]]]),
                {"k": 1, "a": "x"})
    assert path.read_bytes() == b"# a=x\n# k=1\n# columns: y1,y2\n1,0.5\n\n2,-0\n\n"
    with pytest.raises(ContractViolation):
        write_table(path, "h", np.ones(3))


_CELL = st.one_of(
    st.floats(),  # NaN, +-inf, -0.0 and subnormals included
    st.sampled_from(_EXTREMES + (float("nan"), float("inf"), float("-inf"))),
    st.integers(-(2**70), 2**70),
    st.builds(lambda t, v: t(v), st.sampled_from((np.int8, np.int32, np.int64)),
              st.integers(-128, 127)),
    st.floats().map(np.float64),
    st.booleans(),
)


def _per_value_text(header, rows):
    # reference: one f-string per value
    return header + "\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                   for row in rows)


@_FILE_EXAMPLES
@given(width=st.integers(1, 4), form=st.sampled_from(("lists", "ndarray")), data=st.data())
def test_write_table_text_matches_per_value_format(tmp_path, width, form, data):
    if form == "ndarray":
        n = data.draw(st.integers(0, 6))
        rows = data.draw(arrays(np.float64, (n, width), elements=st.floats()))
        given_rows = rows
    else:  # any number-like cell, converted to float by the writer
        rows = data.draw(st.lists(st.lists(_CELL, min_size=width, max_size=width),
                                  min_size=1, max_size=6))
        given_rows = rows
    path = tmp_path / "table.csv"
    write_table(path, "h", given_rows)
    assert path.read_bytes() == _per_value_text("h", rows).encode()


def _row_at_a_time_text(header, table):
    # reference: one % per row, a blank line after each block of a 3-D table
    blocks = table if table.ndim == 3 else table[np.newaxis]
    template = ",".join(["%.17g"] * table.shape[-1]) + "\n"
    return header + "\n" + "".join(
        "".join(template % tuple(row) for row in block.tolist())
        + ("\n" if table.ndim == 3 else "")
        for block in blocks)


@_FILE_EXAMPLES
@given(shape=st.one_of(st.tuples(st.integers(0, 5), st.integers(0, 7), st.integers(1, 4)),
                       st.tuples(st.integers(1, 2), st.integers(1, 2600), st.integers(1, 3))),
       data=st.data())
def test_write_table_blocks_match_row_at_a_time_output(tmp_path, shape, data):
    # integer-valued and NaN cells, and blocks longer than one formatting chunk
    cells = st.one_of(st.integers(-10**6, 10**6).map(float), st.just(float("nan")),
                      st.floats(allow_infinity=False))
    table = data.draw(arrays(np.float64, shape, elements=cells,
                             fill=st.sampled_from((1.0, 0.0, -3.0, float("nan")))))
    for form in (table, table.reshape(-1, shape[-1])):
        path = tmp_path / "grid.dat"
        write_table(path, "# columns: y1,y2,value", form)
        assert path.read_bytes() == _row_at_a_time_text("# columns: y1,y2,value",
                                                        form).encode()
    if shape[0] * shape[1]:
        text = (tmp_path / "grid.dat").read_text()
        assert "\n\n" not in text  # a 2-D table has no block breaks


@_FILE_EXAMPLES
@given(bounds=st.lists(st.tuples(_FINITE, _FINITE).filter(lambda b: b[0] != b[1]),
                       min_size=1, max_size=4),
       data=st.data())
def test_box_save_load_roundtrip_is_exact(tmp_path, bounds, data):
    lower = [min(b) for b in bounds]
    upper = [max(b) for b in bounds]
    labels = tuple(data.draw(st.lists(st.text(max_size=6).filter(_header_label),
                                      min_size=len(bounds), max_size=len(bounds))))
    box = ParameterBox(lower=lower, upper=upper, labels=labels)
    box.save(tmp_path / "box.json")
    again = ParameterBox.load(tmp_path / "box.json")
    np.testing.assert_array_equal(_bits(again.lower), _bits(box.lower))
    np.testing.assert_array_equal(_bits(again.upper), _bits(box.upper))
    assert again.labels == labels


@_FILE_EXAMPLES
@given(labels=st.lists(st.one_of(st.text(max_size=6), st.text("abfx1#, \t\r\n", max_size=4)),
                       min_size=1, max_size=4))
def test_box_labels_come_back_unchanged_from_a_csv_header(tmp_path, labels):
    # the box refuses a label that a CSV header cannot hold; any other comes
    # back unchanged, with or without the f column
    lower = np.zeros(len(labels))
    try:
        box = ParameterBox(lower, lower + 1.0, labels)
    except ContractViolation as exc:
        assert "cannot head a CSV column" in str(exc)
        assert not all(map(_header_label, labels))
        return
    assert all(map(_header_label, labels))
    X = sample(box, 3, seed=1).matrix
    for f in (None, np.arange(3.0)):
        write_matrix_csv(tmp_path / "x.csv", X, f=f, labels=box.labels)
        back, f_back, labels_back, _ = read_matrix_csv(tmp_path / "x.csv")
        assert tuple(labels_back) == box.labels == tuple(labels)
        np.testing.assert_array_equal(back, X)
        assert f_back is None if f is None else np.array_equal(f_back, f)
