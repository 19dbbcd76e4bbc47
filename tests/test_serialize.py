"""Round trips and byte determinism of the JSON/CSV writers."""
import json
import math

import numpy as np
import pytest

from expotrans.cli import main
from expotrans.errors import InputError
from expotrans.finiteterm import BandCertificate, fill_from_first_column
from expotrans.gallery import MatrixSource
from expotrans.reconstruct import GridFunction
from expotrans.serialize import (
    certificate_from_obj,
    certificate_to_obj,
    dumps,
    fmt,
    grid_to_csv,
    matrix_from_obj,
    matrix_to_obj,
    shape_from_obj,
    trajectory_to_csv,
)
from expotrans.shapes import Annulus, Box, Disk, Ellipse, Grid, Sum, Weighted


def test_fmt_and_dumps():
    assert fmt(0.1) == "0.10000000000000001"
    assert fmt(1.0) == "1"
    assert dumps({"a": [1, 2.5], "b": None}) == '{"a":[1,2.5],"b":null}'
    assert dumps(0.5 + 0.25j) == "[0.5,0.25]"
    assert dumps(True) == "true"
    with pytest.raises(InputError):
        dumps(float("nan"))
    with pytest.raises(InputError):
        dumps(object())
    # numpy's float64 is a float and complex128 a complex; any other numpy
    # scalar or array is refused
    assert dumps([np.float64(0.5), np.complex128(1j)]) == "[0.5,[0,1]]"
    for obj in (np.int64(1), np.zeros(2)):
        with pytest.raises(InputError, match="cannot serialize"):
            dumps(obj)


def test_dumps_deterministic():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    obj = matrix_to_obj(m)
    assert dumps(obj) == dumps(matrix_to_obj(m.copy()))


def test_matrix_round_trip():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    arr = matrix_from_obj(matrix_to_obj(m))
    assert np.array_equal(arr, m)
    assert (~np.isnan(arr)).all()


def test_masked_matrix_round_trip():
    col = np.array([1.0, 0.5, 0.25, 0.125], dtype=complex)
    filled = fill_from_first_column(col, np.array([0.5 + 0j]), 4)
    arr = matrix_from_obj(matrix_to_obj(filled.values, filled.certified))
    # NaN marks exactly the uncertified entries
    assert np.array_equal(~np.isnan(arr), filled.certified)
    assert np.array_equal(arr[filled.certified], filled.values[filled.certified])


def test_matrix_validation():
    with pytest.raises(InputError):
        matrix_from_obj({"order": 2, "re": [[1.0]], "im": [[0.0]]})
    with pytest.raises(InputError):
        matrix_from_obj({"re": [[1.0]], "im": [[0.0]]})
    with pytest.raises(InputError):
        matrix_from_obj({"order": 1, "re": [[1.0, 2.0]], "im": [[0.0]]})


@pytest.mark.parametrize("text", [
    '{"order": 1, "re": [[1e400]], "im": [[0]]}',
    '{"order": 1, "re": [[1]], "im": [[-1e400]]}',
], ids=["re", "im"])
def test_overflowing_entry_is_input_error(text):
    # json reads 1e400 as inf (the Infinity literal itself is refused by load_json)
    with pytest.raises(InputError, match="non-finite"):
        matrix_from_obj(json.loads(text))


def test_column_round_trip():
    col = np.array([1.0, 0.5 - 0.25j, 0.0])
    back = matrix_from_obj({"order": 3, "re": [1.0, 0.5, 0.0], "im": [0.0, -0.25, 0.0]})
    assert np.array_equal(back, col) and (~np.isnan(back)).all()
    # a matrix object is read whole, and a COLUMN takes its first column
    m = np.array([[1.0, 2.0], [3.0 + 1j, 4.0]])
    assert np.array_equal(MatrixSource(matrix_from_obj(matrix_to_obj(m))).column(2), m[:, 0])
    with pytest.raises(InputError):
        matrix_from_obj({"re": [1.0]})
    with pytest.raises(InputError):
        matrix_from_obj({"re": [1.0, 2.0], "im": [0.0]})
    # one rule for every document: order is the length, a matrix is square
    for doc in (
        {"order": 2, "re": [[1, 0, 5], [0, 1, 7]], "im": [[0, 0, 0], [0, 0, 0]]},
        {"order": 5, "re": [1.0, 0.5, 0.2], "im": [0, 0, 0]},
        {"order": 3, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
        {"re": [1.0, 0.5], "im": [0, 0]},
    ):
        with pytest.raises(InputError, match="malformed matrix JSON"):
            matrix_from_obj(doc)


def oracle_dumps(obj) -> str:
    """The recursive writer, one call per value: the byte oracle for `dumps`."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, complex):
        return f"[{fmt(obj.real)},{fmt(obj.imag)}]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{oracle_dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(oracle_dumps(v) for v in obj) + "]"
    raise InputError(f"cannot serialize {type(obj).__name__}")


@pytest.mark.parametrize("n", [1, 2, 7, 48, 64])
def test_row_writer_matches_recursive_oracle(n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        # magnitudes from 1e-300 to 1e300, signed zeros, and null entries
        scale = 10.0 ** rng.uniform(-300, 300, (n, n))
        m = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * scale
        m.real[rng.random((n, n)) < 0.1] = -0.0
        m.imag[rng.random((n, n)) < 0.1] = 0.0
        m[rng.random((n, n)) < 0.05] = complex(-0.0, -0.0)
        obj = matrix_to_obj(m, rng.random((n, n)) < 0.8)
        assert dumps(obj) == oracle_dumps(obj)
        assert dumps(matrix_to_obj(m)) == oracle_dumps(matrix_to_obj(m))
    # rows mixing floats with other values still go through the recursion
    mixed = [[1.5, None, 2], [0.25, True], [], [np.float64(0.5), -0.0], [[1.0, None]]]
    assert dumps(mixed) == oracle_dumps(mixed)
    with pytest.raises(InputError, match="non-finite"):
        dumps([1.0, math.inf])


def test_row_writer_matches_recursive_oracle_on_a_pipeline_document(capsys):
    assert main(["pipeline", "gallery:trifoil", "--order", "48"]) == 0
    out = capsys.readouterr().out
    # 17 significant digits read back exactly, and an integral float reads back as the int it was written as
    assert out == oracle_dumps(json.loads(out)) + "\n"


def test_certificate_round_trip():
    cert = BandCertificate(2, np.array([0.0, 0.5j, 1.0]), 1e-12, 9)
    back = certificate_from_obj(certificate_to_obj(cert))
    assert back.d == 2 and back.rows_used == 9
    assert np.array_equal(back.q, cert.q)
    assert back.residual == cert.residual
    with pytest.raises(InputError):
        certificate_from_obj({"d": 2, "q": [[0.0, 0.0]], "residual": 0.0, "rows_used": 3})
    with pytest.raises(InputError):
        certificate_from_obj({"q": [[0.0, 0.0]]})


def test_shape_round_trips():
    shapes = [
        Disk(0.5 + 0.25j, 2.0),
        Annulus(0.0, 0.5, 1.0),
        Ellipse(0.1 - 0.2j, 1.5, 0.5, 0.7),
        Weighted(Disk(0.0, 1.0), 0.5),
        Sum((Disk(-3.0, 1.0), Disk(3.0, 1.0))),
        Grid(Box(-1, 1, -1, 1), np.array([[0.0, 1.0], [0.5, 0.25]])),
    ]
    for s in shapes:
        obj = s.to_obj()
        assert obj["type"] in {"disk", "annulus", "ellipse", "weighted", "sum", "grid"}
        back = shape_from_obj(obj)
        assert back.to_obj() == obj
        # serialized form is stable through a dumps/parse cycle
        import json

        assert shape_from_obj(json.loads(dumps(obj))).to_obj() == obj


@pytest.mark.parametrize("shape, text", [
    (Disk(0.5 + 0.25j, 2.0), '{"type":"disk","center":[0.5,0.25],"R":2}'),
    (Annulus(0.0, 0.5, 1.0), '{"type":"annulus","center":[0,0],"r":0.5,"R":1}'),
    (Ellipse(0.1 - 0.2j, 1.5, 0.5, 0.7),
     '{"type":"ellipse","center":[0.10000000000000001,-0.20000000000000001],'
     '"p":1.5,"q":0.5,"phi":0.69999999999999996}'),
    (Weighted(Disk(0.0, 1.0), 0.5),
     '{"type":"weighted","t":0.5,"base":{"type":"disk","center":[0,0],"R":1}}'),
    (Sum((Disk(-3.0, 1.0), Weighted(Ellipse(3.0, 1.0, 0.5), 0.25))),
     '{"type":"sum","parts":[{"type":"disk","center":[-3,0],"R":1},{"type":"weighted",'
     '"t":0.25,"base":{"type":"ellipse","center":[3,0],"p":1,"q":0.5,"phi":0}}]}'),
    (Grid(Box(-1, 1, -1, 1), np.array([[0.0, 1.0], [0.5, 0.25]])),
     '{"type":"grid","box":[-1,1,-1,1],"values":[[0,1],[0.5,0.25]]}'),
], ids=["disk", "annulus", "ellipse", "weighted", "sum", "grid"])
def test_shape_documents_are_pinned(shape, text):
    # key order is part of the format: "type" first, a weighted shape's "t" before "base"
    assert dumps(shape.to_obj()) == text


def test_shape_validation():
    with pytest.raises(InputError):
        shape_from_obj({"kind": "disk", "R": 1.0})
    with pytest.raises(InputError):
        shape_from_obj({"type": "pentagon"})
    with pytest.raises(InputError):
        shape_from_obj({"type": "disk"})
    with pytest.raises(InputError, match="expected \\[re, im\\]"):
        shape_from_obj({"type": "disk", "center": "x", "R": 1})
    # a bare number is a real center
    assert shape_from_obj({"type": "disk", "center": 0.5, "R": 1}) == Disk(0.5 + 0j, 1.0)


def test_grid_csv_golden():
    gf = GridFunction(Box(0, 1, 0, 1), np.array([0.25, 0.75]), np.array([0.5]),
                      np.array([[1.0, 0.5]]))
    assert grid_to_csv(gf) == "x,y,value\n0.25,0.5,1\n0.75,0.5,0.5\n"


def test_trajectory_csv_golden():
    rows = [(0.0, 0, 0.75 + 0j), (1.0, 1, 0.1 - 0.25j)]
    want = "t,j,re,im\n0,0,0.75,0\n1,1,0.10000000000000001,-0.25\n"
    assert trajectory_to_csv(rows) == want
