"""Gallery address parsing and sizing, and the one interface every source answers."""
import json

import numpy as np
import pytest

from expotrans import serialize
from expotrans.cli import _load_source, main
from expotrans.errors import InputError, MathDomainError
from expotrans.gallery import OperatorFamily, a_for, b_for, names, resolve
from expotrans.operators import b_from_operator, exact_size
from expotrans.series import ExpMoments, a_to_b, b_to_a
from expotrans.shapes import (
    SHAPE_TYPES,
    Annulus,
    Box,
    Disk,
    Ellipse,
    Grid,
    MomentMatrix,
    Shape,
    Sum,
    Weighted,
    moments,
)


def test_names_are_resolvable():
    got = names()
    assert len(got) == 8
    for name in got:
        entry = resolve(f"gallery:{name}")
        assert entry is not None


def test_shape_entries():
    d = resolve("gallery:disk?R=2&x=1")
    assert isinstance(d, Disk) and d.R == 2.0 and d.center == 1.0 + 0j
    a = resolve("annulus")
    assert isinstance(a, Annulus) and (a.r, a.R) == (0.5, 1.0)
    e = resolve("gallery:ellipse-shape?p=2&q=1&phi=0.5")
    assert isinstance(e, Ellipse) and e.phi == 0.5
    w = resolve("gallery:tdisk?t=0.25")
    assert isinstance(w, Weighted) and w.t == 0.25


def test_operator_entries():
    fam = resolve("gallery:trifoil")
    assert isinstance(fam, OperatorFamily)
    assert (fam.xi_index, fam.max_offset) == (1, 2)
    fam = resolve("gallery:power?d=3")
    assert (fam.xi_index, fam.max_offset) == (3, 4)
    fam = resolve("gallery:twodiag?A1=2&B1=1")
    op = fam.build(8)
    assert op.size == 8


def test_sized_for_rule():
    fam = resolve("gallery:trifoil")
    op = fam.sized_for(10)
    assert op.size == 1 + 10 * 2 + 2
    # the resulting operator always admits the requested Gram order
    from expotrans.operators import b_from_operator

    b = b_from_operator(op, 10)
    assert b.b.shape == (10, 10)
    # every family sizes its model at the threshold b_from_operator checks, by one rule
    for address in ("gallery:ellipse", "gallery:trifoil", "gallery:power", "gallery:twodiag"):
        fam = resolve(address)
        for order in (2, 5, 9):
            op = fam.sized_for(order)
            assert op.size == exact_size(fam.xi_index, fam.max_offset, order)
            assert b_from_operator(op, order).b.shape == (order, order)
            with pytest.raises(InputError, match="exactness threshold"):
                b_from_operator(fam.build(op.size - 1), order)


def test_query_values_are_read_as_written():
    # a + in an exponent or a sign is the number's own; it is not a space
    assert resolve("gallery:disk?R=1e+0") == resolve("gallery:disk?R=1") == resolve("gallery:disk?R=+1")
    assert resolve("gallery:annulus?&r=2.5e-1&&R=1E+0&") == resolve("gallery:annulus?r=0.25&R=1")
    # no escape is decoded, and a blank value names itself
    with pytest.raises(InputError, match=r"R='%31' is not a number"):
        resolve("gallery:disk?R=%31")
    for query in ("R=", "R"):
        with pytest.raises(InputError, match=r"R='' is not a number"):
            resolve(f"gallery:disk?{query}")


def test_bad_addresses():
    with pytest.raises(InputError):
        resolve("gallery:moebius")
    with pytest.raises(InputError):
        resolve("gallery:disk?radius=2")
    with pytest.raises(InputError):
        resolve("gallery:disk?R=abc")
    with pytest.raises(InputError):
        resolve("gallery:power?d=0")
    with pytest.raises(InputError):
        resolve("gallery:power?d=1.5")


def test_b_for_both_routes():
    b_shape = b_for("gallery:disk", 6).b
    assert b_shape.shape == (6, 6)
    assert abs(b_shape[0, 0] - 1.0) < 1e-12
    b_op = b_for("gallery:ellipse?u=2", 6).b
    assert abs(b_op[0, 0] - 3.0) < 1e-12
    assert np.max(np.abs(b_op - b_op.conj().T)) < 1e-12


# one example of every shape class; a new class must join the table
_SHAPES = {
    "disk": Disk(0.2 + 0.1j, 0.9),
    "annulus": Annulus(0.1j, 0.3, 0.8),
    "ellipse": Ellipse(0.1, 0.9, 0.5, 0.4),
    "weighted": Weighted(Disk(0j, 0.8), 0.5),
    "sum": Sum((Disk(0.5, 0.3), Annulus(-0.5 + 0.1j, 0.1, 0.3))),
    "grid": Grid(Box(-0.5, 0.5, -0.4, 0.4), np.array([[0, 0.5, 1], [0.2, 1, 0.3]])),
}


def _sources(tmp_path):
    """(label, kind, what the ladder read, source) for every kind of source."""
    assert set(_SHAPES) == set(SHAPE_TYPES)
    rows = [(name, "shape", s, s) for name, s in _SHAPES.items()]
    for name in names() + ["twodiag?A1=0.5&B1=0.5"]:  # the last raises MathDomainError
        entry = resolve(name)
        rows.append((name, "shape" if isinstance(entry, Shape) else "operator", entry, entry))
    a = moments(Ellipse(0.1, 0.9, 0.5, 0.4), 8).a
    docs = {"matrix": serialize.matrix_to_obj(a),
            "column": {"order": 8, "re": a[:, 0].real.tolist(), "im": a[:, 0].imag.tolist()}}
    for name, doc in docs.items():
        with open(tmp_path / f"{name}.json", "w") as fh:
            fh.write(serialize.dumps(doc))
    for given in ("a", "b"):
        rows.append((f"matrix --given {given}", given, docs["matrix"],
                     _load_source(str(tmp_path / "matrix.json"), given)))
    rows.append(("column", "column", docs["column"], _load_source(str(tmp_path / "column.json"))))
    return rows


def _ladder(kind, src, order, what):
    """b, a or the first column as the former per-kind branches made it;
    for a file, src is its JSON document and kind says how it was read."""
    if kind == "shape":
        a = moments(src, order)
        return a_to_b(a).b if what == "b" else a.a if what == "a" else a.a[:, 0]
    if kind == "operator":
        b = b_from_operator(src.sized_for(order), order)
        return b.b if what == "b" else b_to_a(b).a if what == "a" else b.b[:, 0]
    arr = np.asarray(src["re"], dtype=float) + 1j * np.asarray(src["im"], dtype=float)
    if what == "column":
        col = arr if kind == "column" else arr[:, 0]
        if col.shape[0] < order:
            raise InputError("column too short")
        return col[:order]
    if kind == "column":
        raise InputError("a column document holds no moment matrix")
    if arr.shape[0] < order:
        raise InputError("matrix too small")
    if kind == "b":
        b = ExpMoments(arr[:order, :order])
        return b.b if what == "b" else b_to_a(b).a
    a = MomentMatrix(arr[:order, :order])
    return a_to_b(a).b if what == "b" else a.a


@pytest.mark.parametrize("order", [6, 10])  # the files hold order 8
def test_every_source_answers_as_its_ladder(tmp_path, order):
    answers = {"b": lambda s: b_for(s, order).b, "a": lambda s: a_for(s, order).a,
               "column": lambda s: s.column(order)}
    for label, kind, src, source in _sources(tmp_path):
        for what, answer in answers.items():
            try:
                want = _ladder(kind, src, order, what)
            except (InputError, MathDomainError) as exc:
                with pytest.raises(type(exc)):
                    answer(source)
                continue
            assert np.array_equal(answer(source), want), (label, what)


def _text(path):
    with open(path) as fh:
        return fh.read()


def _read(path):
    return serialize.matrix_from_obj(json.loads(_text(path)))


@pytest.mark.parametrize("kind", ["matrix", "column", "filled"])
def test_one_reader_serves_column_and_source(tmp_path, monkeypatch, capsys, kind):
    """A matrix file, a column file and fill's own output (nulls off column 0)
    give COLUMN one first column; SOURCE reads only the null-free matrix."""
    monkeypatch.chdir(tmp_path)
    for argv in ("moments gallery:trifoil --order 10 --out matrix.json",
                 "detect gallery:trifoil --order 10 --out cert.json",
                 "fill gallery:trifoil cert.json --order 10 --out filled.json"):
        assert main(argv.split()) == 0
    a = _read("matrix.json")
    with open("column.json", "w") as fh:
        fh.write(serialize.dumps({"order": 10, "re": a[:, 0].real.tolist(), "im": a[:, 0].imag.tolist()}))
    filled = _read("filled.json")
    assert np.isnan(filled).any() and not np.isnan(filled[:, 0]).any()
    source = _load_source(f"{kind}.json")
    assert np.array_equal(source.column(10), resolve("gallery:trifoil").column(10))
    assert main(f"fill {kind}.json cert.json --order 10 --out again.json".split()) == 0
    assert _text("again.json") == _text("filled.json")
    capsys.readouterr()
    if kind == "matrix":
        for command in ("moments", "transform"):  # a and b share the first column
            assert main(f"{command} matrix.json --order 10".split()) == 0
            printed = serialize.matrix_from_obj(json.loads(capsys.readouterr().out))
            assert np.array_equal(printed[:, 0], source.column(10))
        return
    with pytest.raises(InputError):
        source.data(10)
    for command in ("moments", "detect"):
        assert main(f"{command} {kind}.json --order 10".split()) == 2
        assert "input error" in capsys.readouterr().err
