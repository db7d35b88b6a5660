import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from homstruct.core import (
    AlgebraPresentation,
    BilinearMap,
    CheckReport,
    DimensionError,
    FormatError,
    LinearMap,
    UnboundParameterError,
    basis_vec,
    eval_bilinear,
    parse_algebra,
    parse_coefficient,
    parse_representation,
    serialize_algebra,
    serialize_representation,
    substitute_params,
)

from helpers import apply_map, bilinear_from_table

F = Fraction


def test_parse_coefficient():
    assert parse_coefficient("3/4") == F(3, 4)
    assert parse_coefficient("-2") == F(-2)
    assert parse_coefficient("lam", ("lam",)) == "lam"
    assert parse_coefficient("-lam", ("lam",)) == "-lam"
    with pytest.raises(FormatError):
        parse_coefficient("x", ())
    with pytest.raises(FormatError):
        parse_coefficient("1/0")


def test_bilinear_map_normalization():
    # exact zeros dropped, entries sorted
    m = BilinearMap(2, ((1, 0, 0, F(1)), (0, 0, 0, F(0)), (0, 1, 1, F(2))))
    assert m.entries == ((0, 1, 1, F(2)), (1, 0, 0, F(1)))
    with pytest.raises(FormatError):
        BilinearMap(2, ((2, 0, 0, F(1)),))
    with pytest.raises(FormatError):
        BilinearMap(2, ((0, 0, 0, F(1)), (0, 0, 0, F(2))))


def test_eval_bilinear_bilinearity():
    op = BilinearMap(2, ((0, 0, 1, F(3)), (0, 1, 0, F(1, 2))))
    x, y = (F(1), F(2)), (F(-1), F(4))
    lhs = eval_bilinear(op, tuple(2 * c for c in x), y)
    rhs = tuple(2 * c for c in eval_bilinear(op, x, y))
    assert lhs == rhs


def test_linear_map_algebra():
    a = LinearMap.from_rows([[F(1), F(2)], [F(3), F(4)]])
    assert a.det() == F(-2)
    assert (a @ a.inverse()).is_identity()
    assert a.power(0).is_identity()
    assert a.power(3) == a @ a @ a
    assert (a - a).is_zero()
    assert a.transpose().transpose() == a
    with pytest.raises(DimensionError):
        LinearMap.from_rows([[F(1), F(2)], [F(2), F(4)]]).inverse()


@given(st.lists(st.fractions(max_denominator=6), min_size=4, max_size=4))
def test_linear_map_inverse_property(vals):
    m = LinearMap.from_rows([[vals[0], vals[1]], [vals[2], vals[3]]])
    if m.det() != 0:
        assert (m.inverse() @ m).is_identity()


def test_apply_map():
    m = LinearMap.diagonal([F(2), F(-1)])
    assert apply_map(m, (F(1), F(3))) == (F(2), F(-3))
    assert m.column(1) == (F(0), F(-1))


def test_check_report_verdict():
    good = CheckReport(checked=4)
    assert good.passed
    bad = CheckReport(witnesses=(("id", (0,), (F(1),)),), checked=4, failures=1)
    assert not bad.passed
    nested = CheckReport(checked=1, sub_reports={"inner": bad})
    assert not nested.passed
    assert bad.all_witnesses()[0][0] == "id"


def test_substitute_params():
    a = AlgebraPresentation(
        2, {"dot": BilinearMap(2, ((0, 0, 0, "t"), (0, 1, 1, "-t")))},
        {"alpha": LinearMap.identity(2)}, params=("t",))
    b = substitute_params(a, {"t": F(1, 3)})
    assert b.op("dot").entries == ((0, 0, 0, F(1, 3)), (0, 1, 1, F(-1, 3)))
    with pytest.raises(UnboundParameterError):
        substitute_params(a, {})
    with pytest.raises(UnboundParameterError):
        a.op("dot").is_bound() or a.require_bound()


def test_algebra_round_trip():
    a = AlgebraPresentation(
        2, {"dot": BilinearMap(2, ((0, 1, 0, F(1, 2)),))},
        {"alpha": LinearMap.diagonal([F(1), F(-1)])})
    text = serialize_algebra(a)
    assert parse_algebra(text) == a
    assert serialize_algebra(parse_algebra(text)) == text
    doc = json.loads(text)
    assert doc["ops"]["dot"][0]["c"] == "1/2"


def test_representation_round_trip():
    from homstruct.core import RepresentationPresentation
    rep = RepresentationPresentation(
        1, 2, {"s": (LinearMap.diagonal([F(2), F(0)]),)},
        LinearMap.identity(2))
    text = serialize_representation(rep)
    assert parse_representation(text) == rep
    assert serialize_representation(parse_representation(text)) == text


def test_parse_algebra_errors():
    with pytest.raises(FormatError):
        parse_algebra("{}")
    with pytest.raises(FormatError):
        parse_algebra('{"dim": 1, "ops": {"dot": [{"i": 0, "j": 0, "k": 3, "c": "1"}]}}')
    with pytest.raises(FormatError):
        parse_algebra("not json")


def test_bilinear_from_table():
    op = bilinear_from_table(
        2, lambda i, j: basis_vec(2, 0) if i == j else (F(0), F(0)))
    assert eval_bilinear(op, basis_vec(2, 1), basis_vec(2, 1)) == (F(1), F(0))
    assert eval_bilinear(op, basis_vec(2, 0), basis_vec(2, 1)) == (F(0), F(0))
