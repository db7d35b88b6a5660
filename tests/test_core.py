import ast
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import homstruct

from homstruct.core import (
    RATIONAL_RE,
    AlgebraPresentation,
    BilinearMap,
    CheckReport,
    DimensionError,
    FormatError,
    LinearMap,
    UnboundParameterError,
    _Value,
    basis_vec,
    eval_bilinear,
    parse_algebra,
    parse_coefficient,
    parse_comultiplications,
    parse_form,
    parse_o_operator,
    parse_representation,
    serialize_algebra,
    serialize_comultiplications,
    serialize_form,
    serialize_o_operator,
    serialize_representation,
    substitute_params,
)

from helpers import apply_map, bilinear_from_table, column, eval_bilinear_scan, fraction_det

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


def _fraction_or_error(parse, s):
    try:
        return parse(s)
    except ValueError as exc:
        return type(exc), str(exc)


_DIGITS = st.text("0123456789", min_size=1, max_size=30)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.one_of(
    st.from_regex(RATIONAL_RE, fullmatch=True),
    st.builds(lambda sign, num, den: sign + num + ("/" + den if den else ""),
              st.sampled_from(["", "-"]), _DIGITS,
              st.one_of(st.none(), _DIGITS.map(lambda d: str(1 + int(d)))))))
@example("0")
@example("-0")
@example("-0/7")
@example("007")
@example("-0012/60")
@example("-3/6")
@example("1/1")
@example("7" * 5000)
@example("-" + "7" * 5000)
@example("1/" + "7" * 5000)
def test_parse_coefficient_agrees_with_fraction(s):
    """A rational token parses to the Fraction that Fraction(s) gives, of
    the same type, or raises the same ValueError (a numerator past Python's
    int string-conversion limit)."""
    assert RATIONAL_RE.fullmatch(s)
    got, want = _fraction_or_error(parse_coefficient, s), _fraction_or_error(F, s)
    assert type(got) is type(want) and got == want


def test_entries_error_texts():
    """Each malformed entry gives its own FormatError text, naming the op
    and the entry's position."""
    good = {"i": 0, "j": 1, "k": 0, "c": "1"}
    for entry, message in (
            ({"i": 0, "j": True, "k": 0, "c": "1"}, "indices must be integers"),
            ({"i": 0, "j": 1.0, "k": 0, "c": "1"}, "indices must be integers"),
            (dict(good, x=1), 'expected {"i","j","k","c"}'),
            ({"i": 0, "j": 1, "k": 0}, 'expected {"i","j","k","c"}'),
            ([0, 1, 0, "1"], 'expected {"i","j","k","c"}'),
            (dict(good, k=2), "index out of range for dim 2"),
            (dict(good, i=-1), "index out of range for dim 2")):
        text = json.dumps({"dim": 2, "ops": {"dot": [good, entry]}})
        with pytest.raises(FormatError) as exc:
            parse_algebra(text)
        assert str(exc.value) == "op 'dot' entry 1: " + message
    with pytest.raises(FormatError) as exc:
        parse_comultiplications(json.dumps({"dim": 2, "coops": {"d": [{"i": False}]}}))
    assert str(exc.value) == """coop 'd' entry 0: expected {"i","j","k","c"}"""


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


def _outcome(fn, *args):
    """fn's value, or the type and args of the error it raised."""
    try:
        return fn(*args)
    except (DimensionError, UnboundParameterError) as exc:
        return type(exc), exc.args


def test_eval_bilinear_matches_the_scan():
    """eval_bilinear walks the op's row index; the oracles' full scan must
    give the same Fractions, or the same error, on sparse and dense ops at
    dims 1-6, at basis, sparse and dense vectors with int and Fraction
    coordinates, some of them terms that cancel to 0.  The index is no
    field: maps made from the same entries in another order are equal,
    hash equal and print the same."""
    assert BilinearMap._fields == ("dim", "entries")
    rng = random.Random(20261018)
    coefficient = lambda: F(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3]))
    checked = 0
    for n in range(1, 7):
        for density in (0.15, 1.0):
            entries = tuple((i, j, k, coefficient()) for i in range(n) for j in range(n)
                            for k in range(n) if rng.random() < density)
            op, shuffled = BilinearMap(n, entries), BilinearMap(n, entries[::-1])
            assert op == shuffled and hash(op) == hash(shuffled)
            assert repr(op) == repr(shuffled) and "rows" not in repr(op)
            vectors = [tuple(int(b == i) for i in range(n)) for b in range(n)]
            vectors += [basis_vec(n, b) for b in range(n)]
            vectors += [tuple(rng.choice([0, 0, 0, 1, -2]) for _ in range(n)),
                        tuple(rng.choice([0, F(1, 2), F(-3)]) for _ in range(n)),
                        tuple(coefficient() for _ in range(n)),
                        tuple(rng.randint(-4, 4) for _ in range(n)),
                        (0,) * n]
            for x in vectors:
                for y in vectors:
                    got = eval_bilinear(op, x, y)
                    assert got == eval_bilinear_scan(op, x, y), (n, op, x, y)
                    assert eval_bilinear(shuffled, x, y) == got
                    assert len(got) == n and all(type(c) is Fraction for c in got)
                    checked += 1
    assert checked > 1000
    # op(e_0 + e_1, e_0 + e_1)_0 = 1 - 1 and op(e_0, 2 e_1 - e_0)_1 = 2 * 1/2 - 1
    op = BilinearMap(2, ((0, 0, 0, F(1)), (1, 1, 0, F(-1)), (0, 0, 1, F(1)),
                         (0, 1, 1, F(1, 2))))
    for x, y, want in (((1, 1), (1, 1), (F(0), F(3, 2))),
                       ((1, 0), (-1, 2), (F(-1), F(0))),
                       ((F(1), 0), (F(-1), F(2)), (F(-1), F(0)))):
        assert eval_bilinear(op, x, y) == eval_bilinear_scan(op, x, y) == want
        assert all(type(c) is Fraction for c in eval_bilinear(op, x, y))
    # an unbound cell raises exactly when x_i y_j != 0 reaches it
    op = BilinearMap(3, ((0, 0, 0, F(1)), (1, 2, 0, "t"), (1, 2, 2, "-u"),
                         (2, 1, 1, F(2))))
    vectors = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (0, 1, F(1, 2)),
               (1, 0, 1), (0, 2), (1, 0, 0, 0)]
    raised = set()
    for x in vectors:
        for y in vectors:
            got = _outcome(eval_bilinear, op, x, y)
            assert got == _outcome(eval_bilinear_scan, op, x, y), (x, y)
            if isinstance(got, tuple) and isinstance(got[0], type):
                raised.add(got[0])
    assert raised == {DimensionError, UnboundParameterError}


def test_linear_map_algebra():
    a = LinearMap.from_rows([[F(1), F(2)], [F(3), F(4)]])
    assert a.inverse() == LinearMap.from_rows([[F(-2), F(1)], [F(3, 2), F(-1, 2)]])
    assert (a @ a.inverse()).is_identity()
    power = LinearMap.identity(2)
    for n in range(12):
        assert a.power(n) == power
        power = power @ a
    assert a - a == LinearMap.zero(2)
    assert a.transpose().transpose() == a
    with pytest.raises(DimensionError):
        LinearMap.from_rows([[F(1), F(2)], [F(2), F(4)]]).inverse()


def test_shape_errors_of_the_value_types():
    from homstruct.core import RepresentationPresentation
    wide, square = LinearMap.zero(1, 2), LinearMap.identity(2)
    for build, message in (
            (lambda: BilinearMap(0), "dim must be positive"),
            (lambda: wide @ wide, "matrix product shape mismatch"),
            (lambda: wide + square, "matrix sum shape mismatch"),
            (lambda: wide.power(2), "power of a non-square map"),
            (lambda: wide.inverse(), "inverse of a non-square map"),
            (lambda: AlgebraPresentation(2, {"dot": BilinearMap(3)}),
             "op 'dot' has dim 3, expected 2"),
            (lambda: RepresentationPresentation(1, 2, beta=LinearMap.identity(1)),
             "beta must be module_dim-square"),
            (lambda: RepresentationPresentation(2, 2, {"s": [square]}),
             "action 's' must have 2 members"),
            (lambda: RepresentationPresentation(1, 2, {"s": [wide]}),
             "action 's' matrices must be module_dim-square")):
        with pytest.raises(DimensionError) as exc:
            build()
        assert str(exc.value) == message


def test_linear_map_factories_read_their_shape_in_the_constructor():
    """An empty or ragged input to a factory raises the constructor's error,
    not an IndexError, and no entry of a ragged input is dropped."""
    from homstruct.core import RepresentationPresentation
    for build, error, message in (
            (lambda: LinearMap.from_rows([]), DimensionError, "matrix shape must be positive"),
            (lambda: LinearMap.identity(0), DimensionError, "matrix shape must be positive"),
            (lambda: LinearMap.zero(0), DimensionError, "matrix shape must be positive"),
            (lambda: LinearMap.diagonal([]), DimensionError, "matrix shape must be positive"),
            (lambda: LinearMap.from_columns([]), DimensionError,
             "matrix shape must be positive"),
            (lambda: RepresentationPresentation(1, 0), DimensionError,
             "matrix shape must be positive"),
            (lambda: LinearMap.from_columns([(1, 2), (3, 4, 5)]), FormatError,
             "matrix shape mismatch"),
            (lambda: LinearMap.from_columns([(1, 2, 3), (4, 5)]), FormatError,
             "matrix shape mismatch")):
        with pytest.raises(error) as exc:
            build()
        assert type(exc.value) is error and str(exc.value) == message


def test_linear_map_power_rejects_a_negative_exponent():
    # a negative n would otherwise give the identity, a wrong map, silently
    with pytest.raises(ValueError, match="n >= 0, got -1"):
        LinearMap.from_rows([[1, 2], [3, 4]]).power(-1)


@given(st.lists(st.fractions(max_denominator=6), min_size=4, max_size=4))
def test_linear_map_inverse_property(vals):
    m = LinearMap.from_rows([[vals[0], vals[1]], [vals[2], vals[3]]])
    if fraction_det(m) != 0:
        assert (m.inverse() @ m).is_identity()


def test_apply_map():
    m = LinearMap.diagonal([F(2), F(-1)])
    assert apply_map(m, (F(1), F(3))) == (F(2), F(-3))
    assert column(m, 1) == (F(0), F(-1))


def test_check_report_verdict():
    good = CheckReport(checked=4)
    assert good.passed
    bad = CheckReport(witnesses=(("id", (0,), (F(1),)),), checked=4, failures=1)
    assert not bad.passed
    nested = CheckReport(checked=1, sub_reports={"inner": bad})
    assert not nested.passed
    assert bad.all_witnesses()[0][0] == "id"


def _value_cases():
    """(copy factory, exact repr, hash error or None, frozen fields) for each
    value type.  Each factory builds a new, equal instance per call."""
    from homstruct.core import RepresentationPresentation
    from homstruct.matched_pairs import MatchedPairData
    one = "LinearMap(rows=1, cols=1, m=((Fraction(1, 1),),))"
    algebra = ("AlgebraPresentation(dim=1, ops={'dot': BilinearMap(dim=1, entries="
               "((0, 0, 0, Fraction(1, 1)),))}, maps={'alpha': %s}, basis=('e1',), "
               "params=())" % one)
    rep = ("RepresentationPresentation(algebra_dim=1, module_dim=1, actions={'s': (%s,)}, "
           "beta=%s, params=())" % (one, one))

    def a():
        return AlgebraPresentation(1, {"dot": BilinearMap(1, ((0, 0, 0, F(1)),))},
                                   {"alpha": LinearMap.identity(1)})

    def r():
        return RepresentationPresentation(1, 1, {"s": [LinearMap.identity(1)]})

    unhashable = "unhashable type: 'dict'"
    return [
        (lambda: BilinearMap(2, ((0, 0, 1, F(1, 2)),)),
         "BilinearMap(dim=2, entries=((0, 0, 1, Fraction(1, 2)),))", None, ("dim", "entries")),
        (lambda: LinearMap(1, 2, [[F(1), F(-3, 2)]]),
         "LinearMap(rows=1, cols=2, m=((Fraction(1, 1), Fraction(-3, 2)),))", None,
         ("rows", "cols", "m")),
        (a, algebra, unhashable, ("dim", "ops", "maps", "basis", "params")),
        (r, rep, unhashable, ("algebra_dim", "module_dim", "actions", "beta", "params")),
        (lambda: MatchedPairData(a(), a(), r(), r()),
         "MatchedPairData(algebra_a=%s, algebra_b=%s, actions_ab=%s, actions_ba=%s)"
         % (algebra, algebra, rep, rep), unhashable,
         ("algebra_a", "algebra_b", "actions_ab", "actions_ba")),
        (lambda: CheckReport([("id", (0,), (F(1),))], 4, 1, notes=("n",)),
         "CheckReport(witnesses=[('id', (0,), (Fraction(1, 1),))], checked=4, failures=1, "
         "sub_reports={}, notes=('n',))", "unhashable type: 'CheckReport'", ()),
    ]


def test_value_types_compare_hash_and_print_by_their_fields():
    """The value types' contract: repr lists the fields in order, == and
    hash follow the fields, another type is never equal, the presentations
    and matched pairs refuse attribute writes, and CheckReport is mutable
    and unhashable."""
    for make, shown, hash_error, frozen in _value_cases():
        x, twin = make(), make()
        assert repr(x) == repr(twin) == shown
        assert x == twin and not x != twin and x is not twin
        if hash_error is None:
            assert hash(x) == hash(twin)
        else:
            for y in (x, twin):
                with pytest.raises(TypeError) as exc:
                    hash(y)
                assert str(exc.value) == hash_error
        for other in (None, 1, shown, (x,), object(), BilinearMap(1), CheckReport()):
            assert x != other and not x == other and not other == x
        for name in frozen:
            value = getattr(x, name)
            with pytest.raises(AttributeError):
                setattr(x, name, value)
            with pytest.raises(AttributeError):
                delattr(x, name)
            assert getattr(x, name) is value
        assert x == twin
    assert BilinearMap(2, ((0, 0, 1, F(1)),)) != BilinearMap(3, ((0, 0, 1, F(1)),))
    assert LinearMap.identity(2) != LinearMap.diagonal([F(1), F(2)])
    report = CheckReport(checked=4)
    report.failures = 2
    report.witnesses.append(("id", (1,), (F(1),)))
    report.notes = ("n",)
    assert not report.passed and report == CheckReport([("id", (1,), (F(1),))], 4, 2,
                                                       notes=("n",))


def test_value_initialiser_takes_one_value_per_field():
    class Pair(_Value):
        _fields = ("x", "y")

    pair = Pair(1, 2)
    assert (pair.x, pair.y, pair._values) == (1, 2, (1, 2))
    for values, message in (((1,), "zip() argument 2 is shorter than argument 1"),
                            ((1, 2, 3), "zip() argument 2 is longer than argument 1")):
        with pytest.raises(ValueError) as exc:
            Pair(*values)
        assert str(exc.value) == message


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
    # a coefficient naming a parameter that params does not declare
    undeclared = AlgebraPresentation(1, {"dot": BilinearMap(1, ((0, 0, 0, "-u"),))})
    with pytest.raises(UnboundParameterError) as exc:
        substitute_params(undeclared, {"t": F(1)})
    assert str(exc.value) == "parameter 'u' is unbound"
    with pytest.raises(TypeError) as exc:
        substitute_params(LinearMap.identity(1), {})
    assert str(exc.value) == "cannot substitute into 'LinearMap'"


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
    # a parametric representation keeps its declared parameters
    rep = RepresentationPresentation(
        1, 2, {"s": (LinearMap.from_rows([["t", F(0)], [F(0), "-u"]]),)},
        LinearMap.identity(2), params=("t", "u"))
    text = serialize_representation(rep)
    assert json.loads(text)["params"] == ["t", "u"]
    assert parse_representation(text) == rep
    assert serialize_representation(parse_representation(text)) == text


def test_representation_leaves_the_callers_actions_unchanged():
    from homstruct.core import RepresentationPresentation
    one = LinearMap.identity(1)
    acts = {"s": [one]}
    rep = RepresentationPresentation(1, 1, acts)
    assert acts == {"s": [one]} and acts is not rep.actions
    assert rep.actions == {"s": (one,)}


def test_algebra_is_not_changed_by_a_later_write_to_the_callers_dicts():
    one = LinearMap.identity(1)
    dot = BilinearMap(1, ((0, 0, 0, F(1)),))
    ops, maps = {"dot": dot}, {"alpha": one}
    a = AlgebraPresentation(1, ops, maps)
    ops["dot"] = BilinearMap(2)
    ops["bracket"] = BilinearMap(1)
    maps["alpha"] = LinearMap.identity(2)
    assert a.ops is not ops and a.maps is not maps
    assert a.ops == {"dot": dot} and a.maps == {"alpha": one}


def test_parse_algebra_errors():
    with pytest.raises(FormatError):
        parse_algebra("{}")
    with pytest.raises(FormatError):
        parse_algebra('{"dim": 1, "ops": {"dot": [{"i": 0, "j": 0, "k": 3, "c": "1"}]}}')
    with pytest.raises(FormatError):
        parse_algebra("not json")
    for text, message in (
            ("[]", "top-level value must be an object"),
            ('{"dim": 1, "ops": {"dot": {}}}', "op 'dot': entries must be an array")):
        with pytest.raises(FormatError) as exc:
            parse_algebra(text)
        assert str(exc.value) == message
    # a trailing newline is part of neither a name nor a rational
    with pytest.raises(FormatError, match="bad parameter name"):
        parse_algebra(json.dumps({"dim": 1, "params": ["t\n"], "ops": {"dot": [
            {"i": 0, "j": 0, "k": 0, "c": "t\n"}]}, "maps": {"alpha": [["1\n"]]}}))
    with pytest.raises(FormatError, match="bad coefficient"):
        parse_algebra(json.dumps({"dim": 1, "maps": {"alpha": [["1\n"]]}}))
    # a matrix of the wrong shape, an empty row and a ragged matrix
    for alpha, message in (([["1"]], "map 'alpha': expected 2x2 matrix, got 1x1"),
                           ([[]], "matrix shape must be positive"),
                           ([["1", "0"], ["0"]], "matrix shape mismatch")):
        with pytest.raises(FormatError, match=message):
            parse_algebra(json.dumps({"dim": 2, "maps": {"alpha": alpha}}))


def test_parse_representation_errors():
    rep = {"algebra_dim": 1, "module_dim": 2, "actions": {"s": [[["0", "0"], ["0", "0"]]]},
           "beta": [["1", "0"], ["0", "1"]]}
    for changes, message in (({"actions": {"s": [[["0", "0"]]]}},
                              "action 's'\\[0\\]: expected 2x2 matrix, got 1x2"),
                             ({"beta": [[]]}, "matrix shape must be positive")):
        with pytest.raises(FormatError, match=message):
            parse_representation(json.dumps(dict(rep, **changes)))
    # the algebra dimension has one key, "algebra_dim"
    rep["dim"] = rep.pop("algebra_dim")
    with pytest.raises(FormatError) as exc:
        parse_representation(json.dumps(rep))
    assert exc.value.args == ("unknown top-level key(s) 'dim'",)


def test_parse_comultiplications_rejects_duplicate_entries():
    """A coop that lists one (i, j, k) twice is a FormatError with
    BilinearMap's text, whether the two coefficients are a parameter and a
    rational (whose sort would raise TypeError in the serializer) or two
    rationals (which would serialize as two entries)."""
    for first, second in (("t", "1"), ("1/2", "3")):
        doc = {"dim": 2, "params": ["t"], "coops": {"dot": [
            {"i": 0, "j": 1, "k": 1, "c": "1"},
            {"i": 1, "j": 0, "k": 1, "c": first},
            {"i": 1, "j": 0, "k": 1, "c": second}]}}
        with pytest.raises(FormatError) as exc:
            parse_comultiplications(json.dumps(doc))
        assert str(exc.value) == "duplicate entry for (1,0,1)"
        with pytest.raises(FormatError) as exc:
            BilinearMap(2, ((1, 0, 1, F(1)), (1, 0, 1, F(3))))
        assert str(exc.value) == "duplicate entry for (1,0,1)"


def test_parse_comultiplications_reads_the_dual_products():
    """The coop entry (i, j, k, c), the e_j (x) e_k coefficient c of the
    image of e_i, is the dual product entry (j, k, i, c); the serializer
    writes it back in coop order with the declared params."""
    doc = {"dim": 2, "params": ["t", "u"], "coops": {
        "dot": [{"i": 0, "j": 1, "k": 0, "c": "-t"}], "bracket": []}}
    coalgebra = parse_comultiplications(json.dumps(doc))
    assert coalgebra == AlgebraPresentation(
        2, {"dot": BilinearMap(2, ((1, 0, 0, "-t"),)), "bracket": BilinearMap(2)},
        params=("t", "u"))
    assert json.loads(serialize_comultiplications(coalgebra)) == doc


# coefficient tokens, mostly valid under params ("t", "u"); the only strings
# with a newline are these tokens and parameter names, and none may parse
_TOKENS = st.sampled_from(["0", "1", "-1/2", "3/4", "t", "-t", "u", "x", "1/0", 1,
                          "1\n", "t\n"])
_DIM = st.one_of(st.integers(1, 3), st.sampled_from([0, 65, True, "2", None]))
_PARAMS = st.one_of(st.lists(st.sampled_from(["t", "u"]), max_size=2, unique=True),
                    st.sampled_from([["t", "t"], ["1x"], "t", ["t\n"]]))


@st.composite
def _matrix(draw, n):
    """Mostly an n x n matrix; else one of up to 3 x 3, possibly ragged."""
    if draw(st.booleans()):
        return draw(st.lists(st.lists(_TOKENS, min_size=n, max_size=n), min_size=n, max_size=n))
    return draw(st.lists(st.lists(_TOKENS, max_size=3), max_size=3))


@st.composite
def _algebra_docs(draw):
    dim = draw(_DIM)
    n = dim if isinstance(dim, int) and 0 < dim < 4 else 2
    index = st.one_of(st.integers(0, n - 1), st.sampled_from([-1, n, False]))
    entry = st.fixed_dictionaries({"i": index, "j": index, "k": index, "c": _TOKENS})
    return draw(st.fixed_dictionaries({"dim": st.just(dim)}, optional={
        "params": _PARAMS,
        "basis": st.lists(st.sampled_from(["e1", "e2", "e3", "x"]), max_size=3),
        "ops": st.dictionaries(st.sampled_from(["dot", "bracket"]),
                               st.lists(entry, max_size=3), max_size=2),
        "maps": st.dictionaries(st.sampled_from(["alpha", "D"]), _matrix(n), max_size=2),
        "extra": st.just({})}))


@st.composite
def _representation_docs(draw):
    adim, mdim = draw(_DIM), draw(_DIM)
    n = adim if isinstance(adim, int) and 0 < adim < 4 else 2
    p = mdim if isinstance(mdim, int) and 0 < mdim < 4 else 2
    family = st.lists(_matrix(p), min_size=n, max_size=n) | st.lists(_matrix(p), max_size=3)
    header = {"algebra_dim": st.just(adim), "module_dim": st.just(mdim)}
    return draw(st.fixed_dictionaries(header, optional={
        "params": _PARAMS,
        "actions": st.dictionaries(st.sampled_from(["s", "rho"]), family, max_size=2),
        "beta": _matrix(p)}))


@st.composite
def _form_docs(draw):
    dim = draw(_DIM)
    n = dim if isinstance(dim, int) and 0 < dim < 4 else 2
    return draw(st.fixed_dictionaries({"dim": st.just(dim)}, optional={
        "params": _PARAMS,
        "basis": st.lists(st.sampled_from(["e1", "e2", "x"]), max_size=2),
        "B": _matrix(n)}))


_O_OPERATOR_DOCS = st.fixed_dictionaries({}, optional={
    "T": _matrix(2), "params": _PARAMS})


@st.composite
def _comultiplication_docs(draw):
    dim = draw(_DIM)
    n = dim if isinstance(dim, int) and 0 < dim < 4 else 2
    index = st.one_of(st.integers(0, n - 1), st.sampled_from([-1, n, False]))
    entry = st.fixed_dictionaries({"i": index, "j": index, "k": index, "c": _TOKENS})
    return draw(st.fixed_dictionaries({"dim": st.just(dim)}, optional={
        "params": _PARAMS,
        "basis": st.lists(st.sampled_from(["e1", "e2", "x"]), max_size=2),
        "coops": st.dictionaries(st.sampled_from(["dot", "bracket"]),
                                 st.lists(entry, max_size=3), max_size=2),
        "extra": st.just({})}))


def test_parsers_raise_format_error_or_round_trip():
    """Every generated document either raises FormatError or parses to a
    presentation that serializes and parses back to an equal one, and no
    document with a newline in a token or name parses; both outcomes occur
    for every parser."""
    outcomes = set()
    for parse, serialize, docs in ((parse_algebra, serialize_algebra, _algebra_docs()),
                                   (parse_representation, serialize_representation,
                                    _representation_docs()),
                                   (parse_form, serialize_form, _form_docs()),
                                   (parse_o_operator, serialize_o_operator,
                                    _O_OPERATOR_DOCS),
                                   (parse_comultiplications, serialize_comultiplications,
                                    _comultiplication_docs())):
        @settings(max_examples=300, derandomize=True, deadline=None, database=None)
        @given(docs)
        def run(doc):
            text = json.dumps(doc)
            try:
                p = parse(text)
            except FormatError:
                outcomes.add((parse, "error"))
                return
            assert "\\n" not in text
            assert parse(serialize(p)) == p
            outcomes.add((parse, "parsed"))
        run()
        # nesting past the decoder's recursion limit, as the document and under a key
        deep = "[" * 200000 + "]" * 200000
        for text in (deep, '{"dim": 1, "ops": %s}' % deep):
            with pytest.raises(FormatError, match="^document nested too deeply$"):
                parse(text)
    assert len(outcomes) == 10, outcomes
    # a parametric form keeps its parameters through serialize_form
    form = parse_form(json.dumps({"dim": 2, "params": ["t", "u"],
                                  "B": [["-t", "0"], ["1", "t"]]}))
    assert parse_form(serialize_form(form)) == form


def test_bilinear_from_table():
    op = bilinear_from_table(
        2, lambda i, j: basis_vec(2, 0) if i == j else (F(0), F(0)))
    assert eval_bilinear(op, basis_vec(2, 1), basis_vec(2, 1)) == (F(1), F(0))
    assert eval_bilinear(op, basis_vec(2, 0), basis_vec(2, 1)) == (F(0), F(0))


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check the library relies on
    # must raise instead
    paths = sorted(Path(homstruct.__file__).parent.glob("*.py"))
    assert paths
    assert [(path.name, node.lineno) for path in paths
            for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)] == []
