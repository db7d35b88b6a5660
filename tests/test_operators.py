import random
from fractions import Fraction

import pytest
import sympy

from homstruct import catalog, operators
from homstruct.axioms import check_class, check_derivation
from homstruct.constructions import sub_adjacent
from homstruct.core import (
    AlgebraPresentation,
    BilinearMap,
    LinearMap,
    RepresentationPresentation,
)
from homstruct.operators import (
    PreconditionError,
    check_o_operator,
    check_rota_baxter,
    compatible_pre_lie_from_invertible,
    derivation_space,
    induced_products,
    nullspace_basis,
    o_operator_is_morphism,
    rota_baxter_induced,
)
from homstruct.representations import regular_representation

from helpers import bound_fixtures, fraction_det, rand_fraction, rand_matrix

F = Fraction


def _zero_transposed():
    # sub-adjacent structure of PLP2 at a = 0: both products vanish
    return sub_adjacent(catalog.get("PLP2", {"a": F(0)}))


def _regular(a):
    return regular_representation(a, "transposed-hom-poisson")


def test_identity_o_operator_on_zero_products():
    a = _zero_transposed()
    rep = _regular(a)
    T = LinearMap.identity(2)
    for cls in ("comm-hom-assoc", "hom-lie", "transposed-hom-poisson"):
        assert check_o_operator(a, rep, T, cls).passed, cls


def test_o_operator_family_selection_is_class_driven():
    a = _zero_transposed()
    rep = _regular(a)
    T = LinearMap.identity(2)
    r = check_o_operator(a, rep, T, "comm-hom-assoc")
    assert r.checked > 0
    r_lie = check_o_operator(a, rep, T, "hom-lie")
    assert r_lie.checked > 0
    with pytest.raises(PreconditionError):
        check_o_operator(a, rep, T, "hom-pre-lie")


def test_o_operator_gates_on_module():
    a = catalog.get("THP2", {"lam": F(1)})
    bad = RepresentationPresentation(2, 1, {
        "s": (LinearMap.from_rows([[F(1)]]), LinearMap.from_rows([[F(1)]])),
        "rho": (LinearMap.from_rows([[F(1)]]), LinearMap.from_rows([[F(1)]])),
    }, LinearMap.identity(1))
    with pytest.raises(PreconditionError):
        check_o_operator(a, bad, LinearMap.zero(2, 1), "transposed-hom-poisson")


def test_induced_products_targets():
    a = _zero_transposed()
    rep = _regular(a)
    T = LinearMap.identity(2)
    comm = induced_products(a, rep, T, "comm-hom-assoc")
    assert check_class(comm, "comm-hom-assoc").passed
    lie = induced_products(a, rep, T, "hom-lie")
    assert check_class(lie, "hom-pre-lie").passed
    full = induced_products(a, rep, T, "transposed-hom-poisson")
    assert check_class(full, "hom-pre-lie-poisson").passed


def test_o_operator_is_morphism():
    a = _zero_transposed()
    rep = _regular(a)
    assert o_operator_is_morphism(a, rep, LinearMap.identity(2)).passed


def _invertible_o_operator(rng, n):
    """(a, rep, T) with T a random invertible O-operator and a's products
    nonzero.  Two products o and * send each pair of the first n-1 basis
    vectors to a random multiple of the last one, and vanish otherwise, so
    every product of two products is zero; alpha = diag(lam, ..., lam, lam^2)
    is multiplicative for both.  Then a's dot x o y + y o x and bracket
    x * y - y * x, and the left multiplications of o and * (s and rho) with
    beta = alpha, are a module with the identity as an O-operator.  rep is
    that module carried to V along T, so that T is an O-operator of it."""
    last, lam = n - 1, rand_fraction(rng)
    o, st = ([[rand_fraction(rng) for _ in range(last)] for _ in range(last)] for _ in range(2))
    a = AlgebraPresentation(n, {
        name: BilinearMap(n, tuple((i, j, last, f(i, j)) for i in range(last)
                                   for j in range(last)))
        for name, f in (("dot", lambda i, j: o[i][j] + o[j][i]),
                        ("bracket", lambda i, j: st[i][j] - st[j][i]))},
        {"alpha": LinearMap.diagonal([lam] * last + [lam * lam])})
    T = rand_matrix(rng, n)
    while fraction_det(T) == 0:
        T = rand_matrix(rng, n)
    Ti = T.inverse()
    # T^-1 L(e_x) T, where L(e_x) e_y = m[x][y] e_last
    actions = {act: tuple(Ti @ LinearMap.from_rows(
                   [[m[x][y] if k == last and x < last and y < last else F(0)
                     for y in range(n)] for k in range(n)]) @ T for x in range(n))
               for act, m in (("s", o), ("rho", st))}
    return a, RepresentationPresentation(n, n, actions, Ti @ a.alpha @ T), T


def test_invertible_corollary_reproduces_tables():
    # compatible_pre_lie_from_invertible does not check this: at T^-1 x and
    # T^-1 y the output's sub-adjacent products are the gate's o-equation rows
    a = _zero_transposed()
    rep = _regular(a)
    cases = [(a, rep, T) for T in (LinearMap.identity(2), LinearMap.diagonal([F(2), F(-3)]))]
    rng = random.Random(16)
    cases += [_invertible_o_operator(rng, n) for n in (2, 3, 4) for _ in range(5)]
    for a, rep, T in cases:
        assert check_o_operator(a, rep, T, "transposed-hom-poisson").passed
        pre = compatible_pre_lie_from_invertible(a, rep, T)
        sub = sub_adjacent(pre)
        assert sub.op("dot").entries == a.op("dot").entries
        assert sub.op("bracket").entries == a.op("bracket").entries
    assert sum(bool(a.op("dot").entries and a.op("bracket").entries) for a, _, _ in cases) > 8


def test_invertible_corollary_gates_on_square_and_invertible_t():
    # a module of another dimension: T: V -> A is not square
    a = _zero_transposed()
    wide = RepresentationPresentation(2, 3, {}, LinearMap.identity(3))
    for rep, T, message in ((wide, LinearMap.zero(2, 3), "T must be square"),
                            (_regular(a), LinearMap.zero(2), "T must be invertible")):
        with pytest.raises(PreconditionError) as exc:
            compatible_pre_lie_from_invertible(a, rep, T)
        assert str(exc.value) == message


def test_scalar_invariance():
    a = _zero_transposed()
    rep = _regular(a)
    # on the zero base products, scaling the operator leaves the induced
    # structure unchanged
    p1 = induced_products(a, rep, LinearMap.identity(2))
    p5 = induced_products(a, rep, LinearMap.diagonal([F(5), F(5)]))
    assert p1 == p5
    assert check_class(p5, "hom-pre-lie-poisson").passed


def test_rota_baxter_zero():
    a = catalog.get("THP2", {"lam": F(1)})
    R = LinearMap.zero(2)
    assert check_rota_baxter(a, R, "transposed-hom-poisson").passed
    induced = rota_baxter_induced(a, R)
    assert check_class(induced, "hom-pre-lie-poisson").passed
    assert not any(op.entries for op in induced.ops.values())


def test_rota_baxter_induced_gates_on_the_algebra_class():
    # e1.e1 = e1, e1.e2 = e2 is associative but not commutative; with a zero
    # bracket its regular module passes the module axioms, so R = 0 is a
    # Rota-Baxter operator of an algebra outside the theorem's class
    a = AlgebraPresentation(2, {"dot": BilinearMap(2, ((0, 0, 0, F(1)), (0, 1, 1, F(1)))),
                                "bracket": BilinearMap(2)},
                            {"alpha": LinearMap.identity(2)})
    R = LinearMap.zero(2)
    assert check_rota_baxter(a, R, "transposed-hom-poisson").passed
    with pytest.raises(PreconditionError) as exc:
        rota_baxter_induced(a, R)
    assert str(exc.value) == "input is not in class transposed-hom-poisson"
    assert not exc.value.report.passed


def test_rota_baxter_check_gates_on_the_o_operator_class():
    # the class gate runs before the regular module is built
    a = catalog.get("THP2", {"lam": F(1)})
    for cls in ("hom-poisson", "hom-pre-lie"):
        with pytest.raises(PreconditionError) as exc:
            check_rota_baxter(a, LinearMap.zero(2), cls)
        assert str(exc.value) == "no O-operator notion for class %s" % cls


def test_derivation_space_thp2():
    a = catalog.get("THP2", {"lam": F(1)})
    space = derivation_space(a, "dot", commuting_with="alpha")
    assert space == [LinearMap.diagonal([F(0), F(1)])]
    free = derivation_space(a, "dot", commuting_with=None)
    assert len(free) == 1
    for d in space + free:
        assert check_derivation(a, "dot", d).passed


def test_derivation_space_matches_sympy_nullspace():
    # independent elimination oracle for a range of fixtures
    cases = [(n, l, a) for n, l, a, c in bound_fixtures()][:10]
    for name, label, a in cases:
        op_name = sorted(a.ops)[0]
        mine = derivation_space(a, op_name, commuting_with="alpha")
        rows, width = _leibniz_system(a, op_name)
        basis = _sympy_nullspace(rows, width)
        assert len(mine) == len(basis), (name, label)


def _leibniz_system(a, op_name):
    # rebuild the linear system from scratch: D(e_i . e_j) = D(e_i).e_j + e_i.D(e_j)
    # plus commutation with alpha, unknowns D[r][c] in row-major order
    n = a.dim
    width = n * n
    c = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k, v) in a.op(op_name).entries:
        c[i][j][k] = v
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [F(0)] * width
                for m in range(n):
                    row[k * n + m] += c[i][j][m]
                for r in range(n):
                    row[r * n + i] -= c[r][j][k]
                    row[r * n + j] -= c[i][r][k]
                rows.append(row)
    g = a.alpha.m
    for r in range(n):
        for col in range(n):
            row = [F(0)] * width
            for m in range(n):
                row[m * n + col] += g[r][m]
                row[r * n + m] -= g[m][col]
            rows.append(row)
    return rows, width


def _sympy_nullspace(rows, width):
    M = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
    return M.nullspace()


def test_nullspace_basis_canonical():
    rows = [[F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    basis = nullspace_basis(rows, 3)
    assert basis == [(F(-1), F(1), F(0))]


def test_derivation_space_calls_nullspace_basis_through_the_module(monkeypatch):
    """The tracer counts the solver's system by rebinding
    operators.nullspace_basis, called with (rows, width) positionally."""
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return nullspace_basis(*args, **kwargs)

    monkeypatch.setattr(operators, "nullspace_basis", spy)
    a = catalog.get("THP2", {"lam": F(1)})
    assert derivation_space(a, "dot") == [LinearMap.diagonal([F(0), F(1)])]
    [(args, kwargs)] = calls
    assert kwargs == {} and len(args) == 2 and args[1] == a.dim ** 2
    assert all(len(row) == args[1] for row in args[0])
