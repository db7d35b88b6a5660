from fractions import Fraction

import pytest

from homstruct import catalog
from homstruct.core import (
    AlgebraPresentation,
    BilinearMap,
    LinearMap,
)
from homstruct.duality import (
    ConstructionError,
    PreconditionError,
    algebra_from_comultiplications,
    build_double_dual,
    check_bialgebra_conditions,
    check_invariant_form,
    check_manin_triple,
    coadjoint_actions,
    comultiplication_from_algebra_op,
    comultiplications_from_dual_algebra,
    dual_map,
    dualize_comultiplication,
    equivalence_report,
    standard_form,
    tensor_map,
    trivial_dual,
)

F = Fraction


def _abelian(dim=2):
    return AlgebraPresentation(
        dim, {"dot": BilinearMap(dim, ()), "bracket": BilinearMap(dim, ())},
        {"alpha": LinearMap.identity(dim)})


def _oneprod_dual(a):
    # trivial dual with a single nonzero product e^1 * e^1 = e^1
    td = trivial_dual(a)
    ops = dict(td.ops)
    ops["dot"] = BilinearMap(td.dim, ((0, 0, 0, F(1)),))
    return AlgebraPresentation(td.dim, ops, dict(td.maps), td.basis)


def test_dual_map_and_tensor_map():
    f = LinearMap.from_rows([[F(1), F(2)], [F(3), F(4)]])
    assert dual_map(f) == f.transpose()
    g = LinearMap.identity(2)
    t = tensor_map(f, g)
    assert t.rows == 4 and t.cols == 4
    assert t.m[0][0] == F(1) and t.m[2][0] == F(3)


def test_trivial_dual():
    a = catalog.get("THP2", {"lam": F(1)})
    d = trivial_dual(a)
    assert d.dim == a.dim
    assert all(op.is_zero for op in d.ops.values())
    assert d.alpha == a.alpha.transpose()


def test_coadjoint_sign_table():
    # s-slot is minus the transposed left multiplication, rho-slot is plus
    # the transposed adjoint action, twist is the transposed twist
    a = catalog.get("TP2")
    co = coadjoint_actions(a)
    assert co.beta == a.alpha.transpose()
    # left multiplication by e1: e1.e2 = e1, so S(e1) has entry m[0][1] = 1
    s0 = co.actions["s"][0]
    assert s0 == -LinearMap.from_rows([[F(0), F(1)], [F(0), F(0)]]).transpose()
    # ad(e1): {e1,e2} = e1
    rho0 = co.actions["rho"][0]
    assert rho0 == LinearMap.from_rows([[F(0), F(1)], [F(0), F(0)]]).transpose()


def test_standard_form():
    f = standard_form(2)
    assert f.B.m == (
        (F(0), F(0), F(1), F(0)), (F(0), F(0), F(0), F(1)),
        (F(1), F(0), F(0), F(0)), (F(0), F(1), F(0), F(0)))


def test_standard_form_is_a_split_pairing():
    # what check_manin_triple's note states: symmetric, nondegenerate, and
    # zero on each block
    for n in (1, 2, 3, 4):
        f = standard_form(n)
        assert f.is_symmetric() and f.is_nondegenerate()
        assert all(f.B.m[i][j] == 0 for off in (0, n) for i in range(off, off + n)
                   for j in range(off, off + n))


def test_invariant_form_abelian():
    a = _abelian()
    d = build_double_dual(a, trivial_dual(a))
    assert check_invariant_form(d, standard_form(2)).passed


def test_manin_triple_abelian_passes():
    a = _abelian()
    rep = check_manin_triple(a, trivial_dual(a))
    assert rep.passed
    assert set(rep.sub_reports) == {"double-transposed", "blocks", "invariant-form"}


def test_manin_triple_counts_its_sub_reports():
    # TP2 (dim 2): 64 tuples in the double's own family, 16 in the blocks'
    # four binary families, 2 * 64 in the invariance families
    rep = check_manin_triple(catalog.get("TP2"), trivial_dual(catalog.get("TP2")))
    assert [sub.checked for sub in rep.sub_reports.values()] == [64, 16, 128]
    assert rep.checked == 64 + 16 + 128


def test_manin_triple_fails_on_thp2_zero_dual():
    a = catalog.get("THP2", {"lam": F(1)})
    rep = check_manin_triple(a, trivial_dual(a))
    assert not rep.passed
    assert not rep.sub_reports["invariant-form"].passed


def test_comultiplication_round_trip():
    a = catalog.get("THP2", {"lam": F(1)})
    for op_name in ("dot", "bracket"):
        coop = comultiplication_from_algebra_op(a.op(op_name))
        back = dualize_comultiplication(a.dim, coop)
        assert back == a.op(op_name)


def test_comultiplications_from_dual_algebra():
    a = catalog.get("THP2", {"lam": F(1)})
    a_star = _oneprod_dual(a)
    coops = comultiplications_from_dual_algebra(a_star)
    rebuilt = algebra_from_comultiplications(a, coops)
    assert rebuilt == a_star


def test_bialgebra_zero_coops_pass():
    # every compatibility family is linear in the comultiplications
    a = catalog.get("THP2", {"lam": F(1)})
    coops = comultiplications_from_dual_algebra(trivial_dual(a))
    rep = check_bialgebra_conditions(a, coops)
    assert rep.passed


def test_bialgebra_gates_on_algebra_class():
    a = catalog.get("THP2-as-hom-poisson", {"lam": F(1)})
    bad = AlgebraPresentation(
        2, {"dot": a.op("dot"), "bracket": BilinearMap(2, ((0, 1, 0, F(1)),))},
        {"alpha": a.alpha})
    coops = comultiplications_from_dual_algebra(trivial_dual(bad))
    rep = check_bialgebra_conditions(bad, coops)
    assert not rep.passed
    assert not rep.sub_reports["algebra-transposed"].passed


def test_equivalence_zero_dual_raises():
    # frozen: zero comultiplications satisfy the bialgebra families, but the
    # coadjoint matched pair and the standard-form triple both fail, so the
    # three verdicts disagree
    for a in (catalog.get("THP2", {"lam": F(1)}), catalog.get("TP2")):
        with pytest.raises(ConstructionError) as exc:
            equivalence_report(a, trivial_dual(a))
        assert "bialgebra=True" in str(exc.value)
        assert "matched_pair=False" in str(exc.value)


def test_equivalence_oneprod_dual_agrees_failing():
    for a in (catalog.get("THP2", {"lam": F(1)}), catalog.get("TP2")):
        r = equivalence_report(a, _oneprod_dual(a))
        assert r["verdict"] is False
        assert not r["bialgebra"].passed
        assert not r["matched_pair"].passed
        assert not r["manin"].passed


def test_equivalence_abelian_agrees_passing():
    # the abelian algebra, and the dot-only algebra e1.e1 = e1,
    # e1.e2 = e2.e1 = e2 with alpha = id and a zero bracket
    dot_only = AlgebraPresentation(
        2, {"dot": BilinearMap(2, ((0, 0, 0, F(1)), (0, 1, 1, F(1)), (1, 0, 1, F(1)))),
            "bracket": BilinearMap(2, ())},
        {"alpha": LinearMap.identity(2)})
    for a in (_abelian(), dot_only):
        r = equivalence_report(a, trivial_dual(a))
        assert r["verdict"] is True
        assert r["bialgebra"].passed and r["matched_pair"].passed and r["manin"].passed


def test_build_double_dual_gates_inputs():
    a = catalog.get("THP2", {"lam": F(1)})
    bad_dual = AlgebraPresentation(
        2, {"dot": BilinearMap(2, ((0, 0, 0, F(1)), (0, 1, 0, F(1)))),
            "bracket": BilinearMap(2, ())},
        {"alpha": LinearMap.identity(2)})
    with pytest.raises(PreconditionError):
        build_double_dual(a, bad_dual)
