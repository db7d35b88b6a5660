from fractions import Fraction

import pytest

from homstruct import axioms, catalog, duality, matched_pairs
from homstruct.core import (
    AlgebraPresentation,
    BilinearMap,
    LinearMap,
)
from homstruct.duality import (
    ConstructionError,
    PreconditionError,
    check_bialgebra_conditions,
    check_invariant_form,
    check_manin_triple,
    coadjoint_matched_pair,
    equivalence_report,
    standard_form,
    trivial_dual,
)
from homstruct.matched_pairs import check_matched_pair

from helpers import bound_fixtures, closure_double_coadjoint_actions, fraction_det, tensor_map

F = Fraction
T = "transposed-hom-poisson"


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


def test_tensor_map():
    f = LinearMap.from_rows([[F(1), F(2)], [F(3), F(4)]])
    g = LinearMap.identity(2)
    t = tensor_map(f, g)
    assert t.rows == 4 and t.cols == 4
    assert t.m[0][0] == F(1) and t.m[2][0] == F(3)


def test_trivial_dual():
    a = catalog.get("THP2", {"lam": F(1)})
    d = trivial_dual(a)
    assert d.dim == a.dim
    assert not any(op.entries for op in d.ops.values())
    assert d.alpha == a.alpha.transpose()


def test_coadjoint_sign_table():
    # a acts on b's space by s = +S(x)^T and rho = +ad(x)^T, with b's twist
    a = catalog.get("TP2")
    b = AlgebraPresentation(2, trivial_dual(a).ops, {"alpha": LinearMap.diagonal([F(2), F(3)])})
    co = coadjoint_matched_pair(a, b).actions_ab
    assert co == closure_double_coadjoint_actions(a, b.alpha)
    assert co.beta == b.alpha
    # left multiplication by e1: e1.e2 = e1, so S(e1) has entry m[0][1] = 1
    s0 = co.actions["s"][0]
    assert s0 == LinearMap.from_rows([[F(0), F(1)], [F(0), F(0)]]).transpose()
    # ad(e1): {e1,e2} = e1
    rho0 = co.actions["rho"][0]
    assert rho0 == LinearMap.from_rows([[F(0), F(1)], [F(0), F(0)]]).transpose()


def test_standard_form():
    assert standard_form(2).m == (
        (F(0), F(0), F(1), F(0)), (F(0), F(0), F(0), F(1)),
        (F(1), F(0), F(0), F(0)), (F(0), F(1), F(0), F(0)))


def test_standard_form_is_a_split_pairing():
    # what check_manin_triple's note states: symmetric, nondegenerate, and
    # zero on each block
    for n in (1, 2, 3, 4):
        B = standard_form(n)
        assert B == B.transpose() and fraction_det(B) != 0
        assert all(B.m[i][j] == 0 for off in (0, n) for i in range(off, off + n)
                   for j in range(off, off + n))


def test_invariant_form_abelian():
    a = _abelian()
    d = matched_pairs.build_double(coadjoint_matched_pair(a, trivial_dual(a)), T,
                                   check_actions=False)
    assert check_invariant_form(d, standard_form(2)).passed


def test_manin_triple_abelian_passes():
    a = _abelian()
    rep = check_manin_triple(a, trivial_dual(a))
    assert rep.passed
    assert set(rep.sub_reports) == {"double-transposed", "invariant-form"}


def test_manin_triple_counts_its_sub_reports():
    # TP2 (dim 2): 64 tuples in the double's own family, 2 * 64 in the
    # invariance families
    rep = check_manin_triple(catalog.get("TP2"), trivial_dual(catalog.get("TP2")))
    assert [sub.checked for sub in rep.sub_reports.values()] == [64, 128]
    assert rep.checked == 64 + 128


def test_manin_triple_fails_on_thp2_zero_dual():
    a = catalog.get("THP2", {"lam": F(1)})
    rep = check_manin_triple(a, trivial_dual(a))
    assert not rep.passed
    assert not rep.sub_reports["invariant-form"].passed


def test_bialgebra_zero_coops_pass():
    # every compatibility family is linear in the comultiplications
    a = catalog.get("THP2", {"lam": F(1)})
    rep = check_bialgebra_conditions(a, trivial_dual(a))
    assert rep.passed


def test_bialgebra_gates_on_algebra_class():
    a = catalog.get("THP2-as-hom-poisson", {"lam": F(1)})
    bad = AlgebraPresentation(
        2, {"dot": a.op("dot"), "bracket": BilinearMap(2, ((0, 1, 0, F(1)),))},
        {"alpha": a.alpha})
    rep = check_bialgebra_conditions(bad, trivial_dual(bad))
    assert not rep.passed
    assert not rep.sub_reports["algebra-transposed"].passed


def test_bialgebra_gates_read_the_given_dual():
    # THP2 (lam = 1) as the dual of TP2: its dot is commutative
    # Hom-associative with its own twist, but not with TP2's transposed
    # twist (the identity), which the gates once read in its place
    a, a_star = catalog.get("TP2"), catalog.get("THP2", {"lam": F(1)})
    assert a_star.alpha != a.alpha.transpose()
    wrong_twist = AlgebraPresentation(2, a_star.ops, trivial_dual(a).maps)
    assert not axioms.check_class(wrong_twist, "comm-hom-assoc").passed
    for subs in (check_bialgebra_conditions(a, a_star).sub_reports,
                 equivalence_report(a, a_star)["bialgebra"].sub_reports):
        assert subs["dual-dot-comm-assoc"] == axioms.check_class(a_star, "comm-hom-assoc")
        assert subs["dual-dot-comm-assoc"].passed
        assert subs["dual-bracket-hom-lie"] == axioms.check_class(a_star, "hom-lie")


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


def test_manin_triple_gates_inputs():
    a = catalog.get("THP2", {"lam": F(1)})
    bad_dual = AlgebraPresentation(
        2, {"dot": BilinearMap(2, ((0, 0, 0, F(1)), (0, 1, 0, F(1)))),
            "bracket": BilinearMap(2, ())},
        {"alpha": LinearMap.identity(2)})
    with pytest.raises(PreconditionError,
                       match="^a_star is not a transposed Hom-Poisson algebra$"):
        check_manin_triple(a, bad_dual)


def _outside_the_class():
    """(tag, a, a_star): the input named by tag is not transposed
    Hom-Poisson."""
    thp2 = catalog.get("THP2", {"lam": F(1)})
    bad = AlgebraPresentation(
        2, {"dot": thp2.op("dot"), "bracket": BilinearMap(2, ((0, 1, 0, F(1)),))},
        {"alpha": thp2.alpha})
    bad_dual = AlgebraPresentation(
        2, {"dot": BilinearMap(2, ((0, 0, 0, F(1)), (0, 1, 0, F(1)))),
            "bracket": BilinearMap(2, ())},
        {"alpha": LinearMap.identity(2)})
    return [("a", bad, trivial_dual(bad)), ("a_star", thp2, bad_dual)]


def _standalone_equivalence(a, a_star, max_witnesses):
    """equivalence_report composed from the three standalone checks."""
    bial = check_bialgebra_conditions(a, a_star, max_witnesses)
    mp = check_matched_pair(coadjoint_matched_pair(a, a_star), T, max_witnesses)
    manin = check_manin_triple(a, a_star, max_witnesses)
    verdicts = (bial.passed, mp.passed, manin.passed)
    if len(set(verdicts)) != 1:
        raise ConstructionError(
            "equivalence broken: bialgebra=%s matched_pair=%s manin=%s" % verdicts)
    return {"verdict": verdicts[0], "bialgebra": bial, "matched_pair": mp,
            "manin": manin}


def _outcome(fn, *args):
    try:
        return "returned", fn(*args)
    except (ConstructionError, PreconditionError) as exc:
        return "raised", type(exc), str(exc), getattr(exc, "report", None)


def test_equivalence_equals_the_standalone_checks():
    # every bound transposed fixture with three duals, and an a or an a_star
    # outside the class; each at three witness caps
    cases = [(a, dual(a)) for _, _, a, cls in bound_fixtures() if cls == T
             for dual in (trivial_dual, _oneprod_dual, lambda a: a)]
    cases += [(a, a_star) for _, a, a_star in _outside_the_class()]
    kinds = set()
    for a, a_star in cases:
        for mw in (0, 1, 32):
            got = _outcome(equivalence_report, a, a_star, mw)
            assert got == _outcome(_standalone_equivalence, a, a_star, mw)
            kinds.add(got[:2] if got[0] == "raised" else (got[0], got[1]["verdict"]))
    # criterion 07, both gates and a shared False verdict are all reached
    assert kinds >= {("raised", ConstructionError), ("raised", PreconditionError),
                     ("returned", False)}, kinds
    # the gate's report is the default-cap class report of the input at fault
    for tag, a, a_star in _outside_the_class():
        with pytest.raises(PreconditionError) as exc:
            equivalence_report(a, a_star, 0)
        assert str(exc.value) == "%s is not a transposed Hom-Poisson algebra" % tag
        assert exc.value.report == axioms.check_class({"a": a, "a_star": a_star}[tag], T)


def test_equivalence_builds_and_checks_the_double_once(monkeypatch):
    doubles, checked = [], []

    def counting_build(*args, **kwargs):
        doubles.append(build(*args, **kwargs))
        return doubles[-1]

    def counting_check(a, *args, **kwargs):
        checked.append(a)
        return check(a, *args, **kwargs)

    build, check = matched_pairs.build_double, axioms.CLASS_CHECKERS[T]
    for module in (duality, matched_pairs):
        monkeypatch.setattr(module, "build_double", counting_build)
    monkeypatch.setitem(axioms.CLASS_CHECKERS, T, counting_check)
    for a in (catalog.get("TP2"), catalog.get("THP2", {"lam": F(1)})):
        doubles.clear()
        checked.clear()
        equivalence_report(a, _oneprod_dual(a))
        assert len(doubles) == 1
        assert sum(x is doubles[0] for x in checked) == 1
