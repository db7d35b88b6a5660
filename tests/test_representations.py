import random
from fractions import Fraction

import pytest

from homstruct import catalog
from homstruct.axioms import (
    CLASS_FAMILIES,
    CLASS_OPS,
    IDENTITIES,
    check_class,
    check_multiplicative,
)
from homstruct.core import (
    AlgebraPresentation,
    BilinearMap,
    LinearMap,
    MissingOperationError,
    RepresentationPresentation,
    UnboundParameterError,
)
from homstruct.matched_pairs import (
    build_double,
    check_matched_pair,
    matched_pair_from_representation,
    zero_representation,
)
from homstruct.representations import (
    CROSS_ACTIONS,
    MODULE_AXIOMS,
    REP_FAMILIES,
    REP_OPS,
    PreconditionError,
    bimodule_from_morphism,
    check_rep,
    dual_representation,
    regular_representation,
    rep_commutator,
    semidirect_product,
)

from helpers import (
    bound_fixtures,
    closure_check_class,
    closure_check_rep,
    closure_dual_hypotheses,
    perturbed_fixtures,
    rand_algebra,
    rand_matrix,
    rand_rep,
)

F = Fraction


def _plp2_bimodule():
    # one-dimensional bimodule over PLP2: only the left action of e1 is nonzero
    return RepresentationPresentation(2, 1, {
        "s": (LinearMap.zero(1), LinearMap.zero(1)),
        "l": (LinearMap.from_rows([[F(3)]]), LinearMap.zero(1)),
        "r": (LinearMap.zero(1), LinearMap.zero(1)),
    }, LinearMap.zero(1))


def _hom_lie_from(a):
    return AlgebraPresentation(
        a.dim, {"bracket": a.op("bracket")}, {"alpha": a.alpha}, a.basis)


def test_regular_reps_multiplicative_fixtures():
    for name, label, a, cls in bound_fixtures():
        if not check_multiplicative(a).passed:
            continue
        rep = regular_representation(a, cls)
        assert check_rep(a, rep, cls).passed, (name, label)


def test_plp2_regular_rep_fails_twist_intertwining():
    # alpha = 2*id is not multiplicative, so left-multiplying by alpha(x)
    # does not match beta-conjugation in the regular actions
    a = catalog.get("PLP2", {"a": F(1)})
    rep = regular_representation(a, "hom-pre-lie-poisson")
    assert not check_rep(a, rep, "hom-pre-lie-poisson").passed


def test_plp2_explicit_bimodule_passes():
    a = catalog.get("PLP2", {"a": F(0)})
    rep = _plp2_bimodule()
    assert check_rep(a, rep, "hom-pre-lie-poisson").passed
    assert check_rep(a, rep, "hom-pre-lie").passed


def test_semidirect_all_classes():
    ca = catalog.get("CA2a")
    thp = catalog.get("THP2", {"lam": F(1)})
    plp = catalog.get("PLP2", {"a": F(0)})
    cases = [
        (ca, regular_representation(ca, "comm-hom-assoc"), "comm-hom-assoc"),
        (_hom_lie_from(thp),
         regular_representation(_hom_lie_from(thp), "hom-lie"), "hom-lie"),
        (thp, regular_representation(thp, "transposed-hom-poisson"),
         "transposed-hom-poisson"),
        (plp, _plp2_bimodule(), "hom-pre-lie"),
        (plp, _plp2_bimodule(), "hom-pre-lie-poisson"),
    ]
    for a, rep, cls in cases:
        sd = semidirect_product(a, rep, cls)
        assert sd.dim == a.dim + rep.module_dim
        assert check_class(sd, cls).passed, cls


def test_semidirect_rejects_bad_module():
    a = catalog.get("THP2", {"lam": F(1)})
    bad = RepresentationPresentation(2, 1, {
        "s": (LinearMap.from_rows([[F(1)]]), LinearMap.from_rows([[F(1)]])),
        "rho": (LinearMap.from_rows([[F(1)]]), LinearMap.from_rows([[F(1)]])),
    }, LinearMap.identity(1))
    with pytest.raises(PreconditionError):
        semidirect_product(a, bad, "transposed-hom-poisson")


def test_semidirect_rejects_algebra_outside_the_class():
    # CA2a's dot and alpha with {e1,e2} = e1: a Hom-Lie bracket that fails
    # the transposed Leibniz rule; the zero module passes its axioms
    ca = catalog.get("CA2a")
    bracket = BilinearMap(2, ((0, 1, 0, F(1)), (1, 0, 0, F(-1))))
    a = AlgebraPresentation(2, {"dot": ca.op("dot"), "bracket": bracket}, {"alpha": ca.alpha})
    zero = (LinearMap.zero(1), LinearMap.zero(1))
    rep = RepresentationPresentation(2, 1, {"s": zero, "rho": zero}, LinearMap.identity(1))
    cls = "transposed-hom-poisson"
    assert check_rep(a, rep, cls).passed and not check_class(a, cls).passed
    with pytest.raises(PreconditionError, match="input is not in class %s" % cls) as exc:
        semidirect_product(a, rep, cls)
    assert exc.value.report == check_class(a, cls)


def test_semidirect_output_is_in_the_class_exactly_when_its_gates_pass():
    # semidirect_product does not check its output: it is in the class
    # whenever the module axioms and a's class identities hold
    rng = random.Random(17)
    algebras = [a for _, _, a, _ in bound_fixtures()]
    algebras += [a for _, a, _ in perturbed_fixtures()]
    algebras += [rand_algebra(rng, n, CLASS_OPS[cls]) for n in (1, 2, 3) for cls in REP_OPS]
    outcomes = set()
    for a in algebras:
        for cls in [cls for cls in REP_OPS if set(CLASS_OPS[cls]) <= set(a.ops)]:
            p = rng.randint(1, 2)
            for rep in (regular_representation(a, cls),
                        zero_representation(a.dim, p, rand_matrix(rng, p), REP_OPS[cls])):
                rep_ok, a_ok = check_rep(a, rep, cls).passed, check_class(a, cls).passed
                try:
                    out = semidirect_product(a, rep, cls)
                except PreconditionError as exc:
                    outcomes.add("rejected")
                    assert str(exc) == ("input is not in class %s" % cls if rep_ok else
                                        "representation fails the %s module axioms" % cls)
                    assert not (rep_ok and a_ok)
                else:
                    outcomes.add("built")
                    assert rep_ok and a_ok and check_class(out, cls).passed
    assert outcomes == {"built", "rejected"}


def test_dual_representation_regular_hypotheses():
    # frozen verdicts: the mixed hypotheses fail for both regular modules,
    # and the resulting dual actions fail the transposed module axioms
    tp2 = catalog.get("TP2")
    reg = regular_representation(tp2, "transposed-hom-poisson")
    dual, hyp = dual_representation(tp2, reg)
    assert not hyp.passed
    assert sorted({w[0] for w in hyp.witnesses}) == ["hyp-mixed-1", "hyp-mixed-2"]
    assert not check_rep(tp2, dual, "transposed-hom-poisson").passed

    thp = catalog.get("THP2", {"lam": F(1)})
    reg = regular_representation(thp, "transposed-hom-poisson")
    dual, hyp = dual_representation(thp, reg)
    assert not hyp.passed
    assert sorted({w[0] for w in hyp.witnesses}) == [
        "hyp-mixed-1", "hyp-mixed-2", "hyp-strict-commute:s"]
    assert not check_rep(thp, dual, "transposed-hom-poisson").passed


def _tp2_line_module():
    """A one-dimensional TP2 module on which every dual hypothesis holds."""
    b = LinearMap.from_rows([[F(2)]])
    return RepresentationPresentation(2, 1, {
        "s": (LinearMap.zero(1), b),
        "rho": (LinearMap.zero(1), LinearMap.zero(1)),
    }, b)


def test_dual_representation_when_hypotheses_pass():
    # one-dimensional module where every hypothesis holds: the dual passes
    a = catalog.get("TP2")
    rep = _tp2_line_module()
    assert check_rep(a, rep, "transposed-hom-poisson").passed
    dual, hyp = dual_representation(a, rep)
    assert hyp.passed
    assert check_rep(a, dual, "transposed-hom-poisson").passed
    # dual twist is the transpose, dual rho flips sign
    assert dual.beta == rep.beta.transpose()
    assert dual.actions["s"][1] == rep.actions["s"][1].transpose()
    assert dual.actions["rho"][1] == -rep.actions["rho"][1].transpose()


def test_dual_representation_converts_the_algebra_once(monkeypatch):
    # the hypotheses and the module gate share the algebra's and the
    # module's integer tensors
    import homstruct.representations as reps
    a = catalog.get("TP2")
    rep = _tp2_line_module()
    seen = []
    convert = reps.int_tensor
    monkeypatch.setattr(reps, "int_tensor", lambda x: seen.append(x) or convert(x))
    dual, hyp = dual_representation(a, rep)
    assert hyp.passed
    for x in (a.alpha, a.op("dot"), a.op("bracket")):
        assert sum(y is x for y in seen) == 1


def test_rep_commutator():
    plp = catalog.get("PLP2", {"a": F(0)})
    rep = _plp2_bimodule()
    rho = rep_commutator(rep)
    assert rho.actions["rho"][0] == rep.actions["l"][0] - rep.actions["r"][0]


def _perturbed_reps(rep, rng, count):
    """Copies of rep with one entry of one action matrix (or of beta) moved."""
    out = []
    for _ in range(count):
        slot = rng.choice(sorted(rep.actions) + ["beta"])
        idx = rng.randrange(rep.algebra_dim)
        mat = rep.beta if slot == "beta" else rep.actions[slot][idx]
        rows = [list(row) for row in mat.m]
        r, c = rng.randrange(mat.rows), rng.randrange(mat.cols)
        rows[r][c] += F(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
        moved = LinearMap.from_rows(rows)
        actions = dict(rep.actions)
        if slot == "beta":
            beta = moved
        else:
            beta = rep.beta
            actions[slot] = actions[slot][:idx] + (moved,) + actions[slot][idx + 1:]
        out.append(RepresentationPresentation(
            rep.algebra_dim, rep.module_dim, actions, beta))
    return out


def test_check_rep_matches_zero_opposite_double():
    # a module over an in-class algebra is exactly a representation whose
    # zero-opposite double lies in the class and is multiplicative on the
    # tuples with one module slot (the twist-intertwining axioms)
    thp = catalog.get("THP2", {"lam": F(1)})
    plp = catalog.get("PLP2", {"a": F(0)})
    cases = [
        (thp, "transposed-hom-poisson"),
        (catalog.get("TP2"), "transposed-hom-poisson"),
        (catalog.get("CA2a"), "comm-hom-assoc"),
        (catalog.get("CA3a"), "comm-hom-assoc"),
        (_hom_lie_from(thp), "hom-lie"),
        (plp, "hom-pre-lie"),
        (plp, "hom-pre-lie-poisson"),
    ]
    rng = random.Random(20261017)
    verdicts = set()
    for a, cls in cases:
        assert check_class(a, cls).passed, cls
        reps = [regular_representation(a, cls)]
        if a is plp:
            # the regular bimodule of PLP2 fails; perturb one that passes
            reps.append(_plp2_bimodule())
        for rep in reps + _perturbed_reps(reps[-1], rng, 5):
            double = build_double(matched_pair_from_representation(a, rep, cls),
                                  cls, check_actions=False)
            mult = check_multiplicative(double, max_witnesses=10 ** 6)
            one_module_slot = [w for w in mult.witnesses
                               if sum(i >= a.dim for i in w[1]) == 1]
            passed = check_rep(a, rep, cls).passed
            assert passed == (check_class(double, cls).passed
                              and not one_module_slot), cls
            verdicts.add((cls, passed))
    assert len(verdicts) == 2 * len(set(cls for _, cls in cases))


def _flat(report):
    """Everything a report says, with each residual also as its str."""
    return (report.passed, report.checked, report.failures,
            [(w[0], w[1], w[2], [str(c) for c in w[2]]) for w in report.all_witnesses()],
            [(name, _flat(sub)) for name, sub in report.sub_reports.items()])


def _rep_cases():
    """(algebra, rep, class) over every rep class: regular reps of the bound
    fixtures, seeded one-entry perturbations of them and of the explicit PLP2
    bimodule, random reps with non-integer entries at module_dim 1-3, and
    regular and random reps of random algebras with non-integer constants."""
    rng = random.Random(20261018)
    cases = []
    for _, _, a, _ in bound_fixtures():
        for cls in REP_OPS:
            if not set(CLASS_OPS[cls]) <= set(a.ops):
                continue
            reg = regular_representation(a, cls)
            cases += [(a, rep, cls) for rep in [reg] + _perturbed_reps(reg, rng, 2)]
            cases.append((a, rand_rep(rng, a.dim, rng.choice([1, 2, 3]), REP_OPS[cls]), cls))
    for cls in REP_OPS:
        # non-integer ops and alpha
        a = rand_algebra(rng, 2, CLASS_OPS[cls])
        cases += [(a, rep, cls) for rep in (regular_representation(a, cls),
                                            rand_rep(rng, a.dim, 3, REP_OPS[cls]))]
    plp = catalog.get("PLP2", {"a": F(0)})
    for cls in ("hom-pre-lie", "hom-pre-lie-poisson"):
        cases += [(plp, rep, cls)
                  for rep in [_plp2_bimodule()] + _perturbed_reps(_plp2_bimodule(), rng, 4)]
    return cases


def test_check_rep_matches_fraction_closures():
    cases = _rep_cases()
    assert {cls for _, _, cls in cases} == set(REP_OPS)
    assert {rep.module_dim != a.dim for a, rep, _ in cases} == {True, False}
    verdicts = set()
    for mw in (0, 3, 32):
        for a, rep, cls in cases:
            got = _flat(check_rep(a, rep, cls, mw))
            assert got == _flat(closure_check_rep(a, rep, cls, mw)), (cls, mw)
            verdicts.add((cls, got[0]))
            if cls != "transposed-hom-poisson":
                continue
            try:
                dual, hyp = dual_representation(a, rep, mw)
            except PreconditionError:
                # only when every hypothesis holds are the module and the
                # algebra checked
                assert not (closure_check_rep(a, rep, cls, mw).passed
                            and closure_check_class(a, cls, mw).passed)
                assert closure_dual_hypotheses(a, rep, mw).passed
                continue
            assert _flat(hyp) == _flat(closure_dual_hypotheses(a, rep, mw))
            assert (_flat(check_rep(a, dual, cls, mw))
                    == _flat(closure_check_rep(a, dual, cls, mw)))
            assert not hyp.passed or closure_check_rep(a, dual, cls, mw).passed
    assert verdicts == {(cls, v) for cls in REP_OPS for v in (True, False)}


def test_check_rep_errors_match_fraction_closures():
    def raised(fn, *args):
        with pytest.raises((UnboundParameterError, PreconditionError,
                            MissingOperationError)) as exc:
            fn(*args)
        return type(exc.value), exc.value.args

    tp2 = catalog.get("TP2")
    reg = regular_representation(tp2, "transposed-hom-poisson")
    unbound_rep = RepresentationPresentation(2, 2, dict(reg.actions), reg.beta, ("t",))
    s_only = RepresentationPresentation(2, 2, {"s": reg.actions["s"]}, reg.beta)
    no_dot = AlgebraPresentation(2, {"bracket": tp2.op("bracket")}, dict(tp2.maps))
    three = catalog.get("CA3a")
    cases = [
        # unbound parameters first, the algebra's before the rep's
        (catalog.get("THP2"), unbound_rep, "hom-pre-lie"),
        (tp2, unbound_rep, "transposed-hom-poisson"),
        # then the algebra_dim match, the algebra's ops and the actions
        (three, s_only, "hom-pre-lie"),
        (three, reg, "comm-hom-assoc"),
        (no_dot, s_only, "transposed-hom-poisson"),
        (tp2, s_only, "hom-pre-lie"),
        (tp2, s_only, "transposed-hom-poisson"),
        (tp2, s_only, "hom-lie"),
        (tp2, RepresentationPresentation(2, 2, {"rho": reg.actions["rho"]}, reg.beta),
         "transposed-hom-poisson"),
    ]
    for a, rep, cls in cases:
        expected = raised(closure_check_rep, a, rep, cls)
        assert raised(check_rep, a, rep, cls) == expected, (cls, expected)
        if {"dot", "bracket"} <= set(a.ops) and a.dim == 2:
            assert raised(dual_representation, a, rep) == \
                raised(closure_dual_hypotheses, a, rep), (cls, expected)


def test_bimodule_from_morphism_gates_on_the_pulled_back_bimodule():
    # PLP2's twist 2 id is not multiplicative, so its regular bimodule fails
    # the module axioms: a precondition, not a failed construction
    for a_value in (F(0), F(1), F(-2)):
        b = catalog.get("PLP2", {"a": a_value})
        with pytest.raises(PreconditionError) as exc:
            bimodule_from_morphism(b, b, LinearMap.identity(2))
        assert exc.value.report is not None and not exc.value.report.passed
    for name, cls in (("CA2a", "comm-hom-assoc"), ("CA3a", "comm-hom-assoc"),
                      ("TP2", "transposed-hom-poisson"),
                      ("THP2", "transposed-hom-poisson")):
        b = catalog.get(name, {"lam": F(1)} if name == "THP2" else None)
        rep = bimodule_from_morphism(b, b, LinearMap.identity(b.dim), cls)
        assert check_rep(b, rep, cls).passed, name
    # f = 0 intertwines the twists, and the zero bimodule it pulls back passes
    for a_value in (F(0), F(1), F(-2)):
        b = catalog.get("PLP2", {"a": a_value})
        rep = bimodule_from_morphism(b, b, LinearMap.zero(2, 2))
        assert check_rep(b, rep, "hom-pre-lie-poisson").passed


def test_classes_without_module_axioms_raise_precondition():
    a = catalog.get("THP2", {"lam": F(1)})
    rep = regular_representation(a, "transposed-hom-poisson")
    calls = [lambda cls: check_rep(a, rep, cls),
             lambda cls: regular_representation(a, cls),
             lambda cls: semidirect_product(a, rep, cls),
             lambda cls: bimodule_from_morphism(a, a, LinearMap.identity(2), cls),
             lambda cls: matched_pair_from_representation(a, rep, cls),
             lambda cls: build_double(matched_pair_from_representation(
                 a, rep, "transposed-hom-poisson"), cls),
             lambda cls: check_matched_pair(matched_pair_from_representation(
                 a, rep, "transposed-hom-poisson"), cls)]
    missing = set(CLASS_OPS) - set(REP_OPS)
    assert missing == {"hom-poisson"}
    for cls in missing:
        for call in calls:
            with pytest.raises(PreconditionError,
                               match="class %s has no module axioms \\(classes with module "
                                     "axioms: %s\\)" % (cls, ", ".join(REP_OPS))):
                call(cls)


def test_module_axioms_are_derived_from_each_class_identity():
    """A class's derived module axioms name exactly its own arity-3
    identities, so a class identity added without its module axioms fails."""
    for cls, (_, idents) in REP_FAMILIES.items():
        derived = {MODULE_AXIOMS[ident][0] for ident in idents if ident in MODULE_AXIOMS}
        own = {ident for ident in CLASS_FAMILIES[cls][1] if IDENTITIES[ident][0] == 3}
        assert derived == own, cls
    assert set(MODULE_AXIOMS) <= {ident for _, idents in REP_FAMILIES.values()
                                  for ident in idents}
    assert all(sorted(letters) == ["i", "j", "v"] for _, letters, _ in MODULE_AXIOMS.values())
    assert {op for ops in CLASS_OPS.values() for op in ops} <= set(CROSS_ACTIONS)
