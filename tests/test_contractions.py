"""Differential tests: every check written as contraction rows against the
Fraction closure it replaced (tests/helpers.py), plus the evaluator itself."""

import copy
import functools
import random
from fractions import Fraction

import pytest

from homstruct import catalog
from homstruct.axioms import (
    CLASS_OPS,
    check_class,
    check_derivation,
    check_morphism,
    check_multiplicative,
    check_transposed_consequences,
)
from homstruct.core import (
    AlgebraPresentation,
    BilinearMap,
    ConstructionError,
    DimensionError,
    IntTensor,
    LinearMap,
    MissingOperationError,
    PreconditionError,
    RepresentationPresentation,
    UnboundParameterError,
    bilinear_from_terms,
    contract,
    contraction_family,
    int_tensor,
    maps_from_terms,
    parse_algebra,
    run_identity_families,
    serialize_algebra,
)
from homstruct.duality import (
    check_bialgebra_conditions,
    check_invariant_form,
    check_manin_triple,
    coadjoint_matched_pair,
    standard_form,
    trivial_dual,
)
from homstruct.matched_pairs import (
    build_double,
    check_matched_pair,
    matched_pair_from_representation,
    zero_representation,
)
from homstruct.operators import (
    _induced,
    check_o_operator,
    derivation_space,
    induced_products,
    o_operator_is_morphism,
)
from homstruct.representations import REP_OPS, check_rep, regular_representation

from helpers import (
    bound_fixtures,
    closure_bialgebra_families,
    closure_check_derivation,
    closure_check_invariant_form,
    closure_check_morphism,
    closure_check_multiplicative,
    closure_o_morphism_families,
    closure_o_operator_families,
    closure_transposed_consequences,
    coalgebra_of,
    coop_entries,
    perturbed_fixtures,
    rand_algebra,
    rand_coops,
    rand_matrix,
    rand_rep,
)

F = Fraction
WITNESS_CAPS = (0, 3, 32)


def _flat(report):
    """Everything a report says, with each residual by value and by str."""
    return (report.checked, report.failures,
            [(w[0], w[1], w[2], [str(c) for c in w[2]]) for w in report.witnesses],
            report.notes,
            [(name, _flat(sub)) for name, sub in report.sub_reports.items()])


def _same(new, old):
    """Compare at every witness cap; returns the verdict."""
    for mw in WITNESS_CAPS:
        assert _flat(new(mw)) == _flat(old(mw)), mw
    return new(32).passed


def _algebras():
    """Bound fixtures, 20 perturbations and dense random algebras at dims
    1-3 with non-integer ops and alpha (one per class op set)."""
    out = [a for _, _, a, _ in bound_fixtures()]
    out += [a for _, a, _ in perturbed_fixtures(20, seed=20261018)]
    rng = random.Random(6)
    out += [rand_algebra(rng, n, names) for n in (1, 2, 3)
            for names in sorted(set(CLASS_OPS.values()))]
    return out


def _transposed():
    """Algebras with a dot and a bracket: the transposed fixtures, their
    perturbations and random ones."""
    return [a for a in _algebras() if {"dot", "bracket"} <= set(a.ops)]


def test_multiplicative_matches_closure():
    # the all-ops report holds one multiplicative:<op> family per op
    verdicts = {_same(lambda mw: check_multiplicative(a, mw),
                      lambda mw: closure_check_multiplicative(a, mw))
                for a in _algebras()}
    assert verdicts == {True, False}


def test_derivation_matches_closure():
    rng = random.Random(7)
    verdicts = set()
    for a in _algebras():
        op_name = sorted(a.ops)[0]
        ds = [rand_matrix(rng, a.dim), LinearMap.identity(a.dim)]
        if a.dim <= 2:
            ds += derivation_space(a, op_name, commuting_with=None)
        for d in ds:
            for commuting in (True, False):
                verdicts.add(_same(
                    lambda mw: check_derivation(a, op_name, d, commuting, mw),
                    lambda mw: closure_check_derivation(a, op_name, d, commuting, mw)))
    assert verdicts == {True, False}


def test_morphism_matches_closure():
    rng = random.Random(8)
    verdicts = set()
    for a in _algebras():
        for f in (LinearMap.diagonal([F(3)] + [F(1)] * (a.dim - 1)), rand_matrix(rng, a.dim)):
            for names in (None, sorted(a.ops)[:1]):
                verdicts.add(_same(lambda mw: check_morphism(a, a, f, names, mw),
                                   lambda mw: closure_check_morphism(a, a, f, names, mw)))
    assert verdicts == {True, False}
    # between algebras of different dimensions
    for n, m in ((1, 2), (2, 3), (3, 2)):
        a, b = rand_algebra(rng, n, ("dot", "bracket")), rand_algebra(rng, m, ("dot",))
        f = rand_matrix(rng, m, n)
        _same(lambda mw: check_morphism(a, b, f, None, mw),
              lambda mw: closure_check_morphism(a, b, f, None, mw))


def test_transposed_consequences_match_closure():
    rng = random.Random(9)
    cases = _transposed()
    # alpha = id, so that the four-variable family runs
    cases += [AlgebraPresentation(a.dim, a.ops, {"alpha": LinearMap.identity(a.dim)})
              for a in cases]
    cases.append(rand_algebra(rng, 4, ("dot", "bracket")))
    assert sum(a.alpha.is_identity() for a in cases) > 10
    verdicts = {_same(lambda mw: check_transposed_consequences(a, mw),
                      lambda mw: closure_transposed_consequences(a, mw)) for a in cases}
    assert verdicts == {True, False}


def _forms(rng, n):
    return [rand_matrix(rng, n), LinearMap.identity(n)]


def test_invariant_form_matches_closure():
    rng = random.Random(10)
    cases = [(a, form) for a in _algebras() for form in _forms(rng, a.dim)]
    for a in _transposed()[:12]:
        if _is_transposed(a):
            double = build_double(coadjoint_matched_pair(a, trivial_dual(a)),
                                  "transposed-hom-poisson", check_actions=False)
            cases.append((double, standard_form(a.dim)))
            cases.append((double, rand_matrix(rng, 2 * a.dim)))
    verdicts = {_same(lambda mw: check_invariant_form(a, form, mw),
                      lambda mw: closure_check_invariant_form(a, form, mw))
                for a, form in cases}
    assert verdicts == {True, False}


def _is_transposed(a):
    return check_class(a, "transposed-hom-poisson").passed


def test_bialgebra_families_match_closure():
    # the dual products go to src/ and their raw entries to the closure
    rng = random.Random(12)
    cases = []
    for idx, a in enumerate(_transposed()):
        coops = rand_coops(rng, a.dim)
        dual = trivial_dual(a)
        cases.append((a, AlgebraPresentation(a.dim, coalgebra_of(a.dim, coops).ops,
                                             dual.maps), coops))
        if idx % 3 == 0:
            one = AlgebraPresentation(a.dim, dict(dual.ops, dot=BilinearMap(
                a.dim, ((0, 0, 0, F(1)),))), dict(dual.maps))
            cases += [(a, b, coop_entries(b)) for b in (dual, one)]
    failing = set()
    for a, a_star, coops in cases:
        for mw in WITNESS_CAPS:
            new = check_bialgebra_conditions(a, a_star, mw)
            old = closure_bialgebra_families(a, coops, mw)
            assert _flat(new)[:4] == _flat(old)[:4], mw
        failing.update(w[0] for w in old.witnesses)
    assert len(failing) == 5


def _o_operator_cases():
    """(a, rep, T, class) with a rep that passes the module axioms."""
    rng = random.Random(13)
    out = []
    for name, _, a, cls in bound_fixtures():
        for c in ("comm-hom-assoc", "hom-lie", "transposed-hom-poisson"):
            if not set(CLASS_OPS[c]) <= set(a.ops):
                continue
            reg = regular_representation(a, c)
            if not check_rep(a, reg, c).passed:
                continue
            for T in (LinearMap.identity(a.dim), LinearMap.zero(a.dim),
                      rand_matrix(rng, a.dim)):
                out.append((a, reg, T, c))
    # zero actions on modules of other dimensions, with random beta and T
    for a in _transposed():
        for p in (1, 2, 3):
            zero = zero_representation(a.dim, p, rand_matrix(rng, p), ("s", "rho"))
            out.append((a, zero, rand_matrix(rng, a.dim, p), "transposed-hom-poisson"))
    # random actions: with zero ops, alpha = 0 and beta = 0 every module
    # axiom holds, so the gate passes and the o-equations see random s, rho
    for n, p in ((1, 2), (2, 2), (2, 3), (3, 1)):
        a = AlgebraPresentation(n, {"dot": BilinearMap(n), "bracket": BilinearMap(n)},
                                {"alpha": LinearMap.zero(n)})
        rep = rand_rep(rng, n, p, ("s", "rho"))
        rep = RepresentationPresentation(n, p, dict(rep.actions), LinearMap.zero(p))
        for cls in ("comm-hom-assoc", "hom-lie", "transposed-hom-poisson"):
            out.append((a, rep, rand_matrix(rng, n, p), cls))
    return out


def test_o_operator_families_match_closure():
    cases = _o_operator_cases()
    assert len(cases) > 40
    verdicts = {_same(lambda mw: check_o_operator(a, rep, T, cls, mw),
                      lambda mw: closure_o_operator_families(a, rep, T, cls, mw))
                for a, rep, T, cls in cases}
    assert verdicts == {True, False}


def _ungated_sub_adjacent(induced):
    """sub_adjacent's algebra without its class gate: the star's commutator
    as the bracket, the dot kept; without a star, the structure itself."""
    if "star" not in induced.ops:
        return induced
    bracket = {}
    for i, j, k, c in induced.op("star").entries:
        bracket[i, j, k] = bracket.get((i, j, k), 0) + c
        bracket[j, i, k] = bracket.get((j, i, k), 0) - c
    ops = {"bracket": BilinearMap(induced.dim, tuple(idx + (c,) for idx, c in bracket.items()))}
    if "dot" in induced.ops:
        ops["dot"] = induced.op("dot")
    return AlgebraPresentation(induced.dim, ops, {"alpha": induced.alpha})


def test_o_operator_morphism_families_match_closure():
    """o_operator_is_morphism against the closure where T passes the
    O-operator gate; where it fails, check_morphism from the ungated induced
    structure's sub-adjacent algebra to a against the same closure, so that
    failing rows, their family ids and the twist row's sign T beta - alpha T
    are compared too."""
    seen, failing = 0, set()
    for a, rep, T, cls in _o_operator_cases():
        induced = _induced(rep, T, cls)
        old = functools.partial(closure_o_morphism_families, a, rep, T, induced)
        try:
            induced_products(a, rep, T, cls)
        except (PreconditionError, ConstructionError):
            sub = _ungated_sub_adjacent(induced)
            if not _same(lambda mw: check_morphism(sub, a, T, max_witnesses=mw), old):
                failing.update(w[0] for w in old(32).witnesses)
            continue
        seen += 1
        assert _same(lambda mw: o_operator_is_morphism(a, rep, T, cls, mw), old)
    assert seen > 10
    assert failing == {"morphism:bracket", "morphism:dot", "intertwines-twists"}


def _raised(fn, *args):
    with pytest.raises(Exception) as exc:
        fn(*args)
    return type(exc.value), exc.value.args


def test_check_errors_match_closures():
    tp2 = catalog.get("TP2")
    thp2 = catalog.get("THP2")  # unbound lam
    sq, wide = LinearMap.identity(2), LinearMap.zero(2, 3)
    no_alpha = AlgebraPresentation(2, dict(tp2.ops))
    param_form = LinearMap.from_rows([["t", F(0)], [F(0), F(1)]])
    pairs = [
        # non-square D, missing op, unbound algebra, missing alpha
        (check_derivation, closure_check_derivation, (tp2, "dot", wide)),
        (check_derivation, closure_check_derivation, (tp2, "star", sq)),
        (check_derivation, closure_check_derivation, (thp2, "star", wide)),
        (check_derivation, closure_check_derivation, (no_alpha, "dot", sq)),
        # wrong-shape f, missing op, unbound algebra, missing alpha
        (check_morphism, closure_check_morphism, (tp2, tp2, wide)),
        (check_morphism, closure_check_morphism, (tp2, tp2, sq, ("star",))),
        (check_morphism, closure_check_morphism, (tp2, thp2, sq)),
        (check_morphism, closure_check_morphism, (no_alpha, tp2, sq)),
        (check_multiplicative, closure_check_multiplicative, (thp2,)),
        (check_multiplicative, closure_check_multiplicative, (no_alpha,)),
        # form dimension mismatch, non-square form, unbound algebra, missing
        # alpha, unbound form
        (check_invariant_form, closure_check_invariant_form, (tp2, LinearMap.zero(3))),
        (check_invariant_form, closure_check_invariant_form, (tp2, wide)),
        (check_invariant_form, closure_check_invariant_form, (thp2, LinearMap.zero(2))),
        (check_invariant_form, closure_check_invariant_form, (no_alpha, LinearMap.zero(2))),
        (check_invariant_form, closure_check_invariant_form, (tp2, param_form)),
    ]
    for new, old, args in pairs:
        assert _raised(new, *args) == _raised(old, *args), (new.__name__, args[1:])
    assert _raised(check_invariant_form, tp2, param_form)[0] is UnboundParameterError
    # a wrong-shape T, before anything else
    reg = regular_representation(tp2, "transposed-hom-poisson")
    assert _raised(check_o_operator, tp2, reg, wide, "transposed-hom-poisson")[0] \
        is DimensionError
    # an unbound form raises even where the closure never reads its entry
    zero = AlgebraPresentation(2, {"dot": BilinearMap(2)}, {"alpha": sq})
    assert closure_check_invariant_form(zero, param_form).passed
    with pytest.raises(UnboundParameterError):
        check_invariant_form(zero, param_form)
    # unbound comultiplications fail the dual gate before any family runs
    with pytest.raises(UnboundParameterError):
        check_bialgebra_conditions(tp2, AlgebraPresentation(
            2, {"dot": BilinearMap(2, ((0, 0, 0, "t"),)), "bracket": BilinearMap(2)},
            trivial_dual(tp2).maps))
    with pytest.raises(MissingOperationError):
        check_bialgebra_conditions(
            AlgebraPresentation(2, {"dot": tp2.op("dot")}, dict(tp2.maps)), trivial_dual(tp2))


def test_contraction_family_rows():
    # op(e_i, e_j) for op = e1 e1 = 1/2 e2 on a dim-2 space, against the
    # tensor contracted with a 1/3-scaled identity: residual (op - op/3)
    op = int_tensor(BilinearMap(2, ((0, 0, 1, F(1, 2)),)))
    third = int_tensor(LinearMap.diagonal([F(1, 3), F(1, 3)]))
    t = {"op": op, "g": third}
    assert (op.scale, op.entries, third.scale) == (2, {(0, 0, 1): 1}, 3)
    ident, arity, fn = contraction_family("x", (2, (
        (1, "ijo->ijo", ("op",)), (-1, "ijr,or->ijo", ("op", "g")))), t)
    report = run_identity_families(2, [(ident, arity, fn)])
    assert report.witnesses == [("x", (0, 0), (F(0), F(1, 3)))]
    assert report.checked == 4
    # a summed letter that reaches no operand of the running result is
    # taken last, and scalar rows have one coordinate
    m = [[F(1), F(2)], [F(3), F(4)]]
    g = int_tensor(LinearMap.from_rows(m))
    _, _, fn = contraction_family("tr", (1, ((1, "ai,bc,ab->i", ("g", "g", "g")),)), {"g": g})
    # sum_{a,b,c} g[a][i] g[b][c] g[a][b]
    want = [sum(m[a][i] * m[b][c] * m[a][b]
                for a in range(2) for b in range(2) for c in range(2)) for i in range(2)]
    scale, table = fn()
    assert [[F(x, scale) for x in table.get((i,), [0])] for i in range(2)] == \
        [[F(w)] for w in want]
    # one spec over operands of other shapes and sparsity: a contraction plan
    # is shared by every use of its spec, so it may depend on the letters only
    rng = random.Random(11)

    def rand_tensor(shape, density):
        cells = [()]
        for size in shape:
            cells = [c + (x,) for c in cells for x in range(size)]
        return [c + (F(rng.randint(-3, 3), rng.choice((1, 2, 3))),)
                for c in cells if rng.random() < density]

    for n, p, density in ((2, 3, 1.0), (3, 2, 0.3), (1, 4, 0.6)):
        raw = {"op": rand_tensor((n, n, n), density),
               "act": rand_tensor((n, p, p), density),
               "beta": rand_tensor((p, p), density)}
        dense = {name: {tuple(e[:-1]): e[-1] for e in entries}
                 for name, entries in raw.items()}
        t = {name: IntTensor(shape, raw[name]) for name, shape in
             (("op", (n, n, n)), ("act", (n, p, p)), ("beta", (p, p)))}
        _, _, fn = contraction_family("act(op(x, y)) beta", (2, (
            (1, "ijx,xuv,vw->ijuw", ("op", "act", "beta")),)), t)
        scale, table = fn()
        for i in range(n):
            for j in range(n):
                want = [sum(dense["op"].get((i, j, x), 0) * dense["act"].get((x, u, v), 0)
                            * dense["beta"].get((v, w), 0)
                            for x in range(n) for v in range(p))
                        for u in range(p) for w in range(p)]
                assert [F(x, scale) for x in table.get((i, j), [0] * p * p)] == want, \
                    (n, p, i, j)
    # the error texts: a spec is parsed once, but its shapes are checked
    # on every call; the first unbound coefficient is named
    t = {"op": op, "w": int_tensor(LinearMap.zero(2, 3))}
    letter = ("'ijr,or->ijo' does not fit shapes [(2, 2, 2), (2, 3)]:"
              " letter 'r' has sizes 2 and 3")
    for row, message in (
            ((2, ((1, "ijr,or->ijo", ("op", "w")),)), letter),
            ((2, ((1, "ijro->ijo", ("op",)),)),
             "'ijro->ijo' does not fit shapes [(2, 2, 2)]: the ranks differ"),
            ((2, ((1, "ikr->iko", ("op",)),)),
             "'ikr->iko' must start its output with 'ij' and hold no other letter of 'ijkl'"),
            # a tuple letter among the coordinates
            ((2, ((1, "ijk->ijk", ("op",)),)),
             "'ijk->ijk' must start its output with 'ij' and hold no other letter of 'ijkl'"),
            # two terms of two shapes
            ((2, ((1, "ijo->ijo", ("op",)), (1, "ijr,ro->ijo", ("op", "w")))),
             "the terms give shapes [(2, 2, 2), (2, 2, 3)]")):
        for _ in range(3):
            with pytest.raises(DimensionError) as exc:
                contraction_family("bad", row, t)
            assert str(exc.value) == "bad: " + message
    # the builders read and check the same shapes
    for build in (bilinear_from_terms, maps_from_terms):
        for _ in range(3):
            with pytest.raises(DimensionError) as exc:
                build(((1, "ijr,or->ijo", ("op", "w")),), t)
            assert str(exc.value) == letter
    with pytest.raises(UnboundParameterError) as exc:
        IntTensor((3,), [(0, F(0)), (1, "t"), (2, "-u")])
    assert str(exc.value) == "unbound parameter 't' in coefficient"


def test_int_tensor_is_kept_on_its_map():
    # the tensor is a plain attribute like BilinearMap.rows: the fields, ==,
    # hash and repr see only what they saw before it was kept
    op = BilinearMap(2, ((0, 0, 1, F(1, 2)), (1, 0, 0, F(3))))
    f = LinearMap.from_rows([[F(1), F(2, 3)], [F(0), F(4)]])
    for x, fields in ((op, ("dim", "entries")), (f, ("rows", "cols", "m"))):
        twin = type(x)(*(getattr(x, name) for name in fields))
        shown, hashed = repr(x), hash(x)
        assert int_tensor(x) is int_tensor(x)
        assert int_tensor(twin) is not int_tensor(x)
        assert x._fields == fields
        assert x == twin and hash(x) == hash(twin) == hashed
        assert repr(x) == repr(twin) == shown and "IntTensor" not in shown
    # a family is a sequence of maps and is converted on every call
    assert int_tensor((f, f)) is not int_tensor((f, f))


def test_unbound_map_keeps_no_tensor():
    for x in (BilinearMap(2, ((0, 0, 1, "t"),)), LinearMap.from_rows([["t", F(0)], [F(0), F(1)]])):
        for _ in range(2):
            with pytest.raises(UnboundParameterError) as exc:
                int_tensor(x)
            assert str(exc.value) == "unbound parameter 't' in coefficient"
        assert not any(isinstance(v, IntTensor) for v in vars(x).values())


def test_misfit_spec_raises_on_every_call():
    # the fit of a spec to its shapes is cached, the error is not: every call
    # raises it with the same text, also after a call where the spec fits
    t = {"op": int_tensor(BilinearMap(2, ((0, 0, 1, F(1)),))),
         "w": int_tensor(LinearMap.zero(2, 3)), "g": int_tensor(LinearMap.identity(2))}
    bad = "'ijr,or->ijo' does not fit shapes [(2, 2, 2), (2, 3)]: letter 'r' has sizes 2 and 3"
    for _ in range(3):
        with pytest.raises(DimensionError) as exc:
            contract(((1, "ijr,or->ijo", ("op", "w")),), t)
        assert str(exc.value) == bad
        with pytest.raises(DimensionError) as exc:
            contraction_family("x", (2, ((1, "ijr,or->ijo", ("op", "w")),)), t)
        assert str(exc.value) == "x: " + bad
        assert contract(((1, "ijr,or->ijo", ("op", "g")),), t) == {(0, 0, 1): 1}


def _kept_tensors(*roots):
    """The IntTensors kept on the maps reachable from roots."""
    out, todo, seen = [], list(roots), set()
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, dict):
            todo += x.values()
        elif isinstance(x, (tuple, list)):
            todo += x
        elif hasattr(x, "_fields"):
            todo += [getattr(x, name) for name in x._fields]
            out += [v for v in vars(x).values() if isinstance(v, IntTensor)]
    return out


def _construction_cases(algebras):
    """(a, [(class, rep, matched pair)], dual, one-product dual) per
    algebra, each built once: the regular module of every class with module
    axioms that a's ops allow."""
    out = []
    for a in algebras:
        reps = []
        for cls in REP_OPS:
            if set(CLASS_OPS[cls]) <= set(a.ops):
                rep = regular_representation(a, cls)
                reps.append((cls, rep, matched_pair_from_representation(a, rep, cls)))
        dual = trivial_dual(a)
        one = AlgebraPresentation(a.dim, dict(dual.ops, dot=BilinearMap(
            a.dim, ((0, 0, 0, F(1)),))), dict(dual.maps))
        out.append((a, reps, dual, one))
    return out


def _construction_outcomes(cases):
    """What each module, matched-pair, Manin, bialgebra and derivation call
    gives, residuals also by str, or the error it raises."""
    def outcome(fn, *args):
        try:
            out = fn(*args)
        except (ConstructionError, PreconditionError, MissingOperationError) as exc:
            return "raises", type(exc).__name__, str(exc)
        if isinstance(out, list):
            return "derivations", [(d.m, repr(d)) for d in out]
        return "report", out.passed, _flat(out)

    got = []
    for a, reps, dual, one in cases:
        for cls, rep, mp in reps:
            got.append(outcome(check_rep, a, rep, cls))
            got.append(outcome(check_matched_pair, mp, cls))
        got.append(outcome(check_manin_triple, a, dual))
        got.append(outcome(check_bialgebra_conditions, a, one))
        got += [outcome(derivation_space, a, name) for name in sorted(a.ops)]
    return got


def test_kept_tensors_give_the_cold_results_and_stay_unchanged():
    # a second run on the same objects reads the tensors and groupings kept
    # by the first; it must give what the first run and a run on freshly
    # parsed copies give, and leave every kept dict as it found it
    algebras = [a for _, _, a, _ in bound_fixtures()]
    cases = _construction_cases(algebras)
    cold = _construction_outcomes(cases)
    kept = _kept_tensors(cases)
    snapshot = [(t, copy.deepcopy(t.entries), {k: copy.deepcopy(g) for k, g in t._groups.items()})
                for t in kept]
    assert sum(len(groups) for _, _, groups in snapshot) > len(kept)
    assert _construction_outcomes(cases) == cold
    fresh = [parse_algebra(serialize_algebra(a)) for a in algebras]
    assert _construction_outcomes(_construction_cases(fresh)) == cold
    for t, entries, groups in snapshot:
        assert t.entries == entries
        assert {k: t._groups[k] for k in groups} == groups
    kinds = {(got[0], got[1] if got[0] == "report" else bool(got[1])) for got in cold}
    assert kinds >= {("report", True), ("report", False), ("derivations", True), ("raises", True)}
