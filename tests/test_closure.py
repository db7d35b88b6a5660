"""The closure theorems of the builders that do not check their output.

alpha_h_twist, yau_twist, compose_twist, derived_algebra,
bracket_from_derivation, bracket_from_two_derivations, tensor_product,
sub_adjacent, induced_products, compatible_pre_lie_from_invertible and
rota_baxter_induced check only their hypotheses: that the output lies in
the target class is a theorem of the paper (for the twists, Yau's twisting
principle).  These seeded cases pin each theorem.  Every call returns or
raises PreconditionError, and every output passes
helpers.closure_check_class, the per-tuple reference checker, for its
builder's target class.  Each builder reaches at least 10 outputs, and each
bracket, star and class-twist builder at least 5 with nonzero new products.
dual_representation and derivation_space are pinned the same way: the dual
passes helpers.closure_check_rep when the hypotheses hold over an algebra
in the class, and each basis member passes
helpers.closure_check_derivation.  So is the Manin-triple fact that
duality.check_manin_triple takes as given: both summands of a coadjoint
double are subalgebras restricting to their own products
(helpers.closure_block_closure_report), on random inputs and with no gate.

The inputs are the bound fixtures, their basis changes and their derived
twists, tensor products of them up to dim 6, derivation_space members and
rational combinations of them, the maps of _maps, the invertible
O-operators of test_operators, and the outputs of some builders as inputs
of others.  Those alone have products of products that vanish wherever a
star is not zero, so two pre-products (PRE_PRODUCTS) and the Rota-Baxter
operators they lift to make the star identities count.
"""

import functools
import random
from fractions import Fraction

import pytest

from homstruct import catalog
from homstruct.axioms import CLASS_OPS
from homstruct.constructions import (
    alpha_h_twist,
    bracket_from_derivation,
    bracket_from_two_derivations,
    compose_twist,
    derived_algebra,
    sub_adjacent,
    tensor_product,
    yau_twist,
)
from homstruct.core import (
    AlgebraPresentation,
    BilinearMap,
    LinearMap,
    PreconditionError,
    RepresentationPresentation,
    basis_vec,
)
from homstruct.duality import coadjoint_matched_pair
from homstruct.matched_pairs import build_double
from homstruct.operators import (
    compatible_pre_lie_from_invertible,
    derivation_space,
    induced_products,
    rota_baxter_induced,
)
from homstruct.representations import (
    CROSS_ACTIONS,
    dual_representation,
    regular_representation,
    semidirect_product,
)

from helpers import (
    BASIS_CHANGES,
    action_of,
    apply_map,
    bilinear_from_table,
    bound_fixtures,
    closure_block_closure_report,
    closure_check_class,
    closure_check_derivation,
    closure_check_morphism,
    closure_check_rep,
    closure_dual_hypotheses,
    column,
    eval_bilinear_scan,
    rand_algebra,
    rand_fraction,
    rand_matrix,
    rand_vec,
    tensor_map,
    transported,
    vec_sub,
)
from test_builders import _untwisted
from test_operators import _invertible_o_operator

F = Fraction
TRANSPOSED = "transposed-hom-poisson"
# the class of induced_products' output for each O-operator class
INDUCED = {"comm-hom-assoc": "comm-hom-assoc", "hom-lie": "hom-pre-lie",
           TRANSPOSED: "hom-pre-lie-poisson"}


def _built(fn, *args):
    """fn(*args), or None when a gate fails; any other error fails the test."""
    try:
        return fn(*args)
    except PreconditionError:
        return None


def _outputs(fn, cases):
    """The outputs of fn over the cases whose gates pass."""
    return [out for out in (_built(fn, *case) for case in cases) if out is not None]


def _passes(outs, cls):
    for out in outs:
        report = closure_check_class(out, cls)
        assert report.passed, report.all_witnesses()[:4]


def _reaches(outs, op):
    """At least 10 outputs, and at least 5 whose op is not zero."""
    nonzero = sum(bool(out.op(op).entries) for out in outs)
    assert len(outs) >= 10 and nonzero >= 5, (len(outs), nonzero)


def _restricted(a, cls):
    """a with exactly the ops of cls; the ones a lacks are zero."""
    return AlgebraPresentation(
        a.dim, {name: a.ops.get(name, BilinearMap(a.dim)) for name in CLASS_OPS[cls]},
        {"alpha": a.alpha}, a.basis)


def _maps(rng, a):
    """Identity, zero, a scalar, the twist, a random map and e_1 (x) e_n^*."""
    n = a.dim
    corner = LinearMap.from_rows([[F(int(r == 0 and c == n - 1)) for c in range(n)]
                                  for r in range(n)])
    return [LinearMap.identity(n), LinearMap.zero(n), LinearMap.diagonal([F(-3, 2)] * n),
            a.alpha, rand_matrix(rng, n), corner]


@functools.cache
def _fixtures():
    """The distinct bound fixtures, their basis changes and their derived
    twists (level 1, and kind 2 at level 2)."""
    out = []
    for _, _, a, cls in bound_fixtures():
        for b in (a, transported(a)):
            for c in (b, _built(derived_algebra, b, 1, cls),
                      _built(derived_algebra, b, 2, cls, 2)):
                if c is not None and c not in out:
                    out.append(c)
    return tuple(out)


@functools.cache
def _algebras(cls):
    """The distinct fixtures restricted to the ops of cls."""
    out = []
    for a in _fixtures():
        a = _restricted(a, cls)
        if a not in out:
            out.append(a)
    return tuple(out)


def _sparse(a):
    return all(len(op.entries) <= a.dim ** 2 for op in a.ops.values())


def _products(rng, factors, cls, count, dim=4):
    """The products in cls of count sampled pairs of factors of product dim
    4 or 6.  One factor of a pair is sparse (at most dim^2 entries per op),
    and at dim 6 both are: the reference check of a dense dim-4 product
    takes up to half a second."""
    pairs = [(a, b, cls) for a in factors for b in factors if a.dim * b.dim == dim
             and ((_sparse(a) and _sparse(b)) if dim == 6 else (_sparse(a) or _sparse(b)))]
    return _outputs(tensor_product, rng.sample(pairs, count))


def _derivations(rng, a):
    """Up to 3 derivation_space members and two rational combinations of
    them (of all, and of the first and the last)."""
    basis = derivation_space(a, "dot")
    if not basis:
        return []
    combos = [sum((d.scale(rand_fraction(rng)) for d in basis[1:]), basis[0].scale(F(1, 3))),
              basis[0].scale(F(-2)) + basis[-1].scale(F(5, 7))]
    return basis[:3] + combos


@functools.cache
def _commutative():
    """(fixtures, products) of (a, derivations): the commutative
    Hom-associative fixtures with a nonzero derivation, and 6 products of
    two dim-2 ones, one of them sparse.  A product's derivations are
    d (x) 1, 1 (x) d' and a rational combination of both, for d and d' the
    last derivations of its factors: they commute and are not proportional.
    Its factors have a nonzero derivation bracket, else the product's would
    vanish."""
    rng = random.Random(170)
    algs = [(a, ds) for a in _algebras("comm-hom-assoc") for ds in [_derivations(rng, a)] if ds]
    two = []
    for a, ds in algs:
        out = _built(bracket_from_derivation, a, ds[-1]) if a.dim == 2 else None
        if out is not None and out.op("bracket").entries:
            two.append((a, ds))
    one = LinearMap.identity(2)
    products = []
    for (a, da), (b, db) in rng.sample([(x, y) for x in two for y in two
                                        if _sparse(x[0]) or _sparse(y[0])], 6):
        d1, d2 = tensor_map(da[-1], one), tensor_map(one, db[-1])
        products.append((tensor_product(a, b, "comm-hom-assoc"),
                         (d1, d2, d1.scale(rand_fraction(rng)) + d2.scale(F(2, 3)))))
    return tuple(algs), tuple(products)


@functools.cache
def _pre_lie_poisson():
    """Hom-pre-Lie Poisson algebras: the fixtures with a star, the
    commutative fixtures with the star x*y = x.D(y) for a derivation D (its
    commutator is bracket_from_derivation's bracket), and induced_products
    outputs of transposed O-operators."""
    out = [a for a in _algebras("hom-pre-lie-poisson") if a.op("star").entries]
    for a, ds in _commutative()[0]:
        e = [basis_vec(a.dim, i) for i in range(a.dim)]
        dot = a.op("dot")
        star = bilinear_from_table(a.dim, lambda i, j: eval_bilinear_scan(
            dot, e[i], apply_map(ds[-1], e[j])))
        out.append(AlgebraPresentation(a.dim, {"dot": dot, "star": star}, {"alpha": a.alpha}))
    rng = random.Random(172)
    invertible, regular = _o_operators(rng, TRANSPOSED)
    return tuple(out + _outputs(induced_products, invertible + rng.sample(regular, 16)))


def test_tensor_product_closure():
    rng = random.Random(1)
    seen = 0
    for cls in ("comm-hom-assoc", TRANSPOSED, "hom-pre-lie-poisson"):
        factors = _pre_lie_poisson() if cls == "hom-pre-lie-poisson" else _algebras(cls)
        outs = _products(rng, factors, cls, 3) + _products(rng, factors, cls, 1, 6)
        assert {out.dim for out in outs} == {4, 6}, cls
        _passes(outs, cls)
        seen += len(outs)
    assert seen >= 10


def test_bracket_from_derivation_closure():
    rng = random.Random(2)
    fixtures, products = _commutative()
    cases = [(a, d) for a, ds in fixtures for d in ds[-2:] + _maps(rng, a)[:4]]
    outs = _outputs(bracket_from_derivation, [(p, ds[-1]) for p, ds in products]
                    + rng.sample(cases, 20))
    _reaches(outs, "bracket")
    _passes(outs, TRANSPOSED)


def test_bracket_from_two_derivations_closure():
    rng = random.Random(3)
    fixtures, products = _commutative()
    cases = [(a, d1, d2) for a, ds in fixtures
             for d1 in ds[-2:] + [rng.choice(_maps(rng, a))] for d2 in ds[-1:]]
    outs = _outputs(bracket_from_two_derivations, [(p, d1, d2) for p, (d1, d2, _) in products]
                    + rng.sample(cases, 10))
    _reaches(outs, "bracket")
    _passes(outs, "hom-poisson")


@functools.cache
def _transposed():
    """Transposed algebras with the identity twist: the fixtures that are
    transposed Poisson, bracket_from_derivation outputs, and the products
    of TP2 with the dim-2 ones."""
    rng = random.Random(171)
    algs = list(_algebras(TRANSPOSED))
    algs += _outputs(bracket_from_derivation, [(a, ds[-1]) for a, ds in _commutative()[0]])
    algs = [a for a in map(_untwisted, algs) if _built(alpha_h_twist, a, basis_vec(a.dim, 0))]
    tp2 = catalog.get("TP2")
    return tuple(algs) + tuple(_outputs(tensor_product, [
        case for a in rng.sample([a for a in algs if a.dim == 2], 4)
        for case in ((tp2, a, TRANSPOSED), (a, tp2, TRANSPOSED))]))


def test_alpha_h_twist_closure():
    rng = random.Random(4)
    cases = [(a, h) for a in _transposed()
             for h in (basis_vec(a.dim, 0), basis_vec(a.dim, a.dim - 1), rand_vec(rng, a.dim))]
    outs = _outputs(alpha_h_twist, rng.sample(cases, 20))
    assert len(outs) == 20 and sum(not out.alpha.is_identity() for out in outs) >= 5
    _passes(outs, TRANSPOSED)


def test_twist_closure():
    # Yau's twisting principle: the class twists of an algebra in the class
    # are in it.  The class of each case is its third argument.
    rng = random.Random(6)
    algs = [(a, cls) for a in _fixtures() for cls in CLASS_OPS
            if set(CLASS_OPS[cls]) <= set(a.ops)]
    cases = [(a, g, cls) for a, cls in algs for g in _maps(rng, a)]
    for fn, fn_cases in (
            (lambda a, g, cls: yau_twist(_untwisted(a), g, cls), cases),
            (compose_twist, cases),
            (derived_algebra, [(a, 1, cls) for a, cls in algs]),
            (derived_algebra, [(a, 2, cls, 2) for a, cls in algs])):
        outs = [(out, case[2]) for case in fn_cases
                for out in [_built(fn, *case)] if out is not None]
        nonzero = sum(all(out.op(op).entries for op in CLASS_OPS[cls]) for out, cls in outs)
        assert len(outs) >= 10 and nonzero >= 5, (len(outs), nonzero)
        for out, cls in outs:
            report = closure_check_class(out, cls)
            assert report.passed, report.all_witnesses()[:4]


# Pre-products whose left multiplications are a module of their
# symmetrization x.y = x>y + y>x (a Zinbiel product: x>(y>z) = (x.y)>z) or
# of their commutator (a pre-Lie product), with the identity as an
# O-operator.  Unlike those of _invertible_o_operator, their products of
# products do not vanish.  op: (dim, entries (i, j, k, c) of e_i > e_j, the
# diagonal of an automorphism)
PRE_PRODUCTS = {"dot": (3, ((0, 0, 1, 1), (0, 1, 2, 2), (1, 0, 2, 1)), (2, 4, 8)),
                "bracket": (2, ((1, 0, 0, 1), (1, 1, 1, -1)), (3, 1))}


@functools.cache
def _pre_operators():
    """(a, rep, identity, cls): for each pre-product p, Yau twisted by 1
    and by its automorphism g (g o p, twist g), the algebra of its
    symmetrization or commutator acting by left multiplication, in its own
    class and, with the other op and action zero, in the transposed class."""
    cases = []
    for op, (n, entries, g) in PRE_PRODUCTS.items():
        act, _, sign = CROSS_ACTIONS[op]
        other = "bracket" if op == "dot" else "dot"
        for twist in (LinearMap.identity(n), LinearMap.diagonal([F(c) for c in g])):
            left = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
            for i, j, k, c in entries:
                left[i][k][j] = twist.m[k][k] * c
            product = BilinearMap(n, tuple(
                (i, j, k, left[i][k][j] + sign * left[j][k][i]) for i in range(n)
                for j in range(n) for k in range(n) if left[i][k][j] + sign * left[j][k][i]))
            for cls in ({"dot": "comm-hom-assoc", "bracket": "hom-lie"}[op], TRANSPOSED):
                ops, actions = {op: product}, {act: tuple(map(LinearMap.from_rows, left))}
                if cls == TRANSPOSED:
                    ops[other] = BilinearMap(n)
                    actions[CROSS_ACTIONS[other][0]] = (LinearMap.zero(n),) * n
                cases.append((AlgebraPresentation(n, ops, {"alpha": twist}),
                              RepresentationPresentation(n, n, actions, twist),
                              LinearMap.identity(n), cls))
    return tuple(cases)


def _o_operators(rng, cls, dims=(2, 2, 3, 3, 3)):
    """(invertible, regular) cases (a, rep, T, cls): the cases of
    _pre_operators and invertible O-operators of test_operators at the dims,
    whose products are not zero, and the regular representations of the
    fixtures with every map of _maps."""
    return ([case for case in _pre_operators() if case[3] == cls]
            + [_invertible_o_operator(rng, n) + (cls,) for n in dims],
            [(a, regular_representation(a, cls), T, cls)
             for a in _algebras(cls) for T in _maps(rng, a)])


def test_induced_products_closure():
    rng = random.Random(5)
    for cls, target in INDUCED.items():
        invertible, regular = _o_operators(rng, cls)
        outs = _outputs(induced_products, invertible + rng.sample(regular, 28))
        _reaches(outs, "dot" if cls == "comm-hom-assoc" else "star")
        _passes(outs, target)


def _compatible(rng):
    # the output is carried back to A along T, so it stays sparse at dim 4
    invertible, regular = _o_operators(rng, TRANSPOSED, (2, 3, 4) * 3)
    return _outputs(compatible_pre_lie_from_invertible,
                    [case[:3] for case in invertible + rng.sample(regular, 12)])


def test_compatible_pre_lie_from_invertible_closure():
    outs = _compatible(random.Random(6))
    _reaches(outs, "star")
    _passes(outs, "hom-pre-lie-poisson")


def test_sub_adjacent_closure():
    rng = random.Random(7)
    factors = _pre_lie_poisson()
    plp = list(factors) + _compatible(rng)
    plp += _products(rng, factors, "hom-pre-lie-poisson", 2)
    plp += _products(rng, factors, "hom-pre-lie-poisson", 1, 6)
    for target, algs in ((TRANSPOSED, plp),
                         ("hom-lie", [_restricted(a, "hom-pre-lie") for a in plp])):
        outs = _outputs(sub_adjacent, [(a,) for a in algs])
        _reaches(outs, "bracket")
        _passes(outs, target)


def _lifted(a, rep, T):
    """(a + V, [[0, T], [0, 0]]): an O-operator T: V -> a lifts to a
    Rota-Baxter operator on the semidirect product."""
    n, p = a.dim, rep.module_dim
    return (semidirect_product(a, rep, TRANSPOSED), LinearMap.from_rows(
        [[T.m[r][c - n] if r < n <= c else F(0) for c in range(n + p)] for r in range(n + p)]))


def test_rota_baxter_induced_closure():
    """The output's sub-adjacent algebra is transposed, and R is a
    morphism from it to a."""
    rng = random.Random(8)
    cases = [(a, R) for a in _transposed() for R in _maps(rng, a)]
    # e_1 (x) e_n^* is a Rota-Baxter operator of the products with TP2
    cases = [case for case in cases if case[0].dim > 3] + rng.sample(cases, 20)
    cases += [_lifted(*case[:3]) for case in _pre_operators() if case[3] == TRANSPOSED]
    outs = []
    for a, R in cases:
        out = _built(rota_baxter_induced, a, R)
        if out is None:
            continue
        outs.append(out)
        e = [basis_vec(a.dim, i) for i in range(a.dim)]
        star = out.op("star")
        bracket = bilinear_from_table(a.dim, lambda i, j: vec_sub(
            eval_bilinear_scan(star, e[i], e[j]), eval_bilinear_scan(star, e[j], e[i])))
        sub = AlgebraPresentation(a.dim, {"dot": out.op("dot"), "bracket": bracket},
                                  {"alpha": out.alpha})
        _passes([sub], TRANSPOSED)
        morph = closure_check_morphism(sub, a, R)
        assert morph.passed, morph.all_witnesses()[:4]
    _reaches(outs, "star")


def test_derivation_space_closure():
    """Every member of every basis is a derivation of its op, commuting
    with the twist when asked, over the fixtures and 4 products; at least
    10 spaces are neither zero nor every map."""
    rng = random.Random(9)
    algs = list(_fixtures()) + _products(rng, _algebras("comm-hom-assoc"), "comm-hom-assoc", 2)
    algs += _products(rng, _algebras(TRANSPOSED), TRANSPOSED, 2)
    proper = 0
    for a in algs:
        for op in a.ops:
            for commuting in ("alpha", None):
                basis = derivation_space(a, op, commuting)
                proper += 0 < len(basis) < a.dim ** 2
                for d in basis:
                    report = closure_check_derivation(a, op, d, commuting is not None)
                    assert report.passed, report.all_witnesses()[:4]
    assert proper >= 10, proper


def _module_changes(a, rep):
    """rep with its module basis changed along Q (each matrix m becomes
    Q m Q^-1), and over transported(a) (s'(x) = s(P^-1 x)), for the
    BASIS_CHANGES P and Q."""
    Q = BASIS_CHANGES[rep.module_dim]
    Qi, Pi = Q.inverse(), BASIS_CHANGES[a.dim].inverse()
    n = a.dim
    return [(a, RepresentationPresentation(
                n, rep.module_dim,
                {name: tuple(Q @ m @ Qi for m in fam) for name, fam in rep.actions.items()},
                Q @ rep.beta @ Qi)),
            (transported(a), RepresentationPresentation(
                n, rep.module_dim,
                {name: tuple(action_of(rep, name, column(Pi, i)) for i in range(n))
                 for name in rep.actions}, rep.beta))]


def _dual_modules():
    """Modules on which every dual hypothesis holds, with their basis
    changes.  Over TP2 and THP2 at lam = 1 the actions are polynomials in
    a Jordan block beta, so s, rho and beta are not symmetric and the dual
    needs each transposed.  Their actions vanish on the derived algebra,
    so the sign of rho does not show; it does in the regular modules of
    two Hom-Lie brackets with a zero dot (there, any Hom-Lie module with
    s = 0 over an involutive twist meets the hypotheses)."""
    def block(c, b):
        return LinearMap.from_rows([[F(c), F(b)], [F(0), F(c)]])

    zero = LinearMap.zero(2)
    tp2, thp2 = catalog.get("TP2"), catalog.get("THP2", {"lam": F(1)})
    cases = [(tp2, RepresentationPresentation(2, 2, {"s": (zero, block(1, 1)),
                                                     "rho": (zero, block(2, -1))}, block(1, 1))),
             (thp2, RepresentationPresentation(2, 2, {"s": (block(-1, 1), zero),
                                                      "rho": (block(2, 1), zero)}, block(1, -1)))]
    for a in (tp2, thp2):
        lie = AlgebraPresentation(2, {"dot": BilinearMap(2), "bracket": a.op("bracket")},
                                  {"alpha": a.alpha})
        cases.append((lie, regular_representation(lie, TRANSPOSED)))
    return [case for a, rep in cases for case in [(a, rep)] + _module_changes(a, rep)]


def _outside_class():
    """A module over an algebra outside the class, with its basis changes.
    e1.e1 = e1 and e1.e2 = e2 is not commutative.  s(e1) = E11 and
    s(e2) = E12 make a homomorphism, rho = 0 and beta = id, so the module
    axioms and every dual hypothesis hold.  The transposed actions are not
    a module: s*(e1.e2) = E21 but s*(e1) s*(e2) = E11 E21 = 0."""
    def unit(i, j):
        return LinearMap.from_rows([[F(int((r, c) == (i, j))) for c in range(2)]
                                    for r in range(2)])

    zero = LinearMap.zero(2)
    a = AlgebraPresentation(2, {"dot": BilinearMap(2, ((0, 0, 0, F(1)), (0, 1, 1, F(1)))),
                                "bracket": BilinearMap(2)}, {"alpha": LinearMap.identity(2)})
    rep = RepresentationPresentation(2, 2, {"s": (unit(0, 0), unit(0, 1)), "rho": (zero, zero)},
                                     LinearMap.identity(2))
    return [(a, rep)] + _module_changes(a, rep)


def _drawn_actions(rng, count):
    """count action sets over the transposed fixtures and their basis
    changes: at module dim 1, or at dim 2 with upper triangular Toeplitz
    matrices (polynomials in one Jordan block, so they commute), each
    action matrix zero with probability 0.4."""
    algs = [a for _, _, a, cls in bound_fixtures() if cls == TRANSPOSED]
    algs += [transported(a) for a in algs]
    value = lambda: F(rng.choice((-1, 0, 1, 2)))
    cases = []
    for _ in range(count):
        a, p = rng.choice(algs), rng.choice((1, 2))

        def draw():
            c, b = value(), value()
            return LinearMap.from_rows([[c]] if p == 1 else [[c, b], [F(0), c]])

        actions = {name: tuple(draw() if rng.random() < 0.6 else LinearMap.zero(p)
                               for _ in range(a.dim)) for name in ("s", "rho")}
        cases.append((a, RepresentationPresentation(a.dim, p, actions, draw())))
    return cases


def test_dual_representation_closure():
    """When the hypotheses hold, a module's dual over an algebra in the
    class is a module, and a non-module or an algebra outside the class
    raises PreconditionError; the hypotheses report is the reference one.
    The hand-built modules have nonzero duals."""
    for a, rep in _outside_class():
        assert closure_check_rep(a, rep, TRANSPOSED).passed
        assert closure_dual_hypotheses(a, rep).passed
        assert not closure_check_class(a, TRANSPOSED).passed
        transposed = RepresentationPresentation(
            2, 2, {"s": tuple(m.transpose() for m in rep.action("s")), "rho": rep.action("rho")},
            rep.beta.transpose())
        assert not closure_check_rep(a, transposed, TRANSPOSED).passed
        with pytest.raises(PreconditionError, match="not in class"):
            dual_representation(a, rep, 4)
    hand = _dual_modules()
    duals = rejected = 0
    for k, (a, rep) in enumerate(hand + _drawn_actions(random.Random(10), 400)):
        hyp = closure_dual_hypotheses(a, rep, 4)
        try:
            dual, got = dual_representation(a, rep, 4)
        except PreconditionError:
            assert k >= len(hand) and hyp.passed
            assert not closure_check_rep(a, rep, TRANSPOSED).passed
            rejected += 1
            continue
        assert (got.passed, got.failures) == (hyp.passed, hyp.failures)
        if k < len(hand):
            assert got.passed and any(any(map(any, m.m)) for fam in dual.actions.values()
                                      for m in fam)
        if got.passed:
            for module in (rep, dual):
                report = closure_check_rep(a, module, TRANSPOSED)
                assert report.passed, report.all_witnesses()[:4]
            duals += 1
    assert duals >= 20 and rejected >= 10, (duals, rejected)


def test_coadjoint_double_blocks_are_the_summands():
    # build_double writes each summand's products into its own block and
    # every action entry into a cross block, so no gate is needed
    rng = random.Random(23)
    for n in (1, 2, 3):
        for _ in range(30):
            a, b = (rand_algebra(rng, n, ("dot", "bracket")) for _ in range(2))
            double = build_double(coadjoint_matched_pair(a, b), TRANSPOSED, check_actions=False)
            report = closure_block_closure_report(double, a, b)
            assert report.passed and report.checked == 4 * n * n, report.all_witnesses()[:4]
