"""Differential tests: every builder written as contraction terms (and
build_double as a block scatter) against the Fraction closure it replaced
(tests/helpers.py).  Outputs must be equal, ops and twist by ==, and
serialize to the same bytes; a gate failure must raise the same error."""

import random
from fractions import Fraction

from homstruct import constructions
from homstruct.axioms import CLASS_OPS
from homstruct.constructions import (
    _compose_ops,
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
    ConstructionError,
    LinearMap,
    PreconditionError,
    RepresentationPresentation,
    basis_vec,
    serialize_algebra,
    serialize_representation,
)
from homstruct.duality import coadjoint_matched_pair, trivial_dual
from homstruct.matched_pairs import (
    MatchedPairData,
    build_double,
    matched_pair_from_representation,
    zero_representation,
)
from homstruct.operators import (
    compatible_pre_lie_from_invertible,
    derivation_space,
    induced_products,
    rota_baxter_induced,
)
from homstruct.representations import (
    REP_OPS,
    bimodule_from_morphism,
    regular_representation,
)

from helpers import (
    bound_fixtures,
    closure_alpha_h_twist,
    closure_bimodule_from_morphism,
    closure_bracket_from_derivation,
    closure_bracket_from_two_derivations,
    closure_build_double,
    closure_compatible_pre_lie_from_invertible,
    closure_compose_ops,
    closure_double_coadjoint_actions,
    closure_induced_products,
    closure_regular_representation,
    closure_rota_baxter_induced,
    closure_sub_adjacent,
    closure_tensor_product,
    perturbed_fixtures,
    rand_algebra,
    rand_fraction,
    rand_matrix,
    rand_rep,
    rand_vec,
    transported,
    vec_scale,
)

F = Fraction
# the outcomes each differential case set must reach: a returned output
# and a failed gate.  The builders that do not check their output again
# (alpha_h_twist, the two derivation brackets, sub_adjacent, tensor_product,
# induced_products, compatible_pre_lie_from_invertible, rota_baxter_induced)
# reach exactly these two: a ConstructionError from their reference builder
# would mean an output outside the class.
BOTH = {"output", "PreconditionError"}


def _algebras():
    """Bound fixtures and their basis changes, 20 perturbations and dense
    random algebras at dims 1-3 with non-integer ops and alpha (one per class
    op set)."""
    out = [a for _, _, a, _ in bound_fixtures()]
    out += [transported(a) for a in out]
    out += [a for _, a, _ in perturbed_fixtures(20, seed=20261019)]
    rng = random.Random(16)
    out += [rand_algebra(rng, n, names) for n in (1, 2, 3)
            for names in sorted(set(CLASS_OPS.values()))]
    return out


def _untwisted(a):
    return AlgebraPresentation(a.dim, a.ops, dict(a.maps, alpha=LinearMap.identity(a.dim)),
                               a.basis)


def _with(names):
    return [a for a in _algebras() if set(names) <= set(a.ops)]


def _classes(a, table):
    return [cls for cls in table if set(CLASS_OPS[cls]) <= set(a.ops)]


def _outcome(fn, *args):
    try:
        return "output", fn(*args)
    except (PreconditionError, ConstructionError) as exc:
        return type(exc).__name__, (type(exc), str(exc))


def _same(new, old):
    """The outcome kind of both calls, after requiring them equal."""
    (kind, out), (old_kind, old_out) = new, old
    assert kind == old_kind, (kind, old_kind)
    assert out == old_out
    if isinstance(out, AlgebraPresentation):
        assert out.ops == old_out.ops and out.alpha == old_out.alpha
        assert serialize_algebra(out) == serialize_algebra(old_out)
    if isinstance(out, RepresentationPresentation):
        assert out.actions == old_out.actions and out.beta == old_out.beta
        assert serialize_representation(out) == serialize_representation(old_out)
    return kind


def _compare(new, old, cases):
    """The outcome kinds of new(*case) against old(*case) over the cases."""
    return {_same(_outcome(new, *case), _outcome(old, *case)) for case in cases}


def _maps(rng, a):
    """Identity, zero, the twist, a random map and e_1 (x) e_n^*, which is a
    Rota-Baxter operator of TP2."""
    corner = LinearMap.from_rows([[F(int(r == 0 and c == a.dim - 1)) for c in range(a.dim)]
                                  for r in range(a.dim)])
    return [LinearMap.identity(a.dim), LinearMap.zero(a.dim), a.alpha, rand_matrix(rng, a.dim),
            corner]


def test_compose_ops_and_twists_match_closure(monkeypatch):
    rng = random.Random(1)
    cases = [(a, g) for a in _algebras() for g in _maps(rng, a)]
    for a, g in cases:
        assert _compose_ops(a, g, sorted(a.ops)) == closure_compose_ops(a, g, sorted(a.ops))
    builders = (
        lambda a, g, cls: yau_twist(_untwisted(a), g, cls),
        compose_twist,
        lambda a, g, cls: derived_algebra(a, 1, cls),
        lambda a, g, cls: derived_algebra(a, 2, cls, kind=2),
    )
    cases = [(a, g, cls) for a, g in cases[::2] for cls in _classes(a, CLASS_OPS)]
    new = [[_outcome(fn, *case) for case in cases] for fn in builders]
    monkeypatch.setattr(constructions, "_compose_ops", closure_compose_ops)
    old = [[_outcome(fn, *case) for case in cases] for fn in builders]
    for outs, olds in zip(new, old):
        assert BOTH <= {_same(n, o) for n, o in zip(outs, olds)}
    # the twists gate on the input's class, so an input outside it is a
    # failed precondition, whatever its twist
    for outs in new:
        assert {kind for kind, _ in outs} == BOTH
        assert ("PreconditionError", (PreconditionError, "input is not in class hom-poisson")) in outs


def test_constructions_match_closures():
    rng = random.Random(2)
    transposed = _with(("dot", "bracket"))
    cases = [(b, h) for a in transposed for b in (a, _untwisted(a))
             for h in [basis_vec(b.dim, i) for i in range(b.dim)] + [rand_vec(rng, b.dim)]]
    assert _compare(alpha_h_twist, closure_alpha_h_twist, cases) == BOTH

    cases, pairs = [], []
    for a in _with(("dot",)):
        ds = derivation_space(a, "dot")[:2] + [rand_matrix(rng, a.dim)]
        cases += [(a, d) for d in ds]
        pairs += [(a, d1, d2) for d1 in ds for d2 in ds]
    assert _compare(bracket_from_derivation, closure_bracket_from_derivation, cases) == BOTH
    assert _compare(bracket_from_two_derivations, closure_bracket_from_two_derivations,
                    pairs) == BOTH

    assert _compare(sub_adjacent, closure_sub_adjacent, [(a,) for a in _with(("star",))]) == BOTH

    small = [a for a in _algebras() if a.dim <= 2]
    cases = [(a1, a2, cls) for cls in ("comm-hom-assoc", "transposed-hom-poisson",
                                       "hom-pre-lie-poisson", "hom-lie")
             for a1 in small[::3] for a2 in small[1::3]
             if cls in _classes(a1, CLASS_OPS) and cls in _classes(a2, CLASS_OPS)]
    assert _compare(tensor_product, closure_tensor_product, cases) == BOTH


def test_representations_match_closures():
    rng = random.Random(3)
    cases = [(a, cls) for a in _algebras() for cls in _classes(a, REP_OPS)]
    assert _compare(regular_representation, closure_regular_representation, cases) == {"output"}
    cases = [(a, a, f, cls) for a, cls in cases
             for f in (LinearMap.identity(a.dim), LinearMap.zero(a.dim),
                       rand_matrix(rng, a.dim))]
    cases += [(a, b, rand_matrix(rng, b.dim, a.dim), "comm-hom-assoc")
              for a, b in zip(_with(("dot",)), _with(("dot",))[1:])]
    assert _compare(bimodule_from_morphism, closure_bimodule_from_morphism, cases) >= BOTH

    # the coadjoint pair: each side acts by s = +S(x)^T and rho = +ad(x)^T
    # with the other side's twist; b is a zero dual with a random twist, or a
    rng = random.Random(4)
    cases = [(a, b) for a in _with(("dot", "bracket"))
             for b in (AlgebraPresentation(a.dim, trivial_dual(a).ops,
                                           {"alpha": rand_matrix(rng, a.dim)}), a)]
    assert _compare(lambda a, b: coadjoint_matched_pair(a, b).actions_ab,
                    lambda a, b: closure_double_coadjoint_actions(a, b.alpha),
                    cases) == {"output"}
    assert _compare(lambda a, b: coadjoint_matched_pair(a, b).actions_ba,
                    lambda a, b: closure_double_coadjoint_actions(b, a.alpha),
                    cases) == {"output"}


def test_build_double_matches_closure():
    rng = random.Random(5)
    mps = []
    for a in _algebras():
        for cls in _classes(a, REP_OPS):
            mps.append((matched_pair_from_representation(
                a, regular_representation(a, cls), cls), cls))
            p = rng.randint(1, 3)
            mps.append((matched_pair_from_representation(
                a, rand_rep(rng, a.dim, p, REP_OPS[cls]), cls), cls))
        if {"dot", "bracket"} <= set(a.ops):
            mps.append((coadjoint_matched_pair(a, trivial_dual(a)), "transposed-hom-poisson"))
    # two random algebras with random mutual actions
    for n, p in ((1, 2), (2, 2), (3, 1)):
        for cls, reps in REP_OPS.items():
            a, b = (rand_algebra(rng, m, CLASS_OPS[cls]) for m in (n, p))
            mps.append((MatchedPairData(a, b, rand_rep(rng, n, p, reps),
                                        rand_rep(rng, p, n, reps)), cls))
    cases = [(mp, cls, check) for mp, cls in mps for check in (True, False)]
    assert _compare(build_double, closure_build_double, cases) >= BOTH


def _zero_ops(n):
    return AlgebraPresentation(n, {"dot": BilinearMap(n), "bracket": BilinearMap(n)},
                               {"alpha": LinearMap.zero(n)})


def _o_operator(rng, n):
    """(zero-product algebra, rep, T) with T invertible and not symmetric,
    alpha = beta = 0 and actions with s(T(u))v skew and rho(T(u))v symmetric
    in u, v: every module axiom and both O-operator equations hold, while
    the induced star and the compatible star are not zero."""
    T = LinearMap.from_rows([[F(1) if r == c else (rand_fraction(rng) if c > r else F(0))
                              for c in range(n)] for r in range(n)])
    Ti = T.inverse()
    vecs = {(u, v): rand_vec(rng, n) for u in range(n) for v in range(u, n)}
    sym = lambda u, v: vecs[min(u, v), max(u, v)]
    skew = lambda u, v: vec_scale(-1 if u > v else int(u < v), sym(u, v))
    # act(e_i) = sum_u T^-1[u][i] f(u, -), so that act(T(e_u)) = f(u, -)
    actions = {name: tuple(LinearMap.from_columns([
                   tuple(sum((Ti.m[u][i] * f(u, v)[k] for u in range(n)), F(0))
                         for k in range(n)) for v in range(n)]) for i in range(n))
               for name, f in (("s", skew), ("rho", sym))}
    return _zero_ops(n), RepresentationPresentation(n, n, actions, LinearMap.zero(n)), T


def test_operators_match_closures():
    rng = random.Random(6)
    o_classes = ("comm-hom-assoc", "hom-lie", "transposed-hom-poisson")
    cases = []
    for a in _algebras():
        for cls in _classes(a, o_classes):
            rep = regular_representation(a, cls)
            cases += [(a, rep, T, cls) for T in _maps(rng, a)]
    # with zero ops, alpha = 0 and beta = 0 every module axiom holds, so the
    # gate sees random actions and random T
    for n, p in ((1, 2), (2, 2), (2, 3), (3, 1)):
        rep = rand_rep(rng, n, p, ("s", "rho"))
        rep = RepresentationPresentation(n, p, dict(rep.actions), LinearMap.zero(p))
        zero = zero_representation(n, p, rand_matrix(rng, p), ("s", "rho"))
        cases += [(_zero_ops(n), r, T, cls) for r in (rep, zero)
                  for T in (rand_matrix(rng, n, p), LinearMap.zero(n, p)) for cls in o_classes]
    cases += [_o_operator(rng, n) + (cls,) for n in (1, 2, 3) for cls in o_classes]
    assert _compare(induced_products, closure_induced_products, cases) == BOTH

    cases = [(a, rep, T) for a, rep, T, cls in cases
             if cls == "transposed-hom-poisson" and T.rows == T.cols]
    plp = [a for a in _with(("dot", "star")) if a.dim <= 2]
    for a in [sub_adjacent(a) for a in plp[:4]] + [_zero_ops(2)]:
        rep = regular_representation(a, "transposed-hom-poisson")
        cases += [(a, rep, T) for T in (LinearMap.identity(a.dim),
                                        LinearMap.diagonal([F(2)] + [F(-3)] * (a.dim - 1)),
                                        rand_matrix(rng, a.dim))]
    assert _compare(compatible_pre_lie_from_invertible,
                    closure_compatible_pre_lie_from_invertible, cases) == BOTH

    cases = [(a, R) for a in _with(("dot", "bracket")) + [_zero_ops(2)] for R in _maps(rng, a)]
    assert _compare(rota_baxter_induced, closure_rota_baxter_induced, cases) == BOTH
