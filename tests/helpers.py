"""Shared test fixtures and independent oracles."""

import random
from fractions import Fraction

from homstruct import catalog
from homstruct.axioms import _Tables, resolve_class
from homstruct.duality import tensor_map
from homstruct.representations import _action_matrices
from homstruct.core import (
    AlgebraPresentation,
    BilinearMap,
    DimensionError,
    LinearMap,
    PreconditionError,
    RepresentationPresentation,
    apply_map,
    basis_vec,
    eval_bilinear,
    run_identity_families,
    vec_add,
    vec_scale,
    vec_sub,
)

F = Fraction


def rand_fraction(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 4))


def rand_vec(rng, n):
    return tuple(rand_fraction(rng) for _ in range(n))


def bound_fixtures():
    """(name, binding_label, algebra, target_class) for the standard bindings."""
    out = []
    for name in ("CA2a", "CA2b", "CA3a", "TP2"):
        out.append((name, "", catalog.get(name), catalog.target_class(name)))
    for p in ((1, 2, 3), (0, 0, 0)):
        b = {"p1": F(p[0]), "p2": F(p[1]), "p3": F(p[2])}
        out.append(("CA3b", "p=%s" % (p,), catalog.get("CA3b", b),
                    catalog.target_class("CA3b")))
    for lam in (F(0), F(1), F(5, 2)):
        out.append(("THP2", "lam=%s" % lam, catalog.get("THP2", {"lam": lam}),
                    catalog.target_class("THP2")))
    for a in (F(0), F(1), F(-2)):
        out.append(("PLP2", "a=%s" % a, catalog.get("PLP2", {"a": a}),
                    catalog.target_class("PLP2")))
    # an HP3 binding satisfying the constraints listed in its description
    hp3 = {"a": F(1), "b": F(0), "c": F(0), "d": F(0),
           "l1": F(0), "l2": F(1), "l3": F(0), "l4": F(2),
           "l5": F(0), "l6": F(3)}
    out.append(("HP3", "constrained", catalog.get("HP3", hp3),
                catalog.target_class("HP3")))
    return out


def perturbed_fixtures(count=100, seed=20260823):
    """Deterministic sparse perturbations of the bound fixtures.

    Each perturbation changes one structure constant of one op by a nonzero
    rational delta.
    """
    rng = random.Random(seed)
    base = bound_fixtures()
    out = []
    for idx in range(count):
        name, label, a, cls = base[rng.randrange(len(base))]
        op_name = rng.choice(sorted(a.ops))
        n = a.dim
        i, j, k = (rng.randrange(n) for _ in range(3))
        delta = F(0)
        while delta == 0:
            delta = rand_fraction(rng)
        table = {(ei, ej, ek): c for (ei, ej, ek, c) in a.op(op_name).entries}
        table[(i, j, k)] = table.get((i, j, k), F(0)) + delta
        ops = dict(a.ops)
        ops[op_name] = BilinearMap(n, tuple(
            (ei, ej, ek, c) for (ei, ej, ek), c in sorted(table.items())))
        out.append(("%s[%s]#%d" % (name, label, idx),
                    AlgebraPresentation(n, ops, dict(a.maps), a.basis), cls))
    return out


# ---------------------------------------------------------------------------
# naive oracle: evaluate the class identities at random vector tuples

def _residuals(a, class_name, x, y, z):
    al = lambda v: apply_map(a.alpha, v)
    res = []
    if class_name in ("comm-hom-assoc", "hom-poisson", "transposed-hom-poisson",
                      "hom-pre-lie-poisson"):
        d = lambda u, v: eval_bilinear(a.op("dot"), u, v)
        res.append(vec_sub(d(x, y), d(y, x)))
        res.append(vec_sub(d(d(x, y), al(z)), d(al(x), d(y, z))))
    if class_name in ("hom-lie", "hom-poisson", "transposed-hom-poisson"):
        b = lambda u, v: eval_bilinear(a.op("bracket"), u, v)
        res.append(vec_add(b(x, y), b(y, x)))
        res.append(vec_add(vec_add(b(al(x), b(y, z)), b(al(y), b(z, x))),
                           b(al(z), b(x, y))))
    if class_name == "hom-poisson":
        d = lambda u, v: eval_bilinear(a.op("dot"), u, v)
        b = lambda u, v: eval_bilinear(a.op("bracket"), u, v)
        res.append(vec_sub(b(al(x), d(y, z)),
                           vec_add(d(al(y), b(x, z)), d(al(z), b(x, y)))))
    if class_name == "transposed-hom-poisson":
        d = lambda u, v: eval_bilinear(a.op("dot"), u, v)
        b = lambda u, v: eval_bilinear(a.op("bracket"), u, v)
        res.append(vec_sub(vec_scale(2, d(al(z), b(x, y))),
                           vec_add(b(d(z, x), al(y)), b(al(x), d(z, y)))))
    if class_name in ("hom-pre-lie", "hom-pre-lie-poisson"):
        s = lambda u, v: eval_bilinear(a.op("star"), u, v)
        aso = lambda u, v, w: vec_sub(s(s(u, v), al(w)), s(al(u), s(v, w)))
        res.append(vec_sub(aso(x, y, z), aso(y, x, z)))
    if class_name == "hom-pre-lie-poisson":
        d = lambda u, v: eval_bilinear(a.op("dot"), u, v)
        s = lambda u, v: eval_bilinear(a.op("star"), u, v)
        res.append(vec_sub(s(d(x, y), al(z)), d(al(x), s(y, z))))
        res.append(vec_sub(vec_sub(d(s(x, y), al(z)), d(s(y, x), al(z))),
                           vec_sub(s(al(x), d(y, z)), s(al(y), d(x, z)))))
    return res


def naive_class_verdict(a, class_name, trials=20, seed=7):
    """Evaluate the class identities at seeded random rational vector tuples."""
    rng = random.Random((seed, a.dim, class_name).__repr__())
    for _ in range(trials):
        x, y, z = (rand_vec(rng, a.dim) for _ in range(3))
        for r in _residuals(a, class_name, x, y, z):
            if any(c != 0 for c in r):
                return False
    return True


def rand_algebra(rng, n, op_names):
    """Random bound algebra with the named ops, every constant drawn."""
    ops = {name: BilinearMap(n, tuple(
               (i, j, k, rand_fraction(rng))
               for i in range(n) for j in range(n) for k in range(n)))
           for name in op_names}
    alpha = LinearMap.from_rows([rand_vec(rng, n) for _ in range(n)])
    return AlgebraPresentation(n, ops, {"alpha": alpha})


def rand_rep(rng, algebra_dim, module_dim, names):
    """Random rep with the named actions: every entry of each action matrix
    and of beta drawn, about a third of them zero."""
    return RepresentationPresentation(
        algebra_dim, module_dim,
        {name: tuple(rand_matrix(rng, module_dim) for _ in range(algebra_dim))
         for name in names}, rand_matrix(rng, module_dim))


# ---------------------------------------------------------------------------
# reference class checkers: each identity as a per-tuple closure over
# Fraction vectors, the evaluation the integer kernel of homstruct.axioms
# replaced.  The differential tests require identical reports from both.

def _closure_ctx(a, *op_names):
    a.require_bound()
    n = a.dim
    alpha = a.alpha
    e = [basis_vec(n, i) for i in range(n)]
    av = [alpha.column(i) for i in range(n)]
    ops = [a.op(name) for name in op_names]
    return e, av, ops


def _closure_comm_hom_assoc(a, max_witnesses):
    e, av, (dot,) = _closure_ctx(a, "dot")
    fams = [
        ("commutative", 2,
         lambda i, j: vec_sub(eval_bilinear(dot, e[i], e[j]),
                              eval_bilinear(dot, e[j], e[i]))),
        ("hom-associative", 3,
         lambda i, j, k: vec_sub(
             eval_bilinear(dot, eval_bilinear(dot, e[i], e[j]), av[k]),
             eval_bilinear(dot, av[i], eval_bilinear(dot, e[j], e[k])))),
    ]
    return run_identity_families(a.dim, fams, max_witnesses)


def _closure_hom_lie(a, max_witnesses):
    e, av, (br,) = _closure_ctx(a, "bracket")
    fams = [
        ("skew-symmetry", 2,
         lambda i, j: vec_add(eval_bilinear(br, e[i], e[j]),
                              eval_bilinear(br, e[j], e[i]))),
        ("hom-jacobi", 3,
         lambda i, j, k: vec_add(
             eval_bilinear(br, av[i], eval_bilinear(br, e[j], e[k])),
             vec_add(
                 eval_bilinear(br, av[j], eval_bilinear(br, e[k], e[i])),
                 eval_bilinear(br, av[k], eval_bilinear(br, e[i], e[j]))))),
    ]
    return run_identity_families(a.dim, fams, max_witnesses)


def _closure_hom_poisson(a, max_witnesses):
    e, av, (dot, br) = _closure_ctx(a, "dot", "bracket")
    fams = [
        ("poisson-leibniz", 3,
         lambda i, j, k: vec_sub(
             eval_bilinear(br, av[i], eval_bilinear(dot, e[j], e[k])),
             vec_add(
                 eval_bilinear(dot, av[j], eval_bilinear(br, e[i], e[k])),
                 eval_bilinear(dot, av[k], eval_bilinear(br, e[i], e[j]))))),
    ]
    return run_identity_families(
        a.dim, fams, max_witnesses,
        sub_reports={"comm-hom-assoc": _closure_comm_hom_assoc(a, max_witnesses),
                     "hom-lie": _closure_hom_lie(a, max_witnesses)})


def _closure_transposed_hom_poisson(a, max_witnesses):
    e, av, (dot, br) = _closure_ctx(a, "dot", "bracket")
    fams = [
        ("transposed-leibniz", 3,
         lambda i, j, k: vec_sub(
             vec_scale(2, eval_bilinear(dot, av[k], eval_bilinear(br, e[i], e[j]))),
             vec_add(
                 eval_bilinear(br, eval_bilinear(dot, e[k], e[i]), av[j]),
                 eval_bilinear(br, av[i], eval_bilinear(dot, e[k], e[j]))))),
    ]
    return run_identity_families(
        a.dim, fams, max_witnesses,
        sub_reports={"comm-hom-assoc": _closure_comm_hom_assoc(a, max_witnesses),
                     "hom-lie": _closure_hom_lie(a, max_witnesses)})


def _closure_hom_pre_lie(a, max_witnesses):
    e, av, (st,) = _closure_ctx(a, "star")

    def assoc(i, j, k):
        return vec_sub(
            eval_bilinear(st, eval_bilinear(st, e[i], e[j]), av[k]),
            eval_bilinear(st, av[i], eval_bilinear(st, e[j], e[k])))

    fams = [("hom-pre-lie", 3, lambda i, j, k: vec_sub(assoc(i, j, k), assoc(j, i, k)))]
    return run_identity_families(a.dim, fams, max_witnesses)


def _closure_hom_pre_lie_poisson(a, max_witnesses):
    e, av, (dot, st) = _closure_ctx(a, "dot", "star")
    fams = [
        ("pre-poisson-1", 3,
         lambda i, j, k: vec_sub(
             eval_bilinear(st, eval_bilinear(dot, e[i], e[j]), av[k]),
             eval_bilinear(dot, av[i], eval_bilinear(st, e[j], e[k])))),
        ("pre-poisson-2", 3,
         lambda i, j, k: vec_sub(
             vec_sub(eval_bilinear(dot, eval_bilinear(st, e[i], e[j]), av[k]),
                     eval_bilinear(dot, eval_bilinear(st, e[j], e[i]), av[k])),
             vec_sub(eval_bilinear(st, av[i], eval_bilinear(dot, e[j], e[k])),
                     eval_bilinear(st, av[j], eval_bilinear(dot, e[i], e[k]))))),
    ]
    return run_identity_families(
        a.dim, fams, max_witnesses,
        sub_reports={"comm-hom-assoc": _closure_comm_hom_assoc(a, max_witnesses),
                     "hom-pre-lie": _closure_hom_pre_lie(a, max_witnesses)})


_CLOSURE_CHECKERS = {
    "comm-hom-assoc": _closure_comm_hom_assoc,
    "hom-lie": _closure_hom_lie,
    "hom-poisson": _closure_hom_poisson,
    "transposed-hom-poisson": _closure_transposed_hom_poisson,
    "hom-pre-lie": _closure_hom_pre_lie,
    "hom-pre-lie-poisson": _closure_hom_pre_lie_poisson,
}


def closure_check_class(a, cls, max_witnesses=32):
    return _CLOSURE_CHECKERS[resolve_class(cls)](a, max_witnesses)


def closure_cyclic_sum(a, max_witnesses=32):
    """The cyclic-sum family of check_transposed_consequences, as a closure."""
    e, av, (dot, br) = _closure_ctx(a, "dot", "bracket")
    fams = [
        ("cyclic-sum", 3,
         lambda i, j, k: vec_add(
             eval_bilinear(dot, av[i], eval_bilinear(br, e[j], e[k])),
             vec_add(
                 eval_bilinear(dot, av[j], eval_bilinear(br, e[k], e[i])),
                 eval_bilinear(dot, av[k], eval_bilinear(br, e[i], e[j]))))),
    ]
    return run_identity_families(a.dim, fams, max_witnesses)


def closure_annihilation(a, max_witnesses=32):
    """The annihilation sub-report of check_poisson_intersection, as closures."""
    e, av, (dot, br) = _closure_ctx(a, "dot", "bracket")
    fams = [
        ("dot-bracket-vanishes", 3,
         lambda i, j, k: eval_bilinear(dot, av[i], eval_bilinear(br, e[j], e[k]))),
        ("bracket-dot-vanishes", 3,
         lambda i, j, k: eval_bilinear(br, eval_bilinear(dot, e[i], e[j]), av[k])),
    ]
    return run_identity_families(a.dim, fams, max_witnesses)


# ---------------------------------------------------------------------------
# reference module checkers: each module axiom as a per-tuple closure over
# Fraction LinearMap products, the evaluation the integer tables of
# homstruct.representations replaced.  The differential tests require
# identical reports from both.

def _mat_families(n, families, max_witnesses=32, sub_reports=None, notes=()):
    """Like run_identity_families but for matrix-valued residual functions."""
    wrapped = [(ident, arity, lambda *t, fn=fn: fn(*t).flat())
               for (ident, arity, fn) in families]
    return run_identity_families(n, wrapped, max_witnesses, sub_reports, notes)


def _ctx(a, rep, *op_names):
    a.require_bound()
    rep.require_bound()
    if rep.algebra_dim != a.dim:
        raise PreconditionError("representation algebra_dim does not match the algebra")
    n = a.dim
    e = [basis_vec(n, i) for i in range(n)]
    av = [a.alpha.column(i) for i in range(n)]
    ops = [a.op(name) for name in op_names]
    return n, e, av, ops


def check_rep_comm_assoc(a, rep, max_witnesses=32):
    """Module axioms over a commutative Hom-associative algebra.

    assoc-action: s(x.y) beta = s(a(x)) s(y)
    twist-intertwine: beta s(x) = s(a(x)) beta
    """
    n, e, av, (dot,) = _ctx(a, rep, "dot")
    s = rep.of
    beta = rep.beta
    fams = [
        ("assoc-action", 2,
         lambda i, j: s("s", eval_bilinear(dot, e[i], e[j])) @ beta
                      - s("s", av[i]) @ s("s", e[j])),
        ("twist-intertwine:s", 1,
         lambda i: beta @ s("s", e[i]) - s("s", av[i]) @ beta),
    ]
    return _mat_families(n, fams, max_witnesses)


def check_rep_hom_lie(a, rep, max_witnesses=32):
    """Module axioms over a Hom-Lie algebra.

    bracket-action: rho([x,y]) beta = rho(a(x)) rho(y) - rho(a(y)) rho(x)
    twist-intertwine: beta rho(x) = rho(a(x)) beta
    """
    n, e, av, (br,) = _ctx(a, rep, "bracket")
    rho = rep.of
    beta = rep.beta
    fams = [
        ("bracket-action", 2,
         lambda i, j: rho("rho", eval_bilinear(br, e[i], e[j])) @ beta
                      - (rho("rho", av[i]) @ rho("rho", e[j])
                         - rho("rho", av[j]) @ rho("rho", e[i]))),
        ("twist-intertwine:rho", 1,
         lambda i: beta @ rho("rho", e[i]) - rho("rho", av[i]) @ beta),
    ]
    return _mat_families(n, fams, max_witnesses)


def check_rep_transposed(a, rep, max_witnesses=32):
    """Module axioms over a transposed Hom-Poisson algebra.

    On top of the commutative and Hom-Lie module axioms:
    mixed-1: 2 s({x,y}) beta = rho(a(x)) s(y) - rho(a(y)) s(x)
    mixed-2: 2 s(a(x)) rho(y) = rho(x.y) beta + rho(a(y)) s(x)
    """
    n, e, av, (dot, br) = _ctx(a, rep, "dot", "bracket")
    of = rep.of
    beta = rep.beta
    fams = [
        ("mixed-1", 2,
         lambda i, j: of("s", eval_bilinear(br, e[i], e[j])).scale(2) @ beta
                      - (of("rho", av[i]) @ of("s", e[j])
                         - of("rho", av[j]) @ of("s", e[i]))),
        ("mixed-2", 2,
         lambda i, j: (of("s", av[i]) @ of("rho", e[j])).scale(2)
                      - (of("rho", eval_bilinear(dot, e[i], e[j])) @ beta
                         + of("rho", av[j]) @ of("s", e[i]))),
    ]
    return _mat_families(
        n, fams, max_witnesses,
        sub_reports={"comm-assoc-module": check_rep_comm_assoc(a, rep, max_witnesses),
                     "hom-lie-module": check_rep_hom_lie(a, rep, max_witnesses)})


def check_rep_pre_lie(a, rep, max_witnesses=32):
    """Bimodule axioms over a Hom-pre-Lie algebra, with rho = l - r.

    sub-bracket-action: l({x,y}) beta = l(a(x)) l(y) - l(a(y)) l(x)
    right-action: r(a(y)) rho(x) = l(a(x)) r(y) - r(x*y) beta
    twist-intertwine for l and r.
    """
    n, e, av, (st,) = _ctx(a, rep, "star")
    of = rep.of
    beta = rep.beta

    def br(i, j):
        return vec_sub(eval_bilinear(st, e[i], e[j]), eval_bilinear(st, e[j], e[i]))

    def rho(x):
        return of("l", x) - of("r", x)

    fams = [
        ("sub-bracket-action", 2,
         lambda i, j: of("l", br(i, j)) @ beta
                      - (of("l", av[i]) @ of("l", e[j])
                         - of("l", av[j]) @ of("l", e[i]))),
        ("right-action", 2,
         lambda i, j: of("r", av[j]) @ rho(e[i])
                      - (of("l", av[i]) @ of("r", e[j])
                         - of("r", eval_bilinear(st, e[i], e[j])) @ beta)),
        ("twist-intertwine:l", 1,
         lambda i: beta @ of("l", e[i]) - of("l", av[i]) @ beta),
        ("twist-intertwine:r", 1,
         lambda i: beta @ of("r", e[i]) - of("r", av[i]) @ beta),
    ]
    return _mat_families(n, fams, max_witnesses)


def check_rep_pre_lie_poisson(a, rep, max_witnesses=32):
    """Bimodule axioms over a Hom-pre-Lie Poisson algebra.

    On top of the commutative module and pre-Lie bimodule axioms:
    compat-1: l(x.y) beta = s(a(x)) l(y)
    compat-2: r(a(y)) s(x) = s(x*y) beta
    compat-3: r(a(y)) s(x) = s(a(x)) r(y)
    compat-4: s({x,y}) beta = l(a(x)) s(y) - l(a(y)) s(x)
    compat-5: s(a(y)) rho(x) = l(a(x)) s(y) - r(x.y) beta
    """
    n, e, av, (dot, st) = _ctx(a, rep, "dot", "star")
    of = rep.of
    beta = rep.beta

    def br(i, j):
        return vec_sub(eval_bilinear(st, e[i], e[j]), eval_bilinear(st, e[j], e[i]))

    def rho(x):
        return of("l", x) - of("r", x)

    fams = [
        ("compat-1", 2,
         lambda i, j: of("l", eval_bilinear(dot, e[i], e[j])) @ beta
                      - of("s", av[i]) @ of("l", e[j])),
        ("compat-2", 2,
         lambda i, j: of("r", av[j]) @ of("s", e[i])
                      - of("s", eval_bilinear(st, e[i], e[j])) @ beta),
        ("compat-3", 2,
         lambda i, j: of("r", av[j]) @ of("s", e[i]) - of("s", av[i]) @ of("r", e[j])),
        ("compat-4", 2,
         lambda i, j: of("s", br(i, j)) @ beta
                      - (of("l", av[i]) @ of("s", e[j])
                         - of("l", av[j]) @ of("s", e[i]))),
        ("compat-5", 2,
         lambda i, j: of("s", av[j]) @ rho(e[i])
                      - (of("l", av[i]) @ of("s", e[j])
                         - of("r", eval_bilinear(dot, e[i], e[j])) @ beta)),
    ]
    return _mat_families(
        n, fams, max_witnesses,
        sub_reports={"comm-assoc-module": check_rep_comm_assoc(a, rep, max_witnesses),
                     "pre-lie-bimodule": check_rep_pre_lie(a, rep, max_witnesses)})


_CLOSURE_REP_CHECKERS = {
    "comm-hom-assoc": check_rep_comm_assoc,
    "hom-lie": check_rep_hom_lie,
    "transposed-hom-poisson": check_rep_transposed,
    "hom-pre-lie": check_rep_pre_lie,
    "hom-pre-lie-poisson": check_rep_pre_lie_poisson,
}


def closure_check_rep(a, rep, cls, max_witnesses=32):
    return _CLOSURE_REP_CHECKERS[resolve_class(cls)](a, rep, max_witnesses)


def closure_dual_hypotheses(a, rep, max_witnesses=32):
    """The hypotheses report of dual_representation, as closures."""
    n, e, av, (dot, br) = _ctx(a, rep, "dot", "bracket")
    of = rep.of
    beta = rep.beta
    fams = [
        ("hyp-mixed-1", 2,
         lambda i, j: of("s", eval_bilinear(br, e[i], e[j])).scale(2) @ beta
                      - (of("s", e[j]) @ of("rho", av[i])
                         - of("s", e[i]) @ of("rho", av[j]))),
        ("hyp-mixed-2", 2,
         lambda i, j: (of("rho", e[j]) @ of("s", av[i])).scale(2)
                      - (of("rho", eval_bilinear(dot, e[i], e[j])) @ beta
                         + of("s", e[i]) @ of("rho", av[j]))),
        ("hyp-strict-commute:s", 1,
         lambda i: beta @ of("s", e[i]) - of("s", e[i]) @ beta),
        ("hyp-strict-commute:rho", 1,
         lambda i: beta @ of("rho", av[i]) - of("rho", e[i]) @ beta),
        ("hyp-sym-commute:s", 1,
         lambda i: beta @ of("s", e[i]) - of("s", av[i]) @ beta),
        ("hyp-sym-commute:rho", 1,
         lambda i: beta @ of("rho", e[i]) - of("rho", av[i]) @ beta),
    ]
    return _mat_families(n, fams, max_witnesses)


# ---------------------------------------------------------------------------
# reference checks on Fraction closures: multiplicativity, derivations,
# morphisms, the four-variable identity, invariant forms, block closure,
# the bialgebra families and the O-operator families, the evaluation the
# contraction rows of homstruct.core.contraction_family replaced.  The
# differential tests require identical reports from both.

def closure_check_multiplicative(a, op_name="all", max_witnesses=32):
    """alpha(x # y) = alpha(x) # alpha(y) for the named op (or every op)."""
    a.require_bound()
    names = sorted(a.ops) if op_name == "all" else [op_name]
    alpha = a.alpha
    e = [basis_vec(a.dim, i) for i in range(a.dim)]
    av = [alpha.column(i) for i in range(a.dim)]
    fams = []
    for name in names:
        op = a.op(name)
        fams.append((
            "multiplicative:%s" % name, 2,
            lambda i, j, op=op: vec_sub(
                apply_map(alpha, eval_bilinear(op, e[i], e[j])),
                eval_bilinear(op, av[i], av[j]))))
    return run_identity_families(a.dim, fams, max_witnesses)


def closure_check_derivation(a, op_name, d, commuting_with_alpha=True, max_witnesses=32):
    """D is a derivation of the named op; optionally D must commute with alpha."""
    a.require_bound()
    d.require_bound()
    if d.rows != a.dim or d.cols != a.dim:
        raise ValueError("derivation matrix must be dim-square")
    op = a.op(op_name)
    n = a.dim
    e = [basis_vec(n, i) for i in range(n)]
    fams = [
        ("leibniz:%s" % op_name, 2,
         lambda i, j: vec_sub(
             apply_map(d, eval_bilinear(op, e[i], e[j])),
             vec_add(eval_bilinear(op, apply_map(d, e[i]), e[j]),
                     eval_bilinear(op, e[i], apply_map(d, e[j]))))),
    ]
    if commuting_with_alpha:
        alpha = a.alpha
        fams.append((
            "commutes-with-twist", 1,
            lambda i: vec_sub(apply_map(alpha, apply_map(d, e[i])),
                              apply_map(d, apply_map(alpha, e[i])))))
    return run_identity_families(n, fams, max_witnesses)


def closure_check_morphism(a, b, f, op_names=None, max_witnesses=32):
    """f is an algebra morphism a -> b on the named ops and intertwines twists."""
    a.require_bound()
    b.require_bound()
    f.require_bound()
    if f.rows != b.dim or f.cols != a.dim:
        raise ValueError("morphism matrix must be (dim b) x (dim a)")
    names = sorted(set(a.ops) & set(b.ops)) if op_names is None else list(op_names)
    n = a.dim
    e = [basis_vec(n, i) for i in range(n)]
    fams = []
    for name in names:
        op_a, op_b = a.op(name), b.op(name)
        fams.append((
            "morphism:%s" % name, 2,
            lambda i, j, op_a=op_a, op_b=op_b: vec_sub(
                apply_map(f, eval_bilinear(op_a, e[i], e[j])),
                eval_bilinear(op_b, apply_map(f, e[i]), apply_map(f, e[j])))))
    fams.append((
        "intertwines-twists", 1,
        lambda i: vec_sub(apply_map(f, apply_map(a.alpha, e[i])),
                          apply_map(b.alpha, apply_map(f, e[i])))))
    return run_identity_families(n, fams, max_witnesses)


def closure_transposed_consequences(a, max_witnesses=32):
    """Derived identities every transposed Hom-Poisson algebra must satisfy.

    cyclic-sum: a(x).{y,z} + a(y).{z,x} + a(z).{x,y} = 0.
    four-variable (only when alpha = id, otherwise skipped with a note):
    {x.z, y.t} + {x.t, y.z} = 2 (z.t).{x,y}.
    """
    fams = [_Tables(a, ("dot", "bracket")).family("cyclic-sum")]
    notes = []
    if a.alpha.is_identity():
        dot, br = a.op("dot"), a.op("bracket")
        e = [basis_vec(a.dim, i) for i in range(a.dim)]
        fams.append((
            "four-variable", 4,
            lambda i, j, k, l: vec_sub(
                vec_add(
                    eval_bilinear(br, eval_bilinear(dot, e[i], e[k]),
                                  eval_bilinear(dot, e[j], e[l])),
                    eval_bilinear(br, eval_bilinear(dot, e[i], e[l]),
                                  eval_bilinear(dot, e[j], e[k]))),
                vec_scale(2, eval_bilinear(dot, eval_bilinear(dot, e[k], e[l]),
                                           eval_bilinear(br, e[i], e[j]))))))
    else:
        notes.append("four-variable identity skipped: twist is not the identity")
    return run_identity_families(a.dim, fams, max_witnesses, notes=notes)


def closure_check_invariant_form(a, form, max_witnesses=32):
    """B(x op y, alpha(z)) = B(alpha(x), y op z) for every present op."""
    a.require_bound()
    if form.dim != a.dim:
        raise DimensionError("form dimension mismatch")
    n = a.dim
    e = [basis_vec(n, i) for i in range(n)]
    al = [apply_map(a.alpha, e[i]) for i in range(n)]
    fams = []
    for name in sorted(a.ops):
        op = a.op(name)
        fams.append((
            "invariance:%s" % name, 3,
            lambda i, j, k, op=op: (
                form.value(eval_bilinear(op, e[i], e[j]), al[k])
                - form.value(al[i], eval_bilinear(op, e[j], e[k])),)))
    return run_identity_families(n, fams, max_witnesses)


def closure_block_closure_report(double, a, a_star, max_witnesses=32):
    """The two summands must be subalgebras of the double restricting to the
    given products: the double's product of two basis vectors of one block
    is the summand's product, lifted into that block."""
    n = a.dim
    e = [basis_vec(2 * n, i) for i in range(2 * n)]
    f = [basis_vec(n, i) for i in range(n)]
    fams = []
    for (alg, off, tag) in ((a, 0, "a"), (a_star, n, "b")):
        for name in ("dot", "bracket"):
            fams.append((
                "block-%s:%s" % (tag, name), 2,
                lambda i, j, op=double.op(name), sub=alg.op(name), off=off: vec_sub(
                    eval_bilinear(op, e[off + i], e[off + j]),
                    (0,) * off + tuple(eval_bilinear(sub, f[i], f[j]))
                    + (0,) * (n - off))))
    return run_identity_families(n, fams, max_witnesses)


def _coop_apply(dim, entries, x):
    """Image of the vector x as a dim^2 lexicographic coefficient vector."""
    out = [0] * (dim * dim)
    for (i, j, k, c) in entries:
        if x[i]:
            out[j * dim + k] += c * x[i]
    return tuple(out)


def _apply_coop_slot(dim, entries, t, slot, other):
    """Apply a coop to one slot of a dim^2 tensor and a map to the other.

    slot 0: t_{jk} e_j (x) e_k -> sum t_{jk} coop(e_j) (x) other(e_k);
    slot 1: -> sum t_{jk} other(e_j) (x) coop(e_k).  Returns a dim^3 vector.
    """
    out = [0] * (dim ** 3)
    for j in range(dim):
        for k in range(dim):
            c = t[j * dim + k]
            if not c:
                continue
            if slot == 0:
                pair = _coop_apply(dim, entries, basis_vec(dim, j))
                vec = other.column(k)
                for pq in range(dim * dim):
                    if pair[pq]:
                        p, q = divmod(pq, dim)
                        for r in range(dim):
                            if vec[r]:
                                out[(p * dim + q) * dim + r] += c * pair[pq] * vec[r]
            else:
                vec = other.column(j)
                pair = _coop_apply(dim, entries, basis_vec(dim, k))
                for p in range(dim):
                    if vec[p]:
                        for qr in range(dim * dim):
                            if pair[qr]:
                                q, r = divmod(qr, dim)
                                out[(p * dim + q) * dim + r] += c * vec[p] * pair[qr]
    return tuple(out)


def _swap_first_two(dim, t):
    """(tau (x) id) on a dim^3 tensor: e_p (x) e_q (x) e_r -> e_q (x) e_p (x) e_r."""
    out = [0] * (dim ** 3)
    for p in range(dim):
        for q in range(dim):
            for r in range(dim):
                out[(q * dim + p) * dim + r] = t[(p * dim + q) * dim + r]
    return tuple(out)


def closure_bialgebra_families(a, coops, max_witnesses=32):
    """The five compatibility families of check_bialgebra_conditions, with
    its note, as closures; the caller checks the gates."""
    n = a.dim
    e = [basis_vec(n, i) for i in range(n)]
    alpha = a.alpha
    al = [apply_map(alpha, e[i]) for i in range(n)]
    S = _action_matrices(a, a.op("dot"))
    ad = _action_matrices(a, a.op("bracket"))
    Dd = coops["dot"]
    Db = coops["bracket"]

    def Sa(x):
        from homstruct.core import linear_combination
        return linear_combination(S, x)

    def ada(x):
        from homstruct.core import linear_combination
        return linear_combination(ad, x)

    def delta(x):
        return _coop_apply(n, Db, x)

    def Delta(x):
        return _coop_apply(n, Dd, x)

    def cocycle(i, j):
        lhs = delta(eval_bilinear(a.op("bracket"), e[i], e[j]))
        rhs = vec_sub(
            apply_map(tensor_map(ada(e[i]), alpha)
                      + tensor_map(alpha, ada(e[i])), delta(e[j])),
            apply_map(tensor_map(ada(e[j]), alpha)
                      + tensor_map(alpha, ada(e[j])), delta(e[i])))
        return vec_sub(lhs, rhs)

    def infinitesimal(i, j):
        lhs = Delta(eval_bilinear(a.op("dot"), e[i], e[j]))
        rhs = vec_add(
            apply_map(tensor_map(Sa(al[i]), alpha), Delta(e[j])),
            apply_map(tensor_map(alpha, Sa(al[j])), Delta(e[i])))
        return vec_sub(lhs, rhs)

    def triple_tensor(i):
        # (alpha (x) Delta) delta(x)
        left = _apply_coop_slot(n, Dd, delta(e[i]), 1, alpha)
        # (delta (x) alpha) Delta(x)
        r1 = _apply_coop_slot(n, Db, Delta(e[i]), 0, alpha)
        # (tau (x) id)(alpha (x) delta) Delta(x)
        r2 = _swap_first_two(n, _apply_coop_slot(n, Db, Delta(e[i]), 1, alpha))
        return vec_sub(left, vec_add(r1, r2))

    def mixed1(i, j):
        lhs = delta(eval_bilinear(a.op("dot"), e[i], e[j]))
        rhs = vec_sub(
            vec_add(apply_map(tensor_map(Sa(al[j]), alpha), delta(e[i])),
                    apply_map(tensor_map(Sa(al[i]), alpha), delta(e[j]))),
            vec_add(apply_map(tensor_map(alpha, ada(e[i])), Delta(e[j])),
                    apply_map(tensor_map(alpha, ada(e[j])), Delta(e[i]))))
        return vec_sub(lhs, rhs)

    def mixed2(i, j):
        lhs = Delta(eval_bilinear(a.op("bracket"), e[i], e[j]))
        rhs = vec_add(
            apply_map(tensor_map(ada(al[i]), alpha)
                      + tensor_map(alpha, ada(al[i])), Delta(e[j])),
            apply_map(tensor_map(Sa(al[j]), alpha)
                      - tensor_map(alpha, Sa(al[j])), delta(e[i])))
        return vec_sub(lhs, rhs)

    fams = [
        ("bracket-coop-cocycle", 2, cocycle),
        ("dot-coop-infinitesimal", 2, infinitesimal),
        ("triple-tensor", 1, triple_tensor),
        ("mixed-dot-cobracket", 2, mixed1),
        ("mixed-bracket-coproduct", 2, mixed2),
    ]
    return run_identity_families(
        n, fams, max_witnesses,
        notes=("mixed-bracket-coproduct groups the twisted multiplication "
               "terms as a single operator difference acting on the "
               "cobracket",))


def closure_o_operator_families(a, rep, T, class_name, max_witnesses=32):
    """The families of check_o_operator, after its gate, as closures."""
    p = rep.module_dim
    u = [basis_vec(p, i) for i in range(p)]
    Tu = [T.column(i) for i in range(p)]

    fams = [("twist-intertwine", 1,
             lambda i: tuple((a.alpha @ T - T @ rep.beta).column(i)))]
    if class_name in ("comm-hom-assoc", "transposed-hom-poisson"):
        dot = a.op("dot")
        fams.append(("o-equation:dot", 2, lambda i, j: vec_sub(
            eval_bilinear(dot, Tu[i], Tu[j]),
            apply_map(T, vec_add(apply_map(rep.of("s", Tu[i]), u[j]),
                                 apply_map(rep.of("s", Tu[j]), u[i]))))))
    if class_name in ("hom-lie", "transposed-hom-poisson"):
        br = a.op("bracket")
        fams.append(("o-equation:bracket", 2, lambda i, j: vec_sub(
            eval_bilinear(br, Tu[i], Tu[j]),
            apply_map(T, vec_sub(apply_map(rep.of("rho", Tu[i]), u[j]),
                                 apply_map(rep.of("rho", Tu[j]), u[i]))))))
    return run_identity_families(p, fams, max_witnesses)


def closure_o_morphism_families(a, rep, T, induced, max_witnesses=32):
    """The families of o_operator_is_morphism on its induced structure, as
    closures."""
    p = rep.module_dim
    u = [basis_vec(p, i) for i in range(p)]
    Tu = [T.column(i) for i in range(p)]
    fams = [("twist-intertwine", 1,
             lambda i: tuple((a.alpha @ T - T @ rep.beta).column(i)))]
    if "dot" in induced.ops:
        ind_dot, dot = induced.op("dot"), a.op("dot")
        fams.append(("morphism:dot", 2, lambda i, j: vec_sub(
            apply_map(T, eval_bilinear(ind_dot, u[i], u[j])),
            eval_bilinear(dot, Tu[i], Tu[j]))))
    if "star" in induced.ops and "bracket" in a.ops:
        st, br = induced.op("star"), a.op("bracket")
        fams.append(("morphism:commutator", 2, lambda i, j: vec_sub(
            apply_map(T, vec_sub(eval_bilinear(st, u[i], u[j]),
                                 eval_bilinear(st, u[j], u[i]))),
            eval_bilinear(br, Tu[i], Tu[j]))))
    return run_identity_families(p, fams, max_witnesses)


def rand_coops(rng, n):
    """Random "dot" and "bracket" comultiplication entries, about a third of
    the n^3 coefficients zero."""
    return {name: tuple((i, j, k, rand_fraction(rng))
                        for i in range(n) for j in range(n) for k in range(n)
                        if rng.random() < 0.7)
            for name in ("dot", "bracket")}


def rand_matrix(rng, rows, cols=None):
    """Random matrix, about a third of the entries zero."""
    return LinearMap.from_rows(
        [[rand_fraction(rng) if rng.random() < 0.7 else F(0)
          for _ in range(rows if cols is None else cols)] for _ in range(rows)])
