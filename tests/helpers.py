"""Shared test fixtures and independent oracles."""

import random
from fractions import Fraction

from homstruct import catalog
from homstruct.axioms import resolve_class
from homstruct.core import (
    AlgebraPresentation,
    BilinearMap,
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
    def mat():
        return LinearMap.from_rows(
            [[rand_fraction(rng) if rng.random() < 0.7 else F(0)
              for _ in range(module_dim)] for _ in range(module_dim)])
    return RepresentationPresentation(
        algebra_dim, module_dim,
        {name: tuple(mat() for _ in range(algebra_dim)) for name in names}, mat())


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
