"""Shared test fixtures and independent oracles."""

import functools
import json
import random
from fractions import Fraction

from homstruct import catalog, core
from homstruct.axioms import (
    CLASS_OPS,
    check_class,
    check_derivation,
    check_morphism,
    resolve_class,
)
from homstruct.core import (
    ONE,
    ZERO,
    AlgebraPresentation,
    BilinearMap,
    ConstructionError,
    DimensionError,
    LinearMap,
    MissingOperationError,
    PreconditionError,
    RepresentationPresentation,
    basis_vec,
    block_diag,
    parse_comultiplications,
    require_bound,
    require_passed as _require,
    serialize_comultiplications,
)
from homstruct.operators import check_o_operator, check_rota_baxter
from homstruct.representations import REP_OPS, check_rep

F = Fraction


def eval_bilinear_scan(op, x, y):
    """op(x, y) by a scan of every entry: the oracles' evaluator, kept apart
    from core.eval_bilinear, which walks the op's row index."""
    if len(x) != op.dim or len(y) != op.dim:
        raise DimensionError("vector length does not match op dim %d" % op.dim)
    res = [ZERO] * op.dim
    for (i, j, k, c) in op.entries:
        t = x[i] * y[j]
        if t:
            res[k] += t * require_bound(c)
    return tuple(res)


# ---------------------------------------------------------------------------
# the per-tuple oracle protocol: the reference checkers below give each
# identity as a closure fn(*basis_tuple) -> residual, evaluated on every
# basis tuple; per_tuple turns one into the table fn that
# homstruct.core.run_identity_families reads.

def vec_is_zero(x):
    return all(a == 0 for a in x)


def _tuples(dim, arity):
    if arity == 0:
        yield ()
        return
    for head in _tuples(dim, arity - 1):
        for i in range(dim):
            yield head + (i,)


def per_tuple(dim, arity, fn):
    """The table fn of a per-tuple closure: scale 1 and {tuple: fn(*tuple)}
    on the basis tuples whose residual is nonzero."""
    def table():
        out = {}
        for tup in _tuples(dim, arity):
            res = fn(*tup)
            if not vec_is_zero(res):
                out[tup] = res
        return 1, out
    return table


def run_identity_families(dim, families, max_witnesses=32, sub_reports=None, notes=()):
    """core.run_identity_families over (ident, arity, per-tuple closure) families."""
    return core.run_identity_families(
        dim, [(ident, arity, per_tuple(dim, arity, fn)) for ident, arity, fn in families],
        max_witnesses, sub_reports, notes)


def rand_fraction(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 4))


def rand_vec(rng, n):
    return tuple(rand_fraction(rng) for _ in range(n))


def bound_fixtures():
    """(name, binding_label, algebra, target_class) for the standard bindings."""
    out = []
    for name in ("CA2a", "CA2b", "CA3a", "TP2"):
        out.append((name, "", catalog.get(name), catalog.describe(name)["class"]))
    for p in ((1, 2, 3), (0, 0, 0)):
        b = {"p1": F(p[0]), "p2": F(p[1]), "p3": F(p[2])}
        out.append(("CA3b", "p=%s" % (p,), catalog.get("CA3b", b),
                    catalog.describe("CA3b")["class"]))
    for lam in (F(0), F(1), F(5, 2)):
        out.append(("THP2", "lam=%s" % lam, catalog.get("THP2", {"lam": lam}),
                    catalog.describe("THP2")["class"]))
    for a in (F(0), F(1), F(-2)):
        out.append(("PLP2", "a=%s" % a, catalog.get("PLP2", {"a": a}),
                    catalog.describe("PLP2")["class"]))
    # an HP3 binding satisfying the constraints listed in its description
    hp3 = {"a": F(1), "b": F(0), "c": F(0), "d": F(0),
           "l1": F(0), "l2": F(1), "l3": F(0), "l4": F(2),
           "l5": F(0), "l6": F(3)}
    out.append(("HP3", "constrained", catalog.get("HP3", hp3),
                catalog.describe("HP3")["class"]))
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
        out.append(("%s[%s]#%d" % (name, label, idx), perturb(rng, a), cls))
    return out


def perturb(rng, a):
    """a with one structure constant of one op changed by a nonzero delta."""
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
    return AlgebraPresentation(n, ops, dict(a.maps), a.basis)


# ---------------------------------------------------------------------------
# naive oracle: evaluate the class identities at random vector tuples

def _residuals(a, class_name, x, y, z):
    al = lambda v: apply_map(a.alpha, v)
    res = []
    if class_name in ("comm-hom-assoc", "hom-poisson", "transposed-hom-poisson",
                      "hom-pre-lie-poisson"):
        d = lambda u, v: eval_bilinear_scan(a.op("dot"), u, v)
        res.append(vec_sub(d(x, y), d(y, x)))
        res.append(vec_sub(d(d(x, y), al(z)), d(al(x), d(y, z))))
    if class_name in ("hom-lie", "hom-poisson", "transposed-hom-poisson"):
        b = lambda u, v: eval_bilinear_scan(a.op("bracket"), u, v)
        res.append(vec_add(b(x, y), b(y, x)))
        res.append(vec_add(vec_add(b(al(x), b(y, z)), b(al(y), b(z, x))),
                           b(al(z), b(x, y))))
    if class_name == "hom-poisson":
        d = lambda u, v: eval_bilinear_scan(a.op("dot"), u, v)
        b = lambda u, v: eval_bilinear_scan(a.op("bracket"), u, v)
        res.append(vec_sub(b(al(x), d(y, z)),
                           vec_add(d(al(y), b(x, z)), d(al(z), b(x, y)))))
    if class_name == "transposed-hom-poisson":
        d = lambda u, v: eval_bilinear_scan(a.op("dot"), u, v)
        b = lambda u, v: eval_bilinear_scan(a.op("bracket"), u, v)
        res.append(vec_sub(vec_scale(2, d(al(z), b(x, y))),
                           vec_add(b(d(z, x), al(y)), b(al(x), d(z, y)))))
    if class_name in ("hom-pre-lie", "hom-pre-lie-poisson"):
        s = lambda u, v: eval_bilinear_scan(a.op("star"), u, v)
        aso = lambda u, v, w: vec_sub(s(s(u, v), al(w)), s(al(u), s(v, w)))
        res.append(vec_sub(aso(x, y, z), aso(y, x, z)))
    if class_name == "hom-pre-lie-poisson":
        d = lambda u, v: eval_bilinear_scan(a.op("dot"), u, v)
        s = lambda u, v: eval_bilinear_scan(a.op("star"), u, v)
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
    av = [column(alpha, i) for i in range(n)]
    ops = [a.op(name) for name in op_names]
    return e, av, ops


def _closure_comm_hom_assoc(a, max_witnesses):
    e, av, (dot,) = _closure_ctx(a, "dot")
    fams = [
        ("commutative", 2,
         lambda i, j: vec_sub(eval_bilinear_scan(dot, e[i], e[j]),
                              eval_bilinear_scan(dot, e[j], e[i]))),
        ("hom-associative", 3,
         lambda i, j, k: vec_sub(
             eval_bilinear_scan(dot, eval_bilinear_scan(dot, e[i], e[j]), av[k]),
             eval_bilinear_scan(dot, av[i], eval_bilinear_scan(dot, e[j], e[k])))),
    ]
    return run_identity_families(a.dim, fams, max_witnesses)


def _closure_hom_lie(a, max_witnesses):
    e, av, (br,) = _closure_ctx(a, "bracket")
    fams = [
        ("skew-symmetry", 2,
         lambda i, j: vec_add(eval_bilinear_scan(br, e[i], e[j]),
                              eval_bilinear_scan(br, e[j], e[i]))),
        ("hom-jacobi", 3,
         lambda i, j, k: vec_add(
             eval_bilinear_scan(br, av[i], eval_bilinear_scan(br, e[j], e[k])),
             vec_add(
                 eval_bilinear_scan(br, av[j], eval_bilinear_scan(br, e[k], e[i])),
                 eval_bilinear_scan(br, av[k], eval_bilinear_scan(br, e[i], e[j]))))),
    ]
    return run_identity_families(a.dim, fams, max_witnesses)


def _closure_hom_poisson(a, max_witnesses):
    e, av, (dot, br) = _closure_ctx(a, "dot", "bracket")
    fams = [
        ("poisson-leibniz", 3,
         lambda i, j, k: vec_sub(
             eval_bilinear_scan(br, av[i], eval_bilinear_scan(dot, e[j], e[k])),
             vec_add(
                 eval_bilinear_scan(dot, av[j], eval_bilinear_scan(br, e[i], e[k])),
                 eval_bilinear_scan(dot, av[k], eval_bilinear_scan(br, e[i], e[j]))))),
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
             vec_scale(2, eval_bilinear_scan(dot, av[k],
                                             eval_bilinear_scan(br, e[i], e[j]))),
             vec_add(
                 eval_bilinear_scan(br, eval_bilinear_scan(dot, e[k], e[i]), av[j]),
                 eval_bilinear_scan(br, av[i], eval_bilinear_scan(dot, e[k], e[j]))))),
    ]
    return run_identity_families(
        a.dim, fams, max_witnesses,
        sub_reports={"comm-hom-assoc": _closure_comm_hom_assoc(a, max_witnesses),
                     "hom-lie": _closure_hom_lie(a, max_witnesses)})


def _closure_hom_pre_lie(a, max_witnesses):
    e, av, (st,) = _closure_ctx(a, "star")

    def assoc(i, j, k):
        return vec_sub(
            eval_bilinear_scan(st, eval_bilinear_scan(st, e[i], e[j]), av[k]),
            eval_bilinear_scan(st, av[i], eval_bilinear_scan(st, e[j], e[k])))

    fams = [("hom-pre-lie", 3, lambda i, j, k: vec_sub(assoc(i, j, k), assoc(j, i, k)))]
    return run_identity_families(a.dim, fams, max_witnesses)


def _closure_hom_pre_lie_poisson(a, max_witnesses):
    e, av, (dot, st) = _closure_ctx(a, "dot", "star")
    fams = [
        ("pre-poisson-1", 3,
         lambda i, j, k: vec_sub(
             eval_bilinear_scan(st, eval_bilinear_scan(dot, e[i], e[j]), av[k]),
             eval_bilinear_scan(dot, av[i], eval_bilinear_scan(st, e[j], e[k])))),
        ("pre-poisson-2", 3,
         lambda i, j, k: vec_sub(
             vec_sub(eval_bilinear_scan(dot, eval_bilinear_scan(st, e[i], e[j]), av[k]),
                     eval_bilinear_scan(dot, eval_bilinear_scan(st, e[j], e[i]), av[k])),
             vec_sub(eval_bilinear_scan(st, av[i], eval_bilinear_scan(dot, e[j], e[k])),
                     eval_bilinear_scan(st, av[j],
                                        eval_bilinear_scan(dot, e[i], e[k]))))),
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
    return run_identity_families(a.dim, [_cyclic_sum(e, av, dot, br)], max_witnesses)


def _cyclic_sum(e, av, dot, br):
    return ("cyclic-sum", 3,
            lambda i, j, k: vec_add(
                eval_bilinear_scan(dot, av[i], eval_bilinear_scan(br, e[j], e[k])),
                vec_add(
                    eval_bilinear_scan(dot, av[j], eval_bilinear_scan(br, e[k], e[i])),
                    eval_bilinear_scan(dot, av[k], eval_bilinear_scan(br, e[i], e[j])))))


def closure_annihilation(a, max_witnesses=32):
    """The annihilation sub-report of check_poisson_intersection, as closures."""
    e, av, (dot, br) = _closure_ctx(a, "dot", "bracket")
    fams = [
        ("dot-bracket-vanishes", 3,
         lambda i, j, k: eval_bilinear_scan(dot, av[i],
                                            eval_bilinear_scan(br, e[j], e[k]))),
        ("bracket-dot-vanishes", 3,
         lambda i, j, k: eval_bilinear_scan(br, eval_bilinear_scan(dot, e[i], e[j]),
                                            av[k])),
    ]
    return run_identity_families(a.dim, fams, max_witnesses)


# ---------------------------------------------------------------------------
# reference module checkers: each module axiom as a per-tuple closure over
# Fraction LinearMap products, the evaluation the integer tables of
# homstruct.representations replaced.  The differential tests require
# identical reports from both.

def _mat_families(n, families, max_witnesses=32, sub_reports=None, notes=()):
    """Like run_identity_families but for matrix-valued residual functions."""
    wrapped = [(ident, arity, lambda *t, fn=fn: flat(fn(*t)))
               for (ident, arity, fn) in families]
    return run_identity_families(n, wrapped, max_witnesses, sub_reports, notes)


def _ctx(a, rep, *op_names):
    a.require_bound()
    rep.require_bound()
    if rep.algebra_dim != a.dim:
        raise PreconditionError("representation algebra_dim does not match the algebra")
    n = a.dim
    e = [basis_vec(n, i) for i in range(n)]
    av = [column(a.alpha, i) for i in range(n)]
    ops = [a.op(name) for name in op_names]
    return n, e, av, ops


def check_rep_comm_assoc(a, rep, max_witnesses=32):
    """Module axioms over a commutative Hom-associative algebra.

    assoc-action: s(x.y) beta = s(a(x)) s(y)
    twist-intertwine: beta s(x) = s(a(x)) beta
    """
    n, e, av, (dot,) = _ctx(a, rep, "dot")
    s = functools.partial(action_of, rep)
    beta = rep.beta
    fams = [
        ("assoc-action", 2,
         lambda i, j: s("s", eval_bilinear_scan(dot, e[i], e[j])) @ beta
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
    rho = functools.partial(action_of, rep)
    beta = rep.beta
    fams = [
        ("bracket-action", 2,
         lambda i, j: rho("rho", eval_bilinear_scan(br, e[i], e[j])) @ beta
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
    of = functools.partial(action_of, rep)
    beta = rep.beta
    fams = [
        ("mixed-1", 2,
         lambda i, j: of("s", eval_bilinear_scan(br, e[i], e[j])).scale(2) @ beta
                      - (of("rho", av[i]) @ of("s", e[j])
                         - of("rho", av[j]) @ of("s", e[i]))),
        ("mixed-2", 2,
         lambda i, j: (of("s", av[i]) @ of("rho", e[j])).scale(2)
                      - (of("rho", eval_bilinear_scan(dot, e[i], e[j])) @ beta
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
    of = functools.partial(action_of, rep)
    beta = rep.beta

    def br(i, j):
        return vec_sub(eval_bilinear_scan(st, e[i], e[j]),
                       eval_bilinear_scan(st, e[j], e[i]))

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
                         - of("r", eval_bilinear_scan(st, e[i], e[j])) @ beta)),
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
    of = functools.partial(action_of, rep)
    beta = rep.beta

    def br(i, j):
        return vec_sub(eval_bilinear_scan(st, e[i], e[j]),
                       eval_bilinear_scan(st, e[j], e[i]))

    def rho(x):
        return of("l", x) - of("r", x)

    fams = [
        ("compat-1", 2,
         lambda i, j: of("l", eval_bilinear_scan(dot, e[i], e[j])) @ beta
                      - of("s", av[i]) @ of("l", e[j])),
        ("compat-2", 2,
         lambda i, j: of("r", av[j]) @ of("s", e[i])
                      - of("s", eval_bilinear_scan(st, e[i], e[j])) @ beta),
        ("compat-3", 2,
         lambda i, j: of("r", av[j]) @ of("s", e[i]) - of("s", av[i]) @ of("r", e[j])),
        ("compat-4", 2,
         lambda i, j: of("s", br(i, j)) @ beta
                      - (of("l", av[i]) @ of("s", e[j])
                         - of("l", av[j]) @ of("s", e[i]))),
        ("compat-5", 2,
         lambda i, j: of("s", av[j]) @ rho(e[i])
                      - (of("l", av[i]) @ of("s", e[j])
                         - of("r", eval_bilinear_scan(dot, e[i], e[j])) @ beta)),
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
    of = functools.partial(action_of, rep)
    beta = rep.beta
    fams = [
        ("hyp-mixed-1", 2,
         lambda i, j: of("s", eval_bilinear_scan(br, e[i], e[j])).scale(2) @ beta
                      - (of("s", e[j]) @ of("rho", av[i])
                         - of("s", e[i]) @ of("rho", av[j]))),
        ("hyp-mixed-2", 2,
         lambda i, j: (of("rho", e[j]) @ of("s", av[i])).scale(2)
                      - (of("rho", eval_bilinear_scan(dot, e[i], e[j])) @ beta
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

def closure_check_multiplicative(a, max_witnesses=32):
    """alpha(x # y) = alpha(x) # alpha(y) for every op."""
    a.require_bound()
    alpha = a.alpha
    e = [basis_vec(a.dim, i) for i in range(a.dim)]
    av = [column(alpha, i) for i in range(a.dim)]
    fams = []
    for name in sorted(a.ops):
        op = a.op(name)
        fams.append((
            "multiplicative:%s" % name, 2,
            lambda i, j, op=op: vec_sub(
                apply_map(alpha, eval_bilinear_scan(op, e[i], e[j])),
                eval_bilinear_scan(op, av[i], av[j]))))
    return run_identity_families(a.dim, fams, max_witnesses)


def closure_check_derivation(a, op_name, d, commuting_with_alpha=True, max_witnesses=32):
    """D is a derivation of the named op; optionally D must commute with alpha."""
    a.require_bound()
    d.require_bound()
    if d.rows != a.dim or d.cols != a.dim:
        raise DimensionError("derivation matrix must be dim-square")
    op = a.op(op_name)
    n = a.dim
    e = [basis_vec(n, i) for i in range(n)]
    fams = [
        ("leibniz:%s" % op_name, 2,
         lambda i, j: vec_sub(
             apply_map(d, eval_bilinear_scan(op, e[i], e[j])),
             vec_add(eval_bilinear_scan(op, apply_map(d, e[i]), e[j]),
                     eval_bilinear_scan(op, e[i], apply_map(d, e[j]))))),
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
        raise DimensionError("morphism matrix must be (dim b) x (dim a)")
    names = sorted(set(a.ops) & set(b.ops)) if op_names is None else list(op_names)
    n = a.dim
    e = [basis_vec(n, i) for i in range(n)]
    fams = []
    for name in names:
        op_a, op_b = a.op(name), b.op(name)
        fams.append((
            "morphism:%s" % name, 2,
            lambda i, j, op_a=op_a, op_b=op_b: vec_sub(
                apply_map(f, eval_bilinear_scan(op_a, e[i], e[j])),
                eval_bilinear_scan(op_b, apply_map(f, e[i]), apply_map(f, e[j])))))
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
    e, av, (dot, br) = _closure_ctx(a, "dot", "bracket")
    fams = [_cyclic_sum(e, av, dot, br)]
    notes = []
    if a.alpha.is_identity():
        fams.append((
            "four-variable", 4,
            lambda i, j, k, l: vec_sub(
                vec_add(
                    eval_bilinear_scan(br, eval_bilinear_scan(dot, e[i], e[k]),
                                  eval_bilinear_scan(dot, e[j], e[l])),
                    eval_bilinear_scan(br, eval_bilinear_scan(dot, e[i], e[l]),
                                  eval_bilinear_scan(dot, e[j], e[k]))),
                vec_scale(2, eval_bilinear_scan(dot, eval_bilinear_scan(dot, e[k], e[l]),
                                           eval_bilinear_scan(br, e[i], e[j]))))))
    else:
        notes.append("four-variable identity skipped: twist is not the identity")
    return run_identity_families(a.dim, fams, max_witnesses, notes=notes)


def closure_check_invariant_form(a, B, max_witnesses=32):
    """B(x op y, alpha(z)) = B(alpha(x), y op z) for every present op."""
    a.require_bound()
    if (B.rows, B.cols) != (a.dim, a.dim):
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
                form_value(B, eval_bilinear_scan(op, e[i], e[j]), al[k])
                - form_value(B, al[i], eval_bilinear_scan(op, e[j], e[k])),)))
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
                    eval_bilinear_scan(op, e[off + i], e[off + j]),
                    (0,) * off + tuple(eval_bilinear_scan(sub, f[i], f[j]))
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
                vec = column(other, k)
                for pq in range(dim * dim):
                    if pair[pq]:
                        p, q = divmod(pq, dim)
                        for r in range(dim):
                            if vec[r]:
                                out[(p * dim + q) * dim + r] += c * pair[pq] * vec[r]
            else:
                vec = column(other, j)
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
    S = closure_action_matrices(a, a.op("dot"))
    ad = closure_action_matrices(a, a.op("bracket"))
    Dd = coops["dot"]
    Db = coops["bracket"]

    def Sa(x):
        return linear_combination(S, x)

    def ada(x):
        return linear_combination(ad, x)

    def delta(x):
        return _coop_apply(n, Db, x)

    def Delta(x):
        return _coop_apply(n, Dd, x)

    def cocycle(i, j):
        lhs = delta(eval_bilinear_scan(a.op("bracket"), e[i], e[j]))
        rhs = vec_sub(
            apply_map(tensor_map(ada(e[i]), alpha)
                      + tensor_map(alpha, ada(e[i])), delta(e[j])),
            apply_map(tensor_map(ada(e[j]), alpha)
                      + tensor_map(alpha, ada(e[j])), delta(e[i])))
        return vec_sub(lhs, rhs)

    def infinitesimal(i, j):
        lhs = Delta(eval_bilinear_scan(a.op("dot"), e[i], e[j]))
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
        lhs = delta(eval_bilinear_scan(a.op("dot"), e[i], e[j]))
        rhs = vec_sub(
            vec_add(apply_map(tensor_map(Sa(al[j]), alpha), delta(e[i])),
                    apply_map(tensor_map(Sa(al[i]), alpha), delta(e[j]))),
            vec_add(apply_map(tensor_map(alpha, ada(e[i])), Delta(e[j])),
                    apply_map(tensor_map(alpha, ada(e[j])), Delta(e[i]))))
        return vec_sub(lhs, rhs)

    def mixed2(i, j):
        lhs = Delta(eval_bilinear_scan(a.op("bracket"), e[i], e[j]))
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
    Tu = [column(T, i) for i in range(p)]

    fams = [("twist-intertwine", 1,
             lambda i: column(a.alpha @ T - T @ rep.beta, i))]
    if class_name in ("comm-hom-assoc", "transposed-hom-poisson"):
        dot = a.op("dot")
        fams.append(("o-equation:dot", 2, lambda i, j: vec_sub(
            eval_bilinear_scan(dot, Tu[i], Tu[j]),
            apply_map(T, vec_add(apply_map(action_of(rep, "s", Tu[i]), u[j]),
                                 apply_map(action_of(rep, "s", Tu[j]), u[i]))))))
    if class_name in ("hom-lie", "transposed-hom-poisson"):
        br = a.op("bracket")
        fams.append(("o-equation:bracket", 2, lambda i, j: vec_sub(
            eval_bilinear_scan(br, Tu[i], Tu[j]),
            apply_map(T, vec_sub(apply_map(action_of(rep, "rho", Tu[i]), u[j]),
                                 apply_map(action_of(rep, "rho", Tu[j]), u[i]))))))
    return run_identity_families(p, fams, max_witnesses)


def closure_o_morphism_families(a, rep, T, induced, max_witnesses=32):
    """The families of o_operator_is_morphism on its induced structure, as
    closures: check_morphism's rows, in its order, from the sub-adjacent
    structure (the commutator of the star) to a."""
    p = rep.module_dim
    u = [basis_vec(p, i) for i in range(p)]
    Tu = [column(T, i) for i in range(p)]
    fams = []
    if "star" in induced.ops and "bracket" in a.ops:
        st, br = induced.op("star"), a.op("bracket")
        fams.append(("morphism:bracket", 2, lambda i, j: vec_sub(
            apply_map(T, vec_sub(eval_bilinear_scan(st, u[i], u[j]),
                                 eval_bilinear_scan(st, u[j], u[i]))),
            eval_bilinear_scan(br, Tu[i], Tu[j]))))
    if "dot" in induced.ops:
        ind_dot, dot = induced.op("dot"), a.op("dot")
        fams.append(("morphism:dot", 2, lambda i, j: vec_sub(
            apply_map(T, eval_bilinear_scan(ind_dot, u[i], u[j])),
            eval_bilinear_scan(dot, Tu[i], Tu[j]))))
    fams.append(("intertwines-twists", 1,
                 lambda i: column(T @ rep.beta - a.alpha @ T, i)))
    return run_identity_families(p, fams, max_witnesses)


def rand_coops(rng, n):
    """Random "dot" and "bracket" comultiplication entries, about a third of
    the n^3 coefficients zero."""
    return {name: tuple((i, j, k, rand_fraction(rng))
                        for i in range(n) for j in range(n) for k in range(n)
                        if rng.random() < 0.7)
            for name in ("dot", "bracket")}


def coalgebra_of(n, coops):
    """The dual products of comultiplication entries {name: ((i, j, k, c),
    ...)}, read through the interchange format, whose parser alone knows
    how a coop entry sits in a dual product."""
    return parse_comultiplications(json.dumps({"dim": n, "coops": {
        name: [{"i": i, "j": j, "k": k, "c": str(c)} for (i, j, k, c) in entries]
        for name, entries in coops.items()}}))


def coop_entries(coalgebra):
    """The comultiplication entries of dual products, as `coalgebra_of`
    takes them, read back from the interchange format."""
    doc = json.loads(serialize_comultiplications(coalgebra))
    return {name: tuple((e["i"], e["j"], e["k"], F(e["c"])) for e in entries)
            for name, entries in doc["coops"].items()}


def rand_matrix(rng, rows, cols=None):
    """Random matrix, about a third of the entries zero."""
    return LinearMap.from_rows(
        [[rand_fraction(rng) if rng.random() < 0.7 else F(0)
          for _ in range(rows if cols is None else cols)] for _ in range(rows)])


# ---------------------------------------------------------------------------
# vector helpers: the Fraction arithmetic the builders used before they were
# written as contraction terms (homstruct.core.contract)
def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))

def vec_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))

def vec_scale(c, x):
    return tuple(c * a for a in x)

def column(f, c):
    """Column c of f, the image of e_c."""
    return tuple(f.m[r][c] for r in range(f.rows))

def flat(f):
    """f's entries in row-major order."""
    return tuple(c for row in f.m for c in row)

def form_value(B, x, y):
    """The bilinear form with Gram matrix B at the vectors x and y:
    sum_ij B[i][j] x_i y_j."""
    return sum((require_bound(B.m[i][j]) * x[i] * y[j]
                for i in range(B.rows) for j in range(B.cols) if x[i] and y[j]), ZERO)

def apply_map(f, x):
    """Matrix-vector product under the column convention."""
    if len(x) != f.cols:
        raise DimensionError("vector length %d does not match cols %d" % (len(x), f.cols))
    return tuple(
        sum((require_bound(f.m[r][c]) * x[c] for c in range(f.cols) if x[c]), ZERO)
        for r in range(f.rows))

def linear_combination(mats, x):
    """sum_i x_i * mats[i] for a coefficient vector x over the algebra."""
    if len(mats) != len(x):
        raise DimensionError("family size does not match vector length")
    out = LinearMap.zero(mats[0].rows, mats[0].cols)
    for c, mat in zip(x, mats):
        if c != 0:
            out = out + mat.scale(c)
    return out

def action_of(rep, name, x):
    """The action matrix of rep's family `name` at the algebra element x."""
    return linear_combination(rep.action(name), x)

def tensor_map(f, g):
    """Kronecker product acting on lexicographic tensor coordinates."""
    rows = []
    for r1 in range(f.rows):
        for r2 in range(g.rows):
            rows.append([f.m[r1][c1] * g.m[r2][c2]
                         for c1 in range(f.cols) for c2 in range(g.cols)])
    return LinearMap.from_rows(rows)

def bilinear_from_table(dim, fn):
    """Build a BilinearMap from a function (i, j) -> coefficient vector."""
    entries = []
    for i in range(dim):
        for j in range(dim):
            v = fn(i, j)
            for k, c in enumerate(v):
                if c != 0:
                    entries.append((i, j, k, c))
    return BilinearMap(dim, tuple(entries))


# basis changes with non-integer inverses, one per fixture dimension
BASIS_CHANGES = {
    2: LinearMap.from_rows([[F(1), F(1, 2)], [F(1, 3), F(1)]]),
    3: LinearMap.from_rows([[F(1), F(1, 2), F(0)], [F(0), F(1), F(1, 3)],
                            [F(2), F(0), F(1)]])}


def transported(a):
    """a carried along x -> P x: ops P op(P^-1 x, P^-1 y), twist P alpha P^-1.
    It stays in a's classes, with dense non-integer constants and a twist
    that is not symmetric."""
    P = BASIS_CHANGES[a.dim]
    Pi = P.inverse()
    e = [column(Pi, i) for i in range(a.dim)]
    ops = {name: bilinear_from_table(
               a.dim,
               lambda i, j, op=op: apply_map(P, eval_bilinear_scan(op, e[i], e[j])))
           for name, op in a.ops.items()}
    return AlgebraPresentation(a.dim, ops, {"alpha": P @ a.alpha @ Pi}, a.basis)


# ---------------------------------------------------------------------------
# reference builders: each builder's products as per-basis-pair closures
# over Fraction vectors, the evaluation its contraction terms replaced.  The
# differential tests require equal outputs (and equal errors) from both.


def _assert_closure(a, class_name, what):
    """The output check the reference builders keep: ConstructionError
    unless a passes the class checker."""
    report = check_class(a, class_name)
    if not report.passed:
        raise ConstructionError("%s: output failed the %s checker; first witnesses %r"
                                % (what, class_name, report.all_witnesses()[:4]))
    return a


def closure_compose_ops(a, g, op_names=None):
    """Replace each op by g o op."""
    names = sorted(a.ops) if op_names is None else op_names
    e = [basis_vec(a.dim, i) for i in range(a.dim)]
    out = {}
    for name in names:
        op = a.op(name)
        out[name] = bilinear_from_table(
            a.dim, lambda i, j, op=op: apply_map(g, eval_bilinear_scan(op, e[i], e[j])))
    return out


def closure_alpha_h_twist(a, h):
    """Twist a transposed Poisson algebra (alpha = id) by alpha_h(x) = h.x.

    The ops are kept; only the twist changes.  h is a coefficient vector.
    """
    a.require_bound()
    if not a.alpha.is_identity():
        raise PreconditionError("alpha_h_twist requires the identity twist on input")
    _require(check_class(a, "transposed-hom-poisson"),
             "input is not a transposed Poisson algebra")
    dot = a.op("dot")
    h = tuple(Fraction(c) for c in h)
    alpha_h = LinearMap.from_columns(
        [eval_bilinear_scan(dot, h, basis_vec(a.dim, j)) for j in range(a.dim)])
    maps = dict(a.maps)
    maps["alpha"] = alpha_h
    out = AlgebraPresentation(a.dim, dict(a.ops), maps, a.basis)
    return _assert_closure(out, "transposed-hom-poisson", "alpha_h_twist")


def closure_bracket_from_derivation(a, d):
    """{x,y} = x.D(y) - D(x).y on a commutative Hom-associative algebra.

    D must be a derivation of the dot commuting with alpha; the result is a
    transposed Hom-Poisson algebra.
    """
    a.require_bound()
    _require(check_class(a, "comm-hom-assoc"),
             "input is not commutative Hom-associative")
    _require(check_derivation(a, "dot", d),
             "D is not a derivation commuting with the twist")
    dot = a.op("dot")
    e = [basis_vec(a.dim, i) for i in range(a.dim)]
    bracket = bilinear_from_table(
        a.dim,
        lambda i, j: vec_sub(eval_bilinear_scan(dot, e[i], apply_map(d, e[j])),
                             eval_bilinear_scan(dot, apply_map(d, e[i]), e[j])))
    out = AlgebraPresentation(a.dim, {"dot": dot, "bracket": bracket},
                              dict(a.maps), a.basis)
    return _assert_closure(out, "transposed-hom-poisson", "bracket_from_derivation")


def closure_bracket_from_two_derivations(a, d1, d2):
    """{x,y} = D1(x).D2(y) - D1(y).D2(x) on a commutative Hom-associative algebra.

    D1, D2 must be commuting derivations of the dot, each commuting with
    alpha; the result is a Hom-Poisson algebra.
    """
    a.require_bound()
    _require(check_class(a, "comm-hom-assoc"),
             "input is not commutative Hom-associative")
    for tag, d in (("D1", d1), ("D2", d2)):
        _require(check_derivation(a, "dot", d),
                 "%s is not a derivation commuting with the twist" % tag)
    if d1 @ d2 != d2 @ d1:
        raise PreconditionError("D1 and D2 do not commute")
    dot = a.op("dot")
    e = [basis_vec(a.dim, i) for i in range(a.dim)]
    bracket = bilinear_from_table(
        a.dim,
        lambda i, j: vec_sub(
            eval_bilinear_scan(dot, apply_map(d1, e[i]), apply_map(d2, e[j])),
            eval_bilinear_scan(dot, apply_map(d1, e[j]), apply_map(d2, e[i]))))
    out = AlgebraPresentation(a.dim, {"dot": dot, "bracket": bracket},
                              dict(a.maps), a.basis)
    return _assert_closure(out, "hom-poisson", "bracket_from_two_derivations")


def closure_tensor_product(a1, a2, class_name):
    """Tensor product on the lexicographic basis e_i (x) f_j -> index i*dim2+j.

    comm Hom-assoc: (x1 (x) x2).(y1 (x) y2) = x1.y1 (x) x2.y2.
    transposed: bracket {,} = {x1,y1} (x) x2.y2 + x1.y1 (x) {x2,y2}.
    pre-Lie Poisson: star * = x1*y1 (x) x2.y2 + x1.y1 (x) x2*y2.
    Twist is the Kronecker product of the twists.  Any other class is
    refused before the factors are read.
    """
    class_name = resolve_class(class_name)
    if class_name not in ("comm-hom-assoc", "transposed-hom-poisson", "hom-pre-lie-poisson"):
        raise PreconditionError("tensor_product supports the commutative, "
                                "transposed and pre-Lie Poisson classes")
    a1.require_bound()
    a2.require_bound()
    for a in (a1, a2):
        _require(check_class(a, class_name),
                 "tensor factor is not in class %s" % class_name)
    n1, n2 = a1.dim, a2.dim
    dim = n1 * n2
    e1 = [basis_vec(n1, i) for i in range(n1)]
    e2 = [basis_vec(n2, i) for i in range(n2)]

    def kron_vec(u, v):
        return tuple(u[i] * v[j] for i in range(n1) for j in range(n2))

    def product(opname1, opname2):
        p1, p2 = a1.op(opname1), a2.op(opname2)

        def fn(I, J):
            i1, i2 = divmod(I, n2)
            j1, j2 = divmod(J, n2)
            return kron_vec(eval_bilinear_scan(p1, e1[i1], e1[j1]),
                            eval_bilinear_scan(p2, e2[i2], e2[j2]))
        return fn

    def add_fns(f, g):
        return lambda I, J: tuple(x + y for x, y in zip(f(I, J), g(I, J)))

    ops = {}
    if "dot" in CLASS_OPS[class_name]:
        ops["dot"] = bilinear_from_table(dim, product("dot", "dot"))
    if class_name == "transposed-hom-poisson":
        ops["bracket"] = bilinear_from_table(
            dim, add_fns(product("bracket", "dot"), product("dot", "bracket")))
    if class_name == "hom-pre-lie-poisson":
        ops["star"] = bilinear_from_table(
            dim, add_fns(product("star", "dot"), product("dot", "star")))
    alpha = LinearMap.from_columns(
        [kron_vec(column(a1.alpha, i1), column(a2.alpha, i2))
         for i1 in range(n1) for i2 in range(n2)])
    out = AlgebraPresentation(dim, ops, {"alpha": alpha})
    return _assert_closure(out, class_name, "tensor_product")


def closure_sub_adjacent(a):
    """Commutator bracket {x,y} = x*y - y*x of a Hom-pre-Lie star.

    A Hom-pre-Lie algebra yields a Hom-Lie algebra; a Hom-pre-Lie Poisson
    algebra yields a transposed Hom-Poisson algebra (the dot is kept).
    """
    a.require_bound()
    has_dot = "dot" in a.ops
    cls_in = "hom-pre-lie-poisson" if has_dot else "hom-pre-lie"
    _require(check_class(a, cls_in), "input is not in class %s" % cls_in)
    st = a.op("star")
    e = [basis_vec(a.dim, i) for i in range(a.dim)]
    bracket = bilinear_from_table(
        a.dim,
        lambda i, j: vec_sub(eval_bilinear_scan(st, e[i], e[j]),
                             eval_bilinear_scan(st, e[j], e[i])))
    ops = {"bracket": bracket}
    if has_dot:
        ops["dot"] = a.op("dot")
    out = AlgebraPresentation(a.dim, ops, {"alpha": a.alpha}, a.basis)
    cls_out = "transposed-hom-poisson" if has_dot else "hom-lie"
    return _assert_closure(out, cls_out, "sub_adjacent")


def closure_action_matrices(a, op, side="left"):
    """Matrices of op(e_i, -) (left) or op(-, e_i) (right) on the algebra."""
    n = a.dim
    e = [basis_vec(n, i) for i in range(n)]
    out = []
    for i in range(n):
        if side == "left":
            cols = [eval_bilinear_scan(op, e[i], e[m]) for m in range(n)]
        else:
            cols = [eval_bilinear_scan(op, e[m], e[i]) for m in range(n)]
        out.append(LinearMap.from_columns(cols))
    return tuple(out)


def closure_regular_representation(a, class_name):
    """The algebra acting on itself: s, rho, l, r from the structure constants;
    the module twist is the algebra twist."""
    class_name = resolve_class(class_name)
    a.require_bound()
    from homstruct.core import RepresentationPresentation
    actions = {}
    if "s" in REP_OPS[class_name]:
        actions["s"] = closure_action_matrices(a, a.op("dot"))
    if "rho" in REP_OPS[class_name]:
        actions["rho"] = closure_action_matrices(a, a.op("bracket"))
    if "l" in REP_OPS[class_name]:
        actions["l"] = closure_action_matrices(a, a.op("star"))
    if "r" in REP_OPS[class_name]:
        actions["r"] = closure_action_matrices(a, a.op("star"), side="right")
    return RepresentationPresentation(a.dim, a.dim, actions, a.alpha)


def closure_bimodule_from_morphism(a, b, f, class_name="hom-pre-lie-poisson"):
    """Pull the regular bimodule of b back along a morphism f: a -> b.

    s(x) = S_b(f(x)), l(x) = L_b(f(x)), r(x) = R_b(f(x)) acting on b's space
    with twist b.alpha, returned if it passes the class's module axioms over a
    (PreconditionError with that report if not).  A passing regular bimodule
    of b suffices but is not needed: f = 0 gives the zero bimodule.
    """
    from homstruct.core import RepresentationPresentation
    class_name = resolve_class(class_name)
    a.require_bound()
    b.require_bound()
    gate = check_morphism(a, b, f, op_names=CLASS_OPS[class_name])
    if not gate.passed:
        raise PreconditionError("f is not a morphism", gate)
    reg = closure_regular_representation(b, class_name)
    n = a.dim
    actions = {name: tuple(action_of(reg, name, apply_map(f, basis_vec(n, i)))
                           for i in range(n))
               for name in reg.actions}
    rep = RepresentationPresentation(n, b.dim, actions, b.alpha)
    gate = check_rep(a, rep, class_name)
    if not gate.passed:
        raise PreconditionError(
            "the pulled-back bimodule fails the %s module axioms" % class_name, gate)
    return rep


def closure_coadjoint_actions(alg, beta=None):
    """The algebra acting on its dual space by transposed multiplications.

    The s-slot action of x is -S(x)^T while the rho-slot action is +ad(x)^T
    (the two conventions deliberately differ), with module twist alpha^T
    unless beta is given.
    """
    s = tuple(-M.transpose() for M in closure_action_matrices(alg, alg.op("dot")))
    rho = tuple(M.transpose() for M in closure_action_matrices(alg, alg.op("bracket")))
    if beta is None:
        beta = alg.alpha.transpose()
    return RepresentationPresentation(alg.dim, alg.dim, {"s": s, "rho": rho}, beta)


def closure_double_coadjoint_actions(alg, beta):
    """closure_coadjoint_actions with its s negated: s(x) = S(x)^T and
    rho(x) = ad(x)^T, the actions that duality.coadjoint_matched_pair puts
    into the double."""
    co = closure_coadjoint_actions(alg, beta)
    return RepresentationPresentation(
        alg.dim, alg.dim, {"s": tuple(-M for M in co.action("s")), "rho": co.action("rho")},
        beta)


def closure_build_double(mp, class_name, check_actions=True):
    """The class structure on A (+) B (A block first) defined by the actions.

    dot:      x.b = s_A(x)b + s_B(b)x
    bracket:  [x,b] = rho_A(x)b - rho_B(b)x   (and skew for [a,y])
    star:     x*b = l_A(x)b + r_B(b)x,  a*y = r_A(y)a + l_B(a)y
    Twist is alpha_A (+) alpha_B.
    """
    class_name = resolve_class(class_name)
    a, b = mp.algebra_a, mp.algebra_b
    a.require_bound()
    b.require_bound()
    if check_actions:
        for rep, alg, tag in ((mp.actions_ab, a, "actions_ab"),
                              (mp.actions_ba, b, "actions_ba")):
            gate = check_rep(alg, rep, class_name)
            if not gate.passed:
                raise PreconditionError(
                    "%s fails the %s module axioms" % (tag, class_name), gate)
    n, p = a.dim, b.dim
    dim = n + p
    ea = [basis_vec(n, i) for i in range(n)]
    eb = [basis_vec(p, i) for i in range(p)]
    ab, ba = mp.actions_ab, mp.actions_ba

    def lift_a(x):
        return tuple(x) + (0,) * p

    def lift_b(u):
        return (0,) * n + tuple(u)

    def actions(rep, name):
        """The named action family, bound: no parameter name enters the double."""
        fam = rep.action(name)
        for f in fam:
            f.require_bound()
        return fam

    def mixed(op_name, fwd_action, bwd_action, bwd_sign):
        op_a, op_b = a.op(op_name), b.op(op_name)
        fwd, bwd = actions(ab, fwd_action), actions(ba, bwd_action)

        def fn(I, J):
            if I < n and J < n:
                return lift_a(eval_bilinear_scan(op_a, ea[I], ea[J]))
            if I >= n and J >= n:
                return lift_b(eval_bilinear_scan(op_b, eb[I - n], eb[J - n]))
            if I < n:  # x op b = s_A(x)b (+/-) s_B(b)x
                part_b = column(fwd[I], J - n)
                part_a = column(bwd[J - n], I)
                if bwd_sign < 0:
                    return vec_sub(lift_b(part_b), lift_a(part_a))
                return vec_add(lift_b(part_b), lift_a(part_a))
            # a op y = s_B(a)y (+/-) s_A(y)a
            part_b = column(fwd[J], I - n)
            part_a = column(bwd[I - n], J)
            if bwd_sign < 0:
                return vec_sub(lift_a(part_a), lift_b(part_b))
            return vec_add(lift_b(part_b), lift_a(part_a))
        return fn

    def mixed_star():
        op_a, op_b = a.op("star"), b.op("star")
        l_ab, r_ba = actions(ab, "l"), actions(ba, "r")
        r_ab, l_ba = actions(ab, "r"), actions(ba, "l")

        def fn(I, J):
            if I < n and J < n:
                return lift_a(eval_bilinear_scan(op_a, ea[I], ea[J]))
            if I >= n and J >= n:
                return lift_b(eval_bilinear_scan(op_b, eb[I - n], eb[J - n]))
            if I < n:  # x * b = l_A(x)b + r_B(b)x
                return vec_add(lift_b(column(l_ab[I], J - n)),
                               lift_a(column(r_ba[J - n], I)))
            # a * y = r_A(y)a + l_B(a)y
            return vec_add(lift_b(column(r_ab[J], I - n)),
                           lift_a(column(l_ba[I - n], J)))
        return fn

    ops = {}
    if "dot" in CLASS_OPS[class_name]:
        ops["dot"] = bilinear_from_table(dim, mixed("dot", "s", "s", +1))
    if "bracket" in CLASS_OPS[class_name]:
        ops["bracket"] = bilinear_from_table(dim, mixed("bracket", "rho", "rho", -1))
    if "star" in CLASS_OPS[class_name]:
        ops["star"] = bilinear_from_table(dim, mixed_star())
    return AlgebraPresentation(dim, ops, {"alpha": block_diag(a.alpha, b.alpha)})


def closure_induced_products(a, rep, T, class_name="transposed-hom-poisson",
                     max_witnesses=32):
    """The products on the module space defined by an O-operator.

    u (dot) v = s(T(u))v + s(T(v))u and u (star) v = rho(T(u))v, with the
    module twist as the twist of the result.  For the transposed class the
    output is a Hom-pre-Lie Poisson presentation; the comm class yields only
    the dot and the Hom-Lie class only the star (a Hom-pre-Lie product).
    """
    class_name = resolve_class(class_name)
    gate = check_o_operator(a, rep, T, class_name, max_witnesses)
    if not gate.passed:
        raise PreconditionError("T is not an O-operator", gate)
    p = rep.module_dim
    u = [basis_vec(p, i) for i in range(p)]
    Tu = [column(T, i) for i in range(p)]
    ops = {}
    if class_name in ("comm-hom-assoc", "transposed-hom-poisson"):
        ops["dot"] = bilinear_from_table(p, lambda i, j: vec_add(
            apply_map(action_of(rep, "s", Tu[i]), u[j]),
            apply_map(action_of(rep, "s", Tu[j]), u[i])))
    if class_name in ("hom-lie", "transposed-hom-poisson"):
        ops["star"] = bilinear_from_table(
            p, lambda i, j: apply_map(action_of(rep, "rho", Tu[i]), u[j]))
    out = AlgebraPresentation(p, ops, {"alpha": rep.beta})
    target = {"comm-hom-assoc": "comm-hom-assoc",
              "hom-lie": "hom-pre-lie",
              "transposed-hom-poisson": "hom-pre-lie-poisson"}[class_name]
    verdict = check_class(out, target)
    if not verdict.passed:
        raise ConstructionError(
            "induced products failed the %s checker; first witnesses %r"
            % (target, verdict.all_witnesses()[:4]))
    return out


def closure_compatible_pre_lie_from_invertible(a, rep, T, max_witnesses=32):
    """The Hom-pre-Lie Poisson structure on A carried over an invertible
    O-operator: x.y = T(s(x)T'(y) + s(y)T'(x)) and x*y = T(rho(x)T'(y))
    with T' the inverse of T.

    The sub-adjacent structure reproduces a's dot and bracket exactly.
    """
    if T.rows != T.cols:
        raise PreconditionError("T must be square")
    if fraction_det(T) == 0:
        raise PreconditionError("T must be invertible")
    gate = check_o_operator(a, rep, T, "transposed-hom-poisson", max_witnesses)
    if not gate.passed:
        raise PreconditionError("T is not an O-operator", gate)
    Ti = T.inverse()
    n = a.dim
    e = [basis_vec(n, i) for i in range(n)]
    dot = bilinear_from_table(n, lambda i, j: apply_map(T, vec_add(
        apply_map(action_of(rep, "s", e[i]), apply_map(Ti, e[j])),
        apply_map(action_of(rep, "s", e[j]), apply_map(Ti, e[i])))))
    star = bilinear_from_table(n, lambda i, j: apply_map(
        T, apply_map(action_of(rep, "rho", e[i]), apply_map(Ti, e[j]))))
    out = AlgebraPresentation(n, {"dot": dot, "star": star},
                              {"alpha": a.alpha}, a.basis)
    verdict = check_class(out, "hom-pre-lie-poisson")
    if not verdict.passed:
        raise ConstructionError(
            "compatible structure failed the pre-Lie Poisson checker; "
            "first witnesses %r" % (verdict.all_witnesses()[:4],))
    commutator = bilinear_from_table(n, lambda i, j: vec_sub(
        eval_bilinear_scan(star, e[i], e[j]), eval_bilinear_scan(star, e[j], e[i])))
    if dot != a.op("dot") or commutator != a.op("bracket"):
        raise ConstructionError(
            "sub-adjacent structure does not reproduce the input tables")
    return out


def closure_rota_baxter_induced(a, R, max_witnesses=32):
    """Products induced by a Rota-Baxter operator on a transposed algebra:
    x (dot) y = R(x).y + x.R(y) and x (star) y = {R(x), y}.

    The sub-adjacent structure is transposed Hom-Poisson and R is a morphism
    from it to a; both facts are verified.
    """
    gate = check_rota_baxter(a, R, "transposed-hom-poisson", max_witnesses)
    if not gate.passed:
        raise PreconditionError("R is not a Rota-Baxter operator", gate)
    n = a.dim
    e = [basis_vec(n, i) for i in range(n)]
    dot_a, br = a.op("dot"), a.op("bracket")
    dot = bilinear_from_table(n, lambda i, j: vec_add(
        eval_bilinear_scan(dot_a, apply_map(R, e[i]), e[j]),
        eval_bilinear_scan(dot_a, e[i], apply_map(R, e[j]))))
    star = bilinear_from_table(
        n, lambda i, j: eval_bilinear_scan(br, apply_map(R, e[i]), e[j]))
    out = AlgebraPresentation(n, {"dot": dot, "star": star},
                              {"alpha": a.alpha}, a.basis)
    bracket = bilinear_from_table(n, lambda i, j: vec_sub(
        eval_bilinear_scan(star, e[i], e[j]), eval_bilinear_scan(star, e[j], e[i])))
    sub = AlgebraPresentation(n, {"dot": dot, "bracket": bracket},
                              {"alpha": a.alpha}, a.basis)
    verdict = check_class(sub, "transposed-hom-poisson")
    if not verdict.passed:
        raise ConstructionError(
            "sub-adjacent of the induced structure failed the transposed "
            "checker; first witnesses %r" % (verdict.all_witnesses()[:4],))
    morph = check_morphism(sub, a, R)
    if not morph.passed:
        raise ConstructionError(
            "R is not a morphism from the induced sub-adjacent structure")
    return out


# ---------------------------------------------------------------------------
# reference linear algebra: Fraction Gauss-Jordan, the elimination that
# core.fraction_free_rref replaced in the derivation solver and in
# LinearMap.det and inverse.  The differential tests require equal results.

def fraction_rref(rows, width):
    """Reduced row echelon form with lexicographic pivot order; returns
    (reduced_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(width):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = ONE / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * p for v, p in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def fraction_nullspace_basis(rows, width):
    """Canonical basis of the solution space of rows . v = 0.

    Free variables are set to 1 one at a time in lexicographic order; the
    resulting basis is itself in reduced echelon form.
    """
    reduced, pivots = fraction_rref(rows, width)
    pivot_set = set(pivots)
    free = [c for c in range(width) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * width
        v[f] = ONE
        for r, p in zip(reduced, pivots):
            v[p] = -r[f]
        basis.append(tuple(v))
    return basis


def fraction_derivation_space(a, op_name, commuting_with="alpha"):
    """Basis of the space of derivations of the named op, on Fraction rows
    read through eval_bilinear_scan, each basis element checked on its own."""
    if op_name not in a.ops:
        raise MissingOperationError("op %r is missing" % op_name)
    a.require_bound()
    n = a.dim
    op = a.op(op_name)
    c = [[eval_bilinear_scan(op, basis_vec(n, i), basis_vec(n, j))
          for j in range(n)] for i in range(n)]
    width = n * n  # unknown D[r][col] at index r*n + col
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [ZERO] * width
                # D(e_i op e_j)_k
                for m in range(n):
                    if c[i][j][m]:
                        row[k * n + m] += c[i][j][m]
                # -(D(e_i) op e_j)_k - (e_i op D(e_j))_k
                for r in range(n):
                    row[r * n + i] -= c[r][j][k]
                    row[r * n + j] -= c[i][r][k]
                if any(row):
                    rows.append(row)
    if commuting_with is not None:
        g = a.map(commuting_with)
        for r in range(n):
            for col in range(n):
                row = [ZERO] * width
                # (g D - D g)[r][col]
                for m in range(n):
                    row[m * n + col] += g.m[r][m]
                    row[r * n + m] -= g.m[m][col]
                if any(row):
                    rows.append(row)
    basis = fraction_nullspace_basis(rows, width)
    out = []
    for v in basis:
        d = LinearMap.from_rows([[v[r * n + col] for col in range(n)]
                                 for r in range(n)])
        verdict = closure_check_derivation(a, op_name, d, commuting_with == "alpha")
        assert verdict.passed, "solver returned a non-derivation"
        out.append(d)
    return out


def fraction_det(f):
    if not f.is_square:
        raise DimensionError("determinant of a non-square map")
    f.require_bound()
    n = f.rows
    m = [list(row) for row in f.m]
    d = ONE
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return ZERO
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = -d
        d *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            g = m[r][c] * inv
            if g:
                for cc in range(c, n):
                    m[r][cc] -= g * m[c][cc]
    return d


def fraction_inverse(f):
    if not f.is_square:
        raise DimensionError("inverse of a non-square map")
    f.require_bound()
    n = f.rows
    m = [list(row) + [ONE if i == r else ZERO for i in range(n)]
         for r, row in enumerate(f.m)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            raise DimensionError("map is singular")
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                g = m[r][c]
                m[r] = [v - g * w for v, w in zip(m[r], m[c])]
    return LinearMap.from_rows([row[n:] for row in m])
