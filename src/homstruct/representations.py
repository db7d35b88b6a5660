"""Representation (bimodule) checkers and module-level constructions.

A representation is a family of module_dim-square action matrices per algebra
basis element, plus a module twist beta.  All module axioms are linear in the
module argument, so they are checked as matrix identities; witnesses carry the
algebra basis tuple and the flattened residual matrix.
"""

from __future__ import annotations

from homstruct.axioms import CLASS_OPS, check_class, check_morphism, resolve_class
from homstruct.core import (
    BilinearMap,
    CheckReport,
    ConstructionError,
    LinearMap,
    PreconditionError,
    apply_map,
    basis_vec,
    eval_bilinear,
    linear_combination,
    run_identity_families,
    vec_sub,
)

REP_OPS = {
    "comm-hom-assoc": ("s",),
    "hom-lie": ("rho",),
    "transposed-hom-poisson": ("s", "rho"),
    "hom-pre-lie": ("l", "r"),
    "hom-pre-lie-poisson": ("s", "l", "r"),
}


def _check_shapes(a, rep):
    a.require_bound()
    rep.require_bound()
    if rep.algebra_dim != a.dim:
        raise PreconditionError("representation algebra_dim does not match the algebra")


def _mat_families(n, families, max_witnesses=32, sub_reports=None, notes=()):
    """Like run_identity_families but for matrix-valued residual functions."""
    wrapped = [(ident, arity, lambda *t, fn=fn: fn(*t).flat())
               for (ident, arity, fn) in families]
    return run_identity_families(n, wrapped, max_witnesses, sub_reports, notes)


def _ctx(a, rep, *op_names):
    _check_shapes(a, rep)
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


REP_CHECKERS = {
    "comm-hom-assoc": check_rep_comm_assoc,
    "hom-lie": check_rep_hom_lie,
    "transposed-hom-poisson": check_rep_transposed,
    "hom-pre-lie": check_rep_pre_lie,
    "hom-pre-lie-poisson": check_rep_pre_lie_poisson,
}


def check_rep(a, rep, class_name, max_witnesses=32):
    return REP_CHECKERS[resolve_class(class_name)](a, rep, max_witnesses)


# ---------------------------------------------------------------------------
# constructions

def _action_matrices(a, op, side="left"):
    """Matrices of op(e_i, -) (left) or op(-, e_i) (right) on the algebra."""
    n = a.dim
    e = [basis_vec(n, i) for i in range(n)]
    out = []
    for i in range(n):
        if side == "left":
            cols = [eval_bilinear(op, e[i], e[m]) for m in range(n)]
        else:
            cols = [eval_bilinear(op, e[m], e[i]) for m in range(n)]
        out.append(LinearMap.from_columns(cols))
    return tuple(out)


def regular_representation(a, class_name):
    """The algebra acting on itself: s, rho, l, r from the structure constants;
    the module twist is the algebra twist."""
    class_name = resolve_class(class_name)
    a.require_bound()
    from homstruct.core import RepresentationPresentation
    actions = {}
    if "s" in REP_OPS[class_name]:
        actions["s"] = _action_matrices(a, a.op("dot"))
    if "rho" in REP_OPS[class_name]:
        actions["rho"] = _action_matrices(a, a.op("bracket"))
    if "l" in REP_OPS[class_name]:
        actions["l"] = _action_matrices(a, a.op("star"))
    if "r" in REP_OPS[class_name]:
        actions["r"] = _action_matrices(a, a.op("star"), side="right")
    return RepresentationPresentation(a.dim, a.dim, actions, a.alpha)


def semidirect_product(a, rep, class_name):
    """Direct sum algebra A + V with cross products given by the actions.

    dot:      (x+u)(y+v) = x.y + s(x)v + s(y)u
    bracket:  [x+u,y+v] = [x,y] + rho(x)v - rho(y)u
    star:     (x+u)*(y+v) = x*y + l(x)v + r(y)u
    Twist is alpha (+) beta.  This is the double of the matched pair with a
    zero opposite algebra and zero reverse actions.  The representation must
    pass the class's module axioms and the result is re-checked against the
    class.
    """
    class_name = resolve_class(class_name)
    _check_shapes(a, rep)
    gate = check_rep(a, rep, class_name)
    if not gate.passed:
        raise PreconditionError("representation fails the %s module axioms"
                                % class_name, gate)
    from homstruct.matched_pairs import build_double, matched_pair_from_representation
    out = build_double(matched_pair_from_representation(a, rep, class_name),
                       class_name, check_actions=False)
    check = check_class(out, class_name)
    if not check.passed:
        raise ConstructionError(
            "semidirect_product: output failed the %s checker; witnesses %r"
            % (class_name, check.all_witnesses()[:4]))
    return out


def rep_commutator(rep):
    """rho = l - r from a pre-Lie(-Poisson) bimodule; s and beta are kept."""
    from homstruct.core import RepresentationPresentation
    rep.require_bound()
    actions = {"rho": tuple(l - r for l, r in zip(rep.action("l"), rep.action("r")))}
    if "s" in rep.actions:
        actions["s"] = rep.action("s")
    return RepresentationPresentation(
        rep.algebra_dim, rep.module_dim, actions, rep.beta)


def dual_representation(a, rep, max_witnesses=32):
    """Dual of a transposed Hom-Poisson module on V*.

    The dual actions are s*(x) = s(x)^T and rho*(x) = -rho(x)^T with twist
    beta^T.  Also evaluates the sufficient hypotheses under which the dual is
    guaranteed to satisfy the transposed module axioms, in a strict form (the
    twist commutes with each action) and a twist-symmetrized form; both
    verdicts are reported.  Returns (dual_rep, hypotheses_report).
    """
    from homstruct.core import RepresentationPresentation
    _check_shapes(a, rep)
    n = a.dim
    e = [basis_vec(n, i) for i in range(n)]
    av = [a.alpha.column(i) for i in range(n)]
    of = rep.of
    beta = rep.beta
    dot, br = a.op("dot"), a.op("bracket")

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
    hyp = _mat_families(n, fams, max_witnesses)

    dual = RepresentationPresentation(
        n, rep.module_dim,
        {"s": tuple(m.transpose() for m in rep.action("s")),
         "rho": tuple(m.transpose().scale(-1) for m in rep.action("rho"))},
        beta.transpose())

    strict_ok = not any(w[0].startswith("hyp-mixed") or w[0].startswith("hyp-strict")
                        for w in hyp.witnesses) and hyp.failures == 0
    if strict_ok:
        closure = check_rep_transposed(a, dual, max_witnesses)
        if not closure.passed:
            raise ConstructionError(
                "dual_representation: hypotheses hold but the dual failed; "
                "witnesses %r" % closure.all_witnesses()[:4])
    return dual, hyp


def bimodule_from_morphism(a, b, f, class_name="hom-pre-lie-poisson"):
    """Pull the regular bimodule of b back along a morphism f: a -> b.

    s(x) = S_b(f(x)), l(x) = L_b(f(x)), r(x) = R_b(f(x)) acting on b's space
    with twist b.alpha; the result passes the class's module axioms over a.
    """
    from homstruct.core import RepresentationPresentation
    class_name = resolve_class(class_name)
    a.require_bound()
    b.require_bound()
    gate = check_morphism(a, b, f, op_names=CLASS_OPS[class_name])
    if not gate.passed:
        raise PreconditionError("f is not a morphism", gate)
    reg = regular_representation(b, class_name)
    n = a.dim
    actions = {name: tuple(reg.of(name, apply_map(f, basis_vec(n, i)))
                           for i in range(n))
               for name in reg.actions}
    rep = RepresentationPresentation(n, b.dim, actions, b.alpha)
    closure = check_rep(a, rep, class_name)
    if not closure.passed:
        raise ConstructionError(
            "bimodule_from_morphism: output failed the %s module axioms; "
            "witnesses %r" % (class_name, closure.all_witnesses()[:4]))
    return rep


def twisted_bimodule(a, g_alg, g_mod, class_name="hom-pre-lie-poisson"):
    """Twist the regular bimodule of a by an algebra morphism and a module map.

    Hypotheses (all reported): g_alg is a morphism of a commuting with alpha;
    g_mod commutes with alpha and intertwines each regular action as
    g_mod act(x) = act(g_alg(x)) g_mod.  The twisted actions are
    act~(x) = act(g_alg(x)) g_mod over the compose-twisted algebra, with module
    twist alpha g_mod.  Returns (twisted_algebra, twisted_rep, report).
    """
    from homstruct.constructions import compose_twist
    from homstruct.core import RepresentationPresentation
    class_name = resolve_class(class_name)
    a.require_bound()
    g_mod.require_bound()
    gate = check_morphism(a, a, g_alg, op_names=CLASS_OPS[class_name])
    if not gate.passed:
        raise PreconditionError("g_alg is not a morphism", gate)
    if g_alg @ a.alpha != a.alpha @ g_alg:
        raise PreconditionError("g_alg does not commute with the twist")
    reg = regular_representation(a, class_name)
    n = a.dim
    e = [basis_vec(n, i) for i in range(n)]
    fams = [("module-map-commutes", 1,
             lambda i: g_mod @ a.alpha - a.alpha @ g_mod if i == 0
             else LinearMap.zero(n))]
    for name in sorted(reg.actions):
        fams.append((
            "intertwines:%s" % name, 1,
            lambda i, name=name: g_mod @ reg.of(name, e[i])
                                 - reg.of(name, apply_map(g_alg, e[i])) @ g_mod))
    report = _mat_families(n, fams)
    if not report.passed:
        raise PreconditionError("module map hypotheses failed", report)
    twisted_alg = compose_twist(a, g_alg, class_name)
    actions = {name: tuple(reg.of(name, apply_map(g_alg, e[i])) @ g_mod
                           for i in range(n))
               for name in reg.actions}
    rep = RepresentationPresentation(n, n, actions, a.alpha @ g_mod)
    closure = check_rep(twisted_alg, rep, class_name)
    if not closure.passed:
        raise ConstructionError(
            "twisted_bimodule: output failed the %s module axioms; witnesses %r"
            % (class_name, closure.all_witnesses()[:4]))
    return twisted_alg, rep, report
