"""Representation (bimodule) checkers and module-level constructions.

A representation is a family of module_dim-square action matrices per algebra
basis element, plus a module twist beta.  All module axioms are linear in the
module argument, so they are checked as matrix identities; witnesses carry the
algebra basis tuple and the flattened residual matrix.

The module axioms are data (MODULE_IDENTITIES): rows of contraction terms
over the integer tensors of alpha, the class's ops, its actions and beta,
evaluated by core.contraction_family, so each residual is exact.
"""

from __future__ import annotations

from functools import partial

from homstruct.axioms import (
    CLASS_OPS,
    check_class,
    check_morphism,
    resolve_class,
)
from homstruct.core import (
    ConstructionError,
    DimensionError,
    PreconditionError,
    RepresentationPresentation,
    contraction_family,
    int_tensor,
    maps_from_terms,
    run_identity_families,
)

REP_OPS = {
    "comm-hom-assoc": ("s",),
    "hom-lie": ("rho",),
    "transposed-hom-poisson": ("s", "rho"),
    "hom-pre-lie": ("l", "r"),
    "hom-pre-lie-poisson": ("s", "l", "r"),
}


def _intertwine(act):
    """The row of beta act(x) - act(a(x)) beta."""
    return (1, ((1, "uv,ivw->iuw", ("beta", act)),
                (-1, "xi,xuv,vw->iuw", ("alpha", act, "beta"))))


# identity id -> (arity, terms): contract's terms (c, spec, tensor names) over
# "alpha" (a(e_x) = sum_r alpha[r][x] e_r), the ops (op(e_i, e_j) has e_k
# coefficient op[i][j][k]), the actions (act(e_x) is the matrix act[x]) and
# "beta".  The basis tuple is (i, j), u and w index the residual matrix and
# v, x are summed.  Over a Hom-pre-Lie algebra {x,y} = x*y - y*x and
# rho = l - r, two terms each.
MODULE_IDENTITIES = {
    # s(x.y) beta - s(a(x)) s(y)
    "assoc-action": (2, ((1, "ijx,xuv,vw->ijuw", ("dot", "s", "beta")),
                         (-1, "xi,xuv,jvw->ijuw", ("alpha", "s", "s")))),
    # rho([x,y]) beta - rho(a(x)) rho(y) + rho(a(y)) rho(x)
    "bracket-action": (2, ((1, "ijx,xuv,vw->ijuw", ("bracket", "rho", "beta")),
                           (-1, "xi,xuv,jvw->ijuw", ("alpha", "rho", "rho")),
                           (1, "xj,xuv,ivw->ijuw", ("alpha", "rho", "rho")))),
    # 2 s({x,y}) beta - rho(a(x)) s(y) + rho(a(y)) s(x)
    "mixed-1": (2, ((2, "ijx,xuv,vw->ijuw", ("bracket", "s", "beta")),
                    (-1, "xi,xuv,jvw->ijuw", ("alpha", "rho", "s")),
                    (1, "xj,xuv,ivw->ijuw", ("alpha", "rho", "s")))),
    # 2 s(a(x)) rho(y) - rho(x.y) beta - rho(a(y)) s(x)
    "mixed-2": (2, ((2, "xi,xuv,jvw->ijuw", ("alpha", "s", "rho")),
                    (-1, "ijx,xuv,vw->ijuw", ("dot", "rho", "beta")),
                    (-1, "xj,xuv,ivw->ijuw", ("alpha", "rho", "s")))),
    # l({x,y}) beta - l(a(x)) l(y) + l(a(y)) l(x)
    "sub-bracket-action": (2, ((1, "ijx,xuv,vw->ijuw", ("star", "l", "beta")),
                               (-1, "jix,xuv,vw->ijuw", ("star", "l", "beta")),
                               (-1, "xi,xuv,jvw->ijuw", ("alpha", "l", "l")),
                               (1, "xj,xuv,ivw->ijuw", ("alpha", "l", "l")))),
    # r(a(y)) rho(x) - l(a(x)) r(y) + r(x*y) beta
    "right-action": (2, ((1, "xj,xuv,ivw->ijuw", ("alpha", "r", "l")),
                         (-1, "xj,xuv,ivw->ijuw", ("alpha", "r", "r")),
                         (-1, "xi,xuv,jvw->ijuw", ("alpha", "l", "r")),
                         (1, "ijx,xuv,vw->ijuw", ("star", "r", "beta")))),
    # l(x.y) beta - s(a(x)) l(y)
    "compat-1": (2, ((1, "ijx,xuv,vw->ijuw", ("dot", "l", "beta")),
                     (-1, "xi,xuv,jvw->ijuw", ("alpha", "s", "l")))),
    # r(a(y)) s(x) - s(x*y) beta
    "compat-2": (2, ((1, "xj,xuv,ivw->ijuw", ("alpha", "r", "s")),
                     (-1, "ijx,xuv,vw->ijuw", ("star", "s", "beta")))),
    # r(a(y)) s(x) - s(a(x)) r(y)
    "compat-3": (2, ((1, "xj,xuv,ivw->ijuw", ("alpha", "r", "s")),
                     (-1, "xi,xuv,jvw->ijuw", ("alpha", "s", "r")))),
    # s({x,y}) beta - l(a(x)) s(y) + l(a(y)) s(x)
    "compat-4": (2, ((1, "ijx,xuv,vw->ijuw", ("star", "s", "beta")),
                     (-1, "jix,xuv,vw->ijuw", ("star", "s", "beta")),
                     (-1, "xi,xuv,jvw->ijuw", ("alpha", "l", "s")),
                     (1, "xj,xuv,ivw->ijuw", ("alpha", "l", "s")))),
    # s(a(y)) rho(x) - l(a(x)) s(y) + r(x.y) beta
    "compat-5": (2, ((1, "xj,xuv,ivw->ijuw", ("alpha", "s", "l")),
                     (-1, "xj,xuv,ivw->ijuw", ("alpha", "s", "r")),
                     (-1, "xi,xuv,jvw->ijuw", ("alpha", "l", "s")),
                     (1, "ijx,xuv,vw->ijuw", ("dot", "r", "beta")))),
    # the sufficient hypotheses of dual_representation
    # 2 s({x,y}) beta - s(y) rho(a(x)) + s(x) rho(a(y))
    "hyp-mixed-1": (2, ((2, "ijx,xuv,vw->ijuw", ("bracket", "s", "beta")),
                        (-1, "xi,xvw,juv->ijuw", ("alpha", "rho", "s")),
                        (1, "xj,xvw,iuv->ijuw", ("alpha", "rho", "s")))),
    # 2 rho(y) s(a(x)) - rho(x.y) beta - s(x) rho(a(y))
    "hyp-mixed-2": (2, ((2, "xi,xvw,juv->ijuw", ("alpha", "s", "rho")),
                        (-1, "ijx,xuv,vw->ijuw", ("dot", "rho", "beta")),
                        (-1, "xj,xvw,iuv->ijuw", ("alpha", "rho", "s")))),
    # beta s(x) - s(x) beta
    "hyp-strict-commute:s": (1, ((1, "uv,ivw->iuw", ("beta", "s")),
                                 (-1, "iuv,vw->iuw", ("s", "beta")))),
    # beta rho(a(x)) - rho(x) beta
    "hyp-strict-commute:rho": (1, ((1, "xi,xvw,uv->iuw", ("alpha", "rho", "beta")),
                                   (-1, "iuv,vw->iuw", ("rho", "beta")))),
    "hyp-sym-commute:s": _intertwine("s"),
    "hyp-sym-commute:rho": _intertwine("rho"),
}
MODULE_IDENTITIES.update(
    {"twist-intertwine:%s" % act: _intertwine(act) for act in ("s", "rho", "l", "r")})

# class -> ((sub-report name, class), ...), own identity ids
REP_FAMILIES = {
    "comm-hom-assoc": ((), ("assoc-action", "twist-intertwine:s")),
    "hom-lie": ((), ("bracket-action", "twist-intertwine:rho")),
    "transposed-hom-poisson": ((("comm-assoc-module", "comm-hom-assoc"),
                                ("hom-lie-module", "hom-lie")),
                               ("mixed-1", "mixed-2")),
    "hom-pre-lie": ((), ("sub-bracket-action", "right-action",
                         "twist-intertwine:l", "twist-intertwine:r")),
    "hom-pre-lie-poisson": ((("comm-assoc-module", "comm-hom-assoc"),
                             ("pre-lie-bimodule", "hom-pre-lie")),
                            ("compat-1", "compat-2", "compat-3", "compat-4", "compat-5")),
}

DUAL_HYPOTHESES = ("hyp-mixed-1", "hyp-mixed-2", "hyp-strict-commute:s",
                   "hyp-strict-commute:rho", "hyp-sym-commute:s", "hyp-sym-commute:rho")


def rep_class(name):
    """The resolved class name; PreconditionError for a class without module axioms."""
    cls = resolve_class(name)
    if cls not in REP_OPS:
        raise PreconditionError("class %s has no module axioms (classes with module "
                                "axioms: %s)" % (cls, ", ".join(REP_OPS)))
    return cls


def _check_shapes(a, rep):
    a.require_bound()
    rep.require_bound()
    if rep.algebra_dim != a.dim:
        raise PreconditionError("representation algebra_dim does not match the algebra")


def _tensors(a, rep, cls):
    """The integer tensors of the class's rows.  A bad input raises its first
    error in this order: bounds, algebra_dim, alpha's shape, the ops in
    CLASS_OPS order, the actions in REP_OPS order, beta."""
    _check_shapes(a, rep)
    n, f = a.dim, a.alpha
    if f.rows != n or f.cols != n:
        raise DimensionError("map 'alpha' is %dx%d, expected %dx%d" % (f.rows, f.cols, n, n))
    t = {"alpha": int_tensor(f)}
    t.update((op, int_tensor(a.op(op))) for op in CLASS_OPS[cls])
    t.update((act, int_tensor(rep.action(act))) for act in REP_OPS[cls])
    t["beta"] = int_tensor(rep.beta)
    return t


def _families(idents, tensors):
    n, p = tensors["alpha"].shape[0], tensors["beta"].shape[0]
    fams = []
    for ident in idents:
        arity, terms = MODULE_IDENTITIES[ident]
        fams.append(contraction_family(ident, (arity, (p, p), terms), tensors, n))
    return fams


def _report(tensors, cls, max_witnesses):
    subs, idents = REP_FAMILIES[cls]
    return run_identity_families(
        tensors["alpha"].shape[0], _families(idents, tensors), max_witnesses,
        sub_reports={name: _report(tensors, sub, max_witnesses) for name, sub in subs})


def _check(cls, a, rep, max_witnesses=32):
    return _report(_tensors(a, rep, cls), cls, max_witnesses)


REP_CHECKERS = {cls: partial(_check, cls) for cls in REP_OPS}


def check_rep(a, rep, class_name, max_witnesses=32):
    """The module axioms of the class; sub-reports hold those of its parts."""
    return REP_CHECKERS[rep_class(class_name)](a, rep, max_witnesses)


# ---------------------------------------------------------------------------
# constructions

# action -> (op, spec): act(e_x)[k][m] is the e_k coefficient of
# e_x op e_m (left actions) or of e_m op e_x (the right action r)
REGULAR_ACTIONS = {"s": ("dot", "xmk->xkm"), "rho": ("bracket", "xmk->xkm"),
                   "l": ("star", "xmk->xkm"), "r": ("star", "mxk->xkm")}


def regular_representation(a, class_name):
    """The algebra acting on itself: s, rho, l, r from the structure constants;
    the module twist is the algebra twist."""
    class_name = rep_class(class_name)
    a.require_bound()
    n = a.dim
    actions = {}
    for name in REP_OPS[class_name]:
        op, spec = REGULAR_ACTIONS[name]
        actions[name] = maps_from_terms((n, n, n), ((1, spec, (op,)),),
                                        {op: int_tensor(a.op(op))})
    return RepresentationPresentation(n, n, actions, a.alpha)


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
    class_name = rep_class(class_name)
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
    verdicts are reported.  Only when all six hypotheses hold is the dual
    checked against the module axioms, and a failure there raises
    ConstructionError.  Returns (dual_rep, hypotheses_report).
    """
    cls = "transposed-hom-poisson"
    t = _tensors(a, rep, cls)
    hyp = run_identity_families(a.dim, _families(DUAL_HYPOTHESES, t), max_witnesses)
    dual = RepresentationPresentation(
        a.dim, rep.module_dim,
        {"s": tuple(m.transpose() for m in rep.action("s")),
         "rho": tuple(m.transpose().scale(-1) for m in rep.action("rho"))},
        rep.beta.transpose())
    if hyp.passed:
        # the algebra's tensors are kept; only the module's are swapped
        t.update(s=int_tensor(dual.action("s")), rho=int_tensor(dual.action("rho")),
                 beta=int_tensor(dual.beta))
        closure = _report(t, cls, max_witnesses)
        if not closure.passed:
            raise ConstructionError(
                "dual_representation: hypotheses hold but the dual failed; "
                "witnesses %r" % closure.all_witnesses()[:4])
    return dual, hyp


def bimodule_from_morphism(a, b, f, class_name="hom-pre-lie-poisson"):
    """Pull the regular bimodule of b back along a morphism f: a -> b.

    s(x) = S_b(f(x)), l(x) = L_b(f(x)), r(x) = R_b(f(x)) acting on b's space
    with twist b.alpha, returned if it passes the class's module axioms over a
    (PreconditionError with that report if not).  A passing regular bimodule
    of b suffices but is not needed: f = 0 gives the zero bimodule.
    """
    class_name = rep_class(class_name)
    a.require_bound()
    b.require_bound()
    gate = check_morphism(a, b, f, op_names=CLASS_OPS[class_name])
    if not gate.passed:
        raise PreconditionError("f is not a morphism", gate)
    reg = regular_representation(b, class_name)
    n, p = a.dim, b.dim
    t = {"f": int_tensor(f)}
    t.update((name, int_tensor(fam)) for name, fam in reg.actions.items())
    # act(e_x) = sum_r f[r][x] act_b(e_r)
    actions = {name: maps_from_terms((n, p, p), ((1, "rx,rkm->xkm", ("f", name)),), t)
               for name in reg.actions}
    rep = RepresentationPresentation(n, p, actions, b.alpha)
    gate = check_rep(a, rep, class_name)
    if not gate.passed:
        raise PreconditionError(
            "the pulled-back bimodule fails the %s module axioms" % class_name, gate)
    return rep
