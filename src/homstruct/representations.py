"""Representation (bimodule) checkers and module-level constructions.

A representation is a family of module_dim-square action matrices per algebra
basis element, plus a module twist beta.  All module axioms are linear in the
module argument, so they are checked as matrix identities; witnesses carry the
algebra basis tuple and the flattened residual matrix.

A representation is exactly a semidirect product A + V that lies in the
class, so each class module axiom is a class identity (axioms.IDENTITIES)
with one argument in V, each product with one argument in V read through
CROSS_ACTIONS.  MODULE_AXIOMS names those arguments; the rows derived from
it, with the hypotheses of dual_representation and the twist intertwining
rows, are MODULE_IDENTITIES: rows of contraction terms over the integer
tensors of alpha, the class's ops, its actions and beta, evaluated by
core.contraction_family, so each residual is exact.
"""

from __future__ import annotations

from functools import partial

from homstruct.axioms import (
    CLASS_OPS,
    IDENTITIES,
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
    require_passed,
    run_identity_families,
)

# op -> (left action, right action, sign of the right one): for x in the
# algebra and v in the module, op(x, v) = left(x)v and op(v, x) = sign right(x)v.
# The one table behind the module axioms, the regular representation and
# the cross products of matched_pairs.build_double.
CROSS_ACTIONS = {"dot": ("s", "s", 1), "bracket": ("rho", "rho", -1), "star": ("l", "r", 1)}

# module axiom -> (class identity, the letters of its arguments x, y, z, sign):
# i and j are the basis tuple and v the module slot.
MODULE_AXIOMS = {
    "assoc-action": ("hom-associative", "ijv", 1),
    "bracket-action": ("hom-jacobi", "ijv", -1),
    "mixed-1": ("transposed-leibniz", "ijv", 1),
    "mixed-2": ("transposed-leibniz", "jvi", 1),
    "sub-bracket-action": ("hom-pre-lie", "ijv", 1),
    "right-action": ("hom-pre-lie", "ivj", 1),
    "compat-1": ("pre-poisson-1", "ijv", 1),
    "compat-2": ("pre-poisson-1", "vij", 1),
    "compat-3": ("pre-poisson-1", "ivj", 1),
    "compat-4": ("pre-poisson-2", "ijv", 1),
    "compat-5": ("pre-poisson-2", "ivj", 1),
}


def _acting(op, algebra_first):
    """(action, sign) by which an algebra element acts through op on a
    module element, given the side of the algebra element."""
    left, right, sign = CROSS_ACTIONS[op]
    return (left, 1) if algebra_first else (right, sign)


def _derive(ident, letters, sign):
    """The module axiom of one MODULE_AXIOMS row, as contraction terms.

    Each ternary term c outer(a(p), inner(q, r)) (or with the outer
    arguments swapped, side "R") is a matrix in the module slot: x is the
    summed algebra index, m the summed module one and u, w the residual
    matrix's row and column.
    """
    terms = []
    for c, outer, inner, side, *args in IDENTITIES[ident][1]:
        p, q, r = (letters[n] for n in args)
        if p == "v":
            # outer's algebra argument is inner(q, r); a(v) is beta v
            act, s = _acting(outer, side == "R")
            terms.append((sign * c * s, "%s%sx,xum,mw->ijuw" % (q, r), (inner, act, "beta")))
        else:
            inner_act, s = _acting(inner, r == "v")
            outer_act, t = _acting(outer, side == "L")
            terms.append((sign * c * s * t, "x%s,xum,%smw->ijuw" % (p, q if r == "v" else r),
                          ("alpha", outer_act, inner_act)))
    return tuple(terms)


def _intertwine(act):
    """The row of beta act(x) - act(a(x)) beta."""
    return (1, ((1, "uv,ivw->iuw", ("beta", act)),
                (-1, "xi,xuv,vw->iuw", ("alpha", act, "beta"))))


# identity id -> (arity, terms): contract's terms (c, spec, tensor names) over
# "alpha" (a(e_x) = sum_r alpha[r][x] e_r), the ops (op(e_i, e_j) has e_k
# coefficient op[i][j][k]), the actions (act(e_x) is the matrix act[x]) and
# "beta".  The basis tuple is (i, j), u and w index the residual matrix and
# the other letters are summed.
MODULE_IDENTITIES = {axiom: (2, _derive(*row)) for axiom, row in MODULE_AXIOMS.items()}
MODULE_IDENTITIES.update({
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
})
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

# class -> its actions: those of its ops in CROSS_ACTIONS
REP_OPS = {cls: tuple(dict.fromkeys(act for op in CLASS_OPS[cls]
                                    for act in CROSS_ACTIONS[op][:2]))
           for cls in REP_FAMILIES}

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

def regular_representation(a, class_name):
    """The algebra acting on itself through CROSS_ACTIONS: left(e_x) e_m =
    e_x op e_m and right(e_x) e_m = sign e_m op e_x; the module twist is the
    algebra twist."""
    class_name = rep_class(class_name)
    a.require_bound()
    n = a.dim
    actions = {}
    for op in CLASS_OPS[class_name]:
        left, right, sign = CROSS_ACTIONS[op]
        t = {op: int_tensor(a.op(op))}
        # act(e_x)[k][m] is the e_k coefficient of e_x op e_m or of e_m op e_x
        actions[left] = maps_from_terms((n, n, n), ((1, "xmk->xkm", (op,)),), t)
        if right != left:
            actions[right] = maps_from_terms((n, n, n), ((sign, "mxk->xkm", (op,)),), t)
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
    require_passed(check_rep(a, rep, class_name),
                   "representation fails the %s module axioms" % class_name)
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
    require_passed(check_morphism(a, b, f, op_names=CLASS_OPS[class_name]),
                   "f is not a morphism")
    reg = regular_representation(b, class_name)
    n, p = a.dim, b.dim
    t = {"f": int_tensor(f)}
    t.update((name, int_tensor(fam)) for name, fam in reg.actions.items())
    # act(e_x) = sum_r f[r][x] act_b(e_r)
    actions = {name: maps_from_terms((n, p, p), ((1, "rx,rkm->xkm", ("f", name)),), t)
               for name in reg.actions}
    rep = RepresentationPresentation(n, p, actions, b.alpha)
    require_passed(check_rep(a, rep, class_name),
                   "the pulled-back bimodule fails the %s module axioms" % class_name)
    return rep
