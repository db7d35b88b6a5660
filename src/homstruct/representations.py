"""Representation (bimodule) checkers and module-level constructions.

A representation is a family of module_dim-square action matrices per algebra
basis element, plus a module twist beta.  All module axioms are linear in the
module argument, so they are checked as matrix identities; witnesses carry the
algebra basis tuple and the flattened residual matrix.

The module axioms are data (MODULE_IDENTITIES), evaluated on integer tables:
each action family, beta, alpha and each op is scaled by the lcm of its
denominators.  A term's integer product is its rational product times the
product of its factors' scales, so each term is multiplied by L / scale,
where L is the lcm of the identity's term scales; the integer residual is
then L times the rational one and its zero test is exact.  Witness residuals
are divided back into Fractions.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import chain
from operator import mul

from homstruct.axioms import (
    CLASS_OPS,
    _exact,
    _Tables,
    check_class,
    check_morphism,
    resolve_class,
)
from homstruct.core import (
    ConstructionError,
    PreconditionError,
    RepresentationPresentation,
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
    return (1, ((1, ("beta", (act, 0))), (-1, ((act, "a", 0), "beta"))))


# identity id -> (arity, terms); a term (c, factors) is c times the product of
# its module_dim-square factors, read left to right.  A factor is
#   "beta"            the module twist,
#   (act, p)          act(e_p),
#   (act, "a", p)     act(a(e_p)),
#   (act, op, p, q)   act(op(e_p, e_q)),
# for an action family act and positions p, q in the basis tuple.  Over a
# Hom-pre-Lie algebra {x,y} = x*y - y*x and rho = l - r, two terms each.
MODULE_IDENTITIES = {
    # s(x.y) beta - s(a(x)) s(y)
    "assoc-action": (2, ((1, (("s", "dot", 0, 1), "beta")),
                         (-1, (("s", "a", 0), ("s", 1))))),
    # rho([x,y]) beta - rho(a(x)) rho(y) + rho(a(y)) rho(x)
    "bracket-action": (2, ((1, (("rho", "bracket", 0, 1), "beta")),
                           (-1, (("rho", "a", 0), ("rho", 1))),
                           (1, (("rho", "a", 1), ("rho", 0))))),
    # 2 s({x,y}) beta - rho(a(x)) s(y) + rho(a(y)) s(x)
    "mixed-1": (2, ((2, (("s", "bracket", 0, 1), "beta")),
                    (-1, (("rho", "a", 0), ("s", 1))),
                    (1, (("rho", "a", 1), ("s", 0))))),
    # 2 s(a(x)) rho(y) - rho(x.y) beta - rho(a(y)) s(x)
    "mixed-2": (2, ((2, (("s", "a", 0), ("rho", 1))),
                    (-1, (("rho", "dot", 0, 1), "beta")),
                    (-1, (("rho", "a", 1), ("s", 0))))),
    # l({x,y}) beta - l(a(x)) l(y) + l(a(y)) l(x)
    "sub-bracket-action": (2, ((1, (("l", "star", 0, 1), "beta")),
                               (-1, (("l", "star", 1, 0), "beta")),
                               (-1, (("l", "a", 0), ("l", 1))),
                               (1, (("l", "a", 1), ("l", 0))))),
    # r(a(y)) rho(x) - l(a(x)) r(y) + r(x*y) beta
    "right-action": (2, ((1, (("r", "a", 1), ("l", 0))),
                         (-1, (("r", "a", 1), ("r", 0))),
                         (-1, (("l", "a", 0), ("r", 1))),
                         (1, (("r", "star", 0, 1), "beta")))),
    # l(x.y) beta - s(a(x)) l(y)
    "compat-1": (2, ((1, (("l", "dot", 0, 1), "beta")),
                     (-1, (("s", "a", 0), ("l", 1))))),
    # r(a(y)) s(x) - s(x*y) beta
    "compat-2": (2, ((1, (("r", "a", 1), ("s", 0))),
                     (-1, (("s", "star", 0, 1), "beta")))),
    # r(a(y)) s(x) - s(a(x)) r(y)
    "compat-3": (2, ((1, (("r", "a", 1), ("s", 0))),
                     (-1, (("s", "a", 0), ("r", 1))))),
    # s({x,y}) beta - l(a(x)) s(y) + l(a(y)) s(x)
    "compat-4": (2, ((1, (("s", "star", 0, 1), "beta")),
                     (-1, (("s", "star", 1, 0), "beta")),
                     (-1, (("l", "a", 0), ("s", 1))),
                     (1, (("l", "a", 1), ("s", 0))))),
    # s(a(y)) rho(x) - l(a(x)) s(y) + r(x.y) beta
    "compat-5": (2, ((1, (("s", "a", 1), ("l", 0))),
                     (-1, (("s", "a", 1), ("r", 0))),
                     (-1, (("l", "a", 0), ("s", 1))),
                     (1, (("r", "dot", 0, 1), "beta")))),
    # the sufficient hypotheses of dual_representation
    # 2 s({x,y}) beta - s(y) rho(a(x)) + s(x) rho(a(y))
    "hyp-mixed-1": (2, ((2, (("s", "bracket", 0, 1), "beta")),
                        (-1, (("s", 1), ("rho", "a", 0))),
                        (1, (("s", 0), ("rho", "a", 1))))),
    # 2 rho(y) s(a(x)) - rho(x.y) beta - s(x) rho(a(y))
    "hyp-mixed-2": (2, ((2, (("rho", 1), ("s", "a", 0))),
                        (-1, (("rho", "dot", 0, 1), "beta")),
                        (-1, (("s", 0), ("rho", "a", 1))))),
    # beta s(x) - s(x) beta
    "hyp-strict-commute:s": (1, ((1, ("beta", ("s", 0))),
                                 (-1, (("s", 0), "beta")))),
    # beta rho(a(x)) - rho(x) beta
    "hyp-strict-commute:rho": (1, ((1, ("beta", ("rho", "a", 0))),
                                   (-1, (("rho", 0), "beta")))),
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


def _int_matrices(fam):
    """int_tensor of a family of matrices, as (matrices, scale); None for a zero matrix."""
    t = int_tensor(fam)
    return [m if any(map(any, m)) else None for m in t.dense()], t.scale


def _combination(vec, mats):
    """sum_k vec[k] mats[k]; None for the zero matrix (mats may hold None)."""
    out = None
    for c, m in zip(vec, mats):
        if c and m is not None:
            if out is None:
                out = [[c * v for v in row] for row in m]
            else:
                out = [[u + c * v for u, v in zip(r1, r2)] for r1, r2 in zip(out, m)]
    return out if out is not None and any(map(any, out)) else None


class _ModuleTables:
    """Integer tables of one bound algebra and representation, shared by one
    check's families and its sub-reports.

    tables[act][x] is the action matrix of e_x and tables["beta"] the module
    twist, each times scales[act] (None for a zero matrix); the algebra's
    alpha and ops are axioms._Tables.
    """

    def __init__(self, a, rep, cls):
        _check_shapes(a, rep)
        self.alg = _Tables(a, CLASS_OPS[cls])
        self.size = rep.module_dim ** 2
        self.tables, self.scales = {}, {}
        for act in REP_OPS[cls]:
            self.tables[act], self.scales[act] = _int_matrices(rep.action(act))
        (self.tables["beta"],), self.scales["beta"] = _int_matrices((rep.beta,))
        self._combined = {}

    def combined(self, act, op):
        """T[x] = act(a(e_x)) for op "a"; T[i][j] = act(op(e_i, e_j)) otherwise."""
        key = (act, op)
        if key not in self._combined:
            mats = self.tables[act]
            if op == "a":
                t = [_combination(col, mats) for col in self.alg.alpha]
            else:
                t = [[_combination(v, mats) for v in row] for row in self.alg.ops[op]]
            self._combined[key] = t
        return self._combined[key]

    def factor(self, f):
        """(table, positions, scale): the factor at tuple t is table[t[p]]...[t[q]]."""
        if f == "beta":
            return self.tables["beta"], (), self.scales["beta"]
        act, s = f[0], self.scales[f[0]]
        if len(f) == 2:
            return self.tables[act], f[1:], s
        if f[1] == "a":
            return self.combined(act, "a"), f[2:], s * self.alg.alpha_scale
        return self.combined(act, f[1]), f[2:], s * self.alg.scales[f[1]]

    def family(self, ident):
        """The (identity id, arity, residual fn) triple of one MODULE_IDENTITIES row."""
        arity, terms = MODULE_IDENTITIES[ident]
        compiled = [(c, [self.factor(f) for f in factors]) for c, factors in terms]
        term_scales = [math.prod(s for _, _, s in fs) for _, fs in compiled]
        scale = math.lcm(*term_scales)
        compiled = [(c * (scale // ts), [(t, pos) for t, pos, _ in fs])
                    for (c, fs), ts in zip(compiled, term_scales)]
        size = self.size

        def residual(*tup):
            acc = [0] * size
            for k, fs in compiled:
                mats = []
                for t, pos in fs:
                    for p in pos:
                        t = t[tup[p]]
                    if t is None:
                        break
                    mats.append(t)
                else:
                    out = mats[0]
                    for m in mats[1:]:
                        cols = list(zip(*m))
                        out = [[sum(map(mul, row, col)) for col in cols] for row in out]
                    acc = [u + k * v for u, v in zip(acc, chain.from_iterable(out))]
            return _exact(acc, scale)
        return ident, arity, residual


def _report(tables, cls, max_witnesses):
    subs, idents = REP_FAMILIES[cls]
    return run_identity_families(
        tables.alg.dim, [tables.family(ident) for ident in idents], max_witnesses,
        sub_reports={name: _report(tables, sub, max_witnesses) for name, sub in subs})


def _check(cls, a, rep, max_witnesses=32):
    return _report(_ModuleTables(a, rep, cls), cls, max_witnesses)


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
    tables = _ModuleTables(a, rep, cls)
    hyp = run_identity_families(
        a.dim, [tables.family(ident) for ident in DUAL_HYPOTHESES], max_witnesses)
    dual = RepresentationPresentation(
        a.dim, rep.module_dim,
        {"s": tuple(m.transpose() for m in rep.action("s")),
         "rho": tuple(m.transpose().scale(-1) for m in rep.action("rho"))},
        rep.beta.transpose())
    if hyp.passed:
        closure = _check(cls, a, dual, max_witnesses)
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
