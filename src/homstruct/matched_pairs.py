"""Matched pairs of algebras: mutual actions and the double construction.

A matched pair consists of two algebras of the same class together with
representations of each on the other's space.  The check is that the
direct-sum double passes the class checker; the module axioms of both action
sets are reported alongside.  A semidirect product is the double of a matched
pair with a zero opposite algebra and zero reverse actions.
"""

from __future__ import annotations

from dataclasses import dataclass

from homstruct.axioms import CLASS_OPS, check_class, resolve_class
from homstruct.core import (
    AlgebraPresentation,
    BilinearMap,
    CheckReport,
    LinearMap,
    PreconditionError,
    RepresentationPresentation,
    basis_vec,
    block_diag,
    require_passed,
)
from homstruct.representations import CROSS_ACTIONS, REP_OPS, check_rep, rep_class


@dataclass(frozen=True)
class MatchedPairData:
    """Two algebras with mutual actions.

    actions_ab: algebra_a acting on algebra_b's space (beta = b.alpha).
    actions_ba: algebra_b acting on algebra_a's space (beta = a.alpha).
    """

    algebra_a: AlgebraPresentation
    algebra_b: AlgebraPresentation
    actions_ab: RepresentationPresentation
    actions_ba: RepresentationPresentation

    def __post_init__(self):
        if (self.actions_ab.algebra_dim != self.algebra_a.dim
                or self.actions_ab.module_dim != self.algebra_b.dim):
            raise PreconditionError("actions_ab shape mismatch")
        if (self.actions_ba.algebra_dim != self.algebra_b.dim
                or self.actions_ba.module_dim != self.algebra_a.dim):
            raise PreconditionError("actions_ba shape mismatch")


def zero_representation(algebra_dim, module_dim, beta, names):
    actions = {name: tuple(LinearMap.zero(module_dim) for _ in range(algebra_dim))
               for name in names}
    return RepresentationPresentation(algebra_dim, module_dim, actions, beta)


def zero_algebra(dim, alpha, op_names):
    return AlgebraPresentation(
        dim, {name: BilinearMap(dim) for name in op_names}, {"alpha": alpha})


def matched_pair_from_representation(a, rep, class_name):
    """Matched pair with a zero opposite algebra and zero reverse actions."""
    class_name = rep_class(class_name)
    names = REP_OPS[class_name]
    b = zero_algebra(rep.module_dim, rep.beta, CLASS_OPS[class_name])
    back = zero_representation(rep.module_dim, a.dim, a.alpha, names)
    return MatchedPairData(a, b, rep, back)


def swap(mp):
    return MatchedPairData(mp.algebra_b, mp.algebra_a, mp.actions_ba, mp.actions_ab)


def block_swap_map(n, p):
    """Permutation A (+) B -> B (+) A as a linear map of dimension n+p."""
    cols = []
    for i in range(n):
        cols.append(basis_vec(n + p, p + i))
    for j in range(p):
        cols.append(basis_vec(n + p, j))
    return LinearMap.from_columns(cols)


def build_double(mp, class_name, check_actions=True):
    """The class structure on A (+) B (A block first) defined by the actions.

    dot:      x.b = s_A(x)b + s_B(b)x
    bracket:  [x,b] = rho_A(x)b - rho_B(b)x   (and skew for [a,y])
    star:     x*b = l_A(x)b + r_B(b)x,  a*y = r_A(y)a + l_B(a)y
    Twist is alpha_A (+) alpha_B.  The ops are a block scatter of both op
    tables and the action matrices.
    """
    class_name = resolve_class(class_name)
    a, b = mp.algebra_a, mp.algebra_b
    a.require_bound()
    b.require_bound()
    if check_actions:
        for rep, alg, tag in ((mp.actions_ab, a, "actions_ab"),
                              (mp.actions_ba, b, "actions_ba")):
            require_passed(check_rep(alg, rep, class_name),
                           "%s fails the %s module axioms" % (tag, class_name))
    n, p = a.dim, b.dim

    def action(rep, name):
        """(x, k, m, c): act(e_x) has entry c at row k, column m.  Bound: no
        parameter name enters the double."""
        return [(x, k, m, c) for x, f in enumerate(rep.action(name))
                for k, row in enumerate(f.require_bound().m) for m, c in enumerate(row) if c]

    ops = {}
    for name in CLASS_OPS[class_name]:
        left, right, sign = CROSS_ACTIONS[name]
        entries = list(a.op(name).entries)
        entries += [(n + i, n + j, n + k, c) for i, j, k, c in b.op(name).entries]
        # the algebra's element e_x sits at x0 + x, the module's e_m at m0 + m
        for rep, x0, m0 in ((mp.actions_ab, 0, n), (mp.actions_ba, n, 0)):
            entries += [(x0 + x, m0 + m, m0 + k, c) for x, k, m, c in action(rep, left)]
            entries += [(m0 + m, x0 + x, m0 + k, sign * c)
                        for x, k, m, c in action(rep, right)]
        ops[name] = BilinearMap(n + p, tuple(entries))
    return AlgebraPresentation(n + p, ops, {"alpha": block_diag(a.alpha, b.alpha)})


def check_matched_pair(mp, class_name, max_witnesses=32):
    """Verdict: the double passes the class checker.

    The module axioms of both action sets are reported in sub_reports
    ("actions-ab-module", "actions-ba-module") next to the double's report.
    """
    class_name = rep_class(class_name)
    double = build_double(mp, class_name, check_actions=False)
    verdict = check_class(double, class_name, max_witnesses)
    rep_ab = check_rep(mp.algebra_a, mp.actions_ab, class_name, max_witnesses)
    rep_ba = check_rep(mp.algebra_b, mp.actions_ba, class_name, max_witnesses)
    return CheckReport(
        witnesses=verdict.witnesses,
        checked=verdict.checked,
        failures=verdict.failures,
        sub_reports={"actions-ab-module": rep_ab,
                     "actions-ba-module": rep_ba,
                     "double": verdict})


def mp_pre_lie_to_lie(mp):
    """Matched pair of sub-adjacent Hom-Lie algebras with actions rho = l - r."""
    from homstruct.constructions import sub_adjacent

    def to_lie_rep(rep):
        actions = {"rho": tuple(l - r for l, r in
                                zip(rep.action("l"), rep.action("r")))}
        return RepresentationPresentation(
            rep.algebra_dim, rep.module_dim, actions, rep.beta)

    def to_lie_alg(alg):
        out = sub_adjacent(alg)
        if "dot" in out.ops:
            out = AlgebraPresentation(
                out.dim, {"bracket": out.op("bracket")}, {"alpha": out.alpha},
                out.basis)
        return out

    return MatchedPairData(
        to_lie_alg(mp.algebra_a), to_lie_alg(mp.algebra_b),
        to_lie_rep(mp.actions_ab), to_lie_rep(mp.actions_ba))
