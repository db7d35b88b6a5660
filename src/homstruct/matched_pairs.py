"""Matched pairs of algebras: mutual actions and the double construction.

A matched pair consists of two algebras of the same class together with
representations of each on the other's space.  The check is that the
direct-sum double passes the class checker; the module axioms of both action
sets are reported alongside.  A semidirect product is the double of a matched
pair with a zero opposite algebra and zero reverse actions.
"""

from __future__ import annotations

from homstruct.axioms import CLASS_OPS, check_class, resolve_class
from homstruct.core import (
    MAX_DIM,
    AlgebraPresentation,
    BilinearMap,
    CheckReport,
    DimensionError,
    LinearMap,
    PreconditionError,
    RepresentationPresentation,
    _Value,
    basis_vec,
    block_diag,
    require_passed,
)
from homstruct.representations import (
    CROSS_ACTIONS,
    REP_OPS,
    check_rep,
    rep_class,
    rep_commutator,
)


class MatchedPairData(_Value):
    """Two algebras with mutual actions.

    actions_ab: algebra_a acting on algebra_b's space (beta = b.alpha).
    actions_ba: algebra_b acting on algebra_a's space (beta = a.alpha).
    """

    _fields = ("algebra_a", "algebra_b", "actions_ab", "actions_ba")

    def __init__(self, algebra_a, algebra_b, actions_ab, actions_ba):
        if (actions_ab.algebra_dim != algebra_a.dim
                or actions_ab.module_dim != algebra_b.dim):
            raise PreconditionError("actions_ab shape mismatch")
        if (actions_ba.algebra_dim != algebra_b.dim
                or actions_ba.module_dim != algebra_a.dim):
            raise PreconditionError("actions_ba shape mismatch")
        super().__init__(algebra_a, algebra_b, actions_ab, actions_ba)


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
    """The pair with its two sides exchanged.  It checks the paper's symmetry
    of matched pairs: (B, A) is a matched pair whenever (A, B) is, and
    `block_swap_map` is an isomorphism between the two doubles."""
    return MatchedPairData(mp.algebra_b, mp.algebra_a, mp.actions_ba, mp.actions_ab)


def block_swap_map(n, p):
    """Permutation A (+) B -> B (+) A as a linear map of dimension n+p: the
    isomorphism between the doubles of a matched pair and of its `swap`."""
    cols = []
    for i in range(n):
        cols.append(basis_vec(n + p, p + i))
    for j in range(p):
        cols.append(basis_vec(n + p, j))
    return LinearMap.from_columns(cols)


def require_double_dim(n, p):
    """DimensionError when the double of dims n and p exceeds core.MAX_DIM;
    a caller that gates its inputs calls this first, so an oversize double
    costs no check."""
    if n + p > MAX_DIM:
        raise DimensionError("double dim %d exceeds %d" % (n + p, MAX_DIM))


def build_double(mp, class_name, check_actions=True):
    """The class structure on A (+) B (A block first) defined by the actions.

    dot:      x.b = s_A(x)b + s_B(b)x
    bracket:  [x,b] = rho_A(x)b - rho_B(b)x   (and skew for [a,y])
    star:     x*b = l_A(x)b + r_B(b)x,  a*y = r_A(y)a + l_B(a)y
    Twist is alpha_A (+) alpha_B.  The ops are a block scatter of both op
    tables and the action matrices.  A double dim above core.MAX_DIM raises
    DimensionError before the module gates.
    """
    class_name = resolve_class(class_name)
    a, b = mp.algebra_a, mp.algebra_b
    a.require_bound()
    b.require_bound()
    n, p = a.dim, b.dim
    require_double_dim(n, p)
    if check_actions:
        for rep, alg, tag in ((mp.actions_ab, a, "actions_ab"),
                              (mp.actions_ba, b, "actions_ba")):
            require_passed(check_rep(alg, rep, class_name),
                           "%s fails the %s module axioms" % (tag, class_name))

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
    """Verdict: the double passes the class checker and both action sets
    pass the module axioms.

    The three reports are the sub_reports "double", "actions-ab-module" and
    "actions-ba-module"; the top level carries no witnesses of its own, and
    its checked count is their sum.
    """
    class_name = rep_class(class_name)
    double = build_double(mp, class_name, check_actions=False)
    return _matched_pair_report(mp, class_name, check_class(double, class_name, max_witnesses),
                                max_witnesses)


def _matched_pair_report(mp, class_name, verdict, max_witnesses):
    """`check_matched_pair`'s report around the double's class report
    `verdict`, which a caller that already holds it passes in."""
    subs = {"actions-ab-module": check_rep(mp.algebra_a, mp.actions_ab, class_name, max_witnesses),
            "actions-ba-module": check_rep(mp.algebra_b, mp.actions_ba, class_name, max_witnesses),
            "double": verdict}
    return CheckReport(checked=sum(sub.checked for sub in subs.values()), sub_reports=subs)


def mp_pre_lie_to_lie(mp):
    """The paper's passage from a matched pair of Hom-pre-Lie algebras to one
    of their sub-adjacent Hom-Lie algebras, with actions rho = l - r
    (`rep_commutator`).  Only the brackets and rho are kept."""
    from homstruct.constructions import sub_adjacent

    def lie(alg):
        out = sub_adjacent(alg)
        return AlgebraPresentation(out.dim, {"bracket": out.op("bracket")},
                                   {"alpha": out.alpha}, out.basis)

    def lie_rep(rep):
        return RepresentationPresentation(rep.algebra_dim, rep.module_dim,
                                          {"rho": rep_commutator(rep).action("rho")}, rep.beta)

    return MatchedPairData(lie(mp.algebra_a), lie(mp.algebra_b),
                           lie_rep(mp.actions_ab), lie_rep(mp.actions_ba))
