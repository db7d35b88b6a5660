"""Dual-space constructions: coadjoint doubles, invariant forms,
comultiplications, bialgebra conditions and their equivalence.

Everything lives on the dual of the presentation space with the dual basis,
so dual maps are plain transposes and comultiplications are stored as sparse
(i, j, k, c) entries meaning the image of e_i has e_j (x) e_k coefficient c.
Tensor elements are lexicographic coefficient vectors of length dim^2 (or
dim^3 for the triple-tensor identity).
"""

from __future__ import annotations

from homstruct.axioms import check_class, resolve_class
from homstruct.core import (
    AlgebraPresentation,
    BilinearFormPresentation,
    BilinearMap,
    CheckReport,
    ConstructionError,
    DimensionError,
    LinearMap,
    PreconditionError,
    RepresentationPresentation,
    apply_map,
    basis_vec,
    eval_bilinear,
    run_identity_families,
    vec_add,
    vec_sub,
)
from homstruct.matched_pairs import MatchedPairData, build_double, check_matched_pair
from homstruct.representations import _action_matrices


def dual_map(f):
    """The induced map on the dual space in the dual basis."""
    return f.transpose()


def coadjoint_actions(alg, beta=None):
    """The algebra acting on its dual space by transposed multiplications.

    The s-slot action of x is -S(x)^T while the rho-slot action is +ad(x)^T
    (the two conventions deliberately differ), with module twist alpha^T
    unless beta is given.
    """
    s = tuple(-M.transpose() for M in _action_matrices(alg, alg.op("dot")))
    rho = tuple(M.transpose() for M in _action_matrices(alg, alg.op("bracket")))
    if beta is None:
        beta = alg.alpha.transpose()
    return RepresentationPresentation(alg.dim, alg.dim, {"s": s, "rho": rho}, beta)


def _double_actions(alg, beta):
    """Action set entering the double: the s-slot of `coadjoint_actions`
    negated (the double's product subtracts the starred operators)."""
    co = coadjoint_actions(alg, beta)
    return RepresentationPresentation(
        co.algebra_dim, co.module_dim,
        {"s": tuple(-M for M in co.action("s")), "rho": co.action("rho")},
        co.beta)


def trivial_dual(a):
    """The dual space with zero products and twist alpha^T."""
    return AlgebraPresentation(
        a.dim, {"dot": BilinearMap(a.dim), "bracket": BilinearMap(a.dim)},
        {"alpha": a.alpha.transpose()})


def coadjoint_matched_pair(a, a_star):
    """Matched-pair data for (A, A*) with both mutual coadjoint action sets,
    signed as they enter the double's displayed products."""
    if a_star.dim != a.dim:
        raise DimensionError("dual algebra must have the same dimension")
    return MatchedPairData(a, a_star,
                           _double_actions(a, a_star.alpha),
                           _double_actions(a_star, a.alpha))


def build_double_dual(a, a_star):
    """The structure on A (+) A* defined by the mutual coadjoint actions.

    This is the matched-pair double of `coadjoint_matched_pair`; cross
    products use the transposed multiplication operators of both sides and
    the twist is alpha (+) alpha_star.  Both inputs must pass the transposed
    Hom-Poisson checker.
    """
    for tag, alg in (("a", a), ("a_star", a_star)):
        gate = check_class(alg, "transposed-hom-poisson")
        if not gate.passed:
            raise PreconditionError(
                "%s is not a transposed Hom-Poisson algebra" % tag, gate)
    return build_double(coadjoint_matched_pair(a, a_star),
                        "transposed-hom-poisson", check_actions=False)


def standard_form(n):
    """The symmetric pairing <x + f, y + g> = f(y) + g(x) on A (+) A*."""
    I = LinearMap.identity(n)
    Z = LinearMap.zero(n)
    rows = [list(Z.m[i]) + list(I.m[i]) for i in range(n)]
    rows += [list(I.m[i]) + list(Z.m[i]) for i in range(n)]
    return BilinearFormPresentation(2 * n, LinearMap.from_rows(rows))


def check_invariant_form(a, form, max_witnesses=32):
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


def _block_closure_report(double, a, a_star, max_witnesses=32):
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


def check_manin_triple(a, a_star, max_witnesses=32):
    """(A (+) A*, A, A*) with the standard pairing.

    Passes when the coadjoint double satisfies the transposed Hom-Poisson
    axioms, both summands are subalgebras restricting to the given products,
    and the standard pairing is invariant for both products of the double.
    """
    a.require_bound()
    a_star.require_bound()
    double = build_double_dual(a, a_star)
    n = a.dim
    form = standard_form(n)
    assert form.is_symmetric() and form.is_nondegenerate()
    assert all(form.value(basis_vec(2 * n, i), basis_vec(2 * n, j)) == 0
               for off in (0, n) for i in range(off, off + n)
               for j in range(off, off + n))
    subs = {
        "double-transposed": check_class(double, "transposed-hom-poisson",
                                         max_witnesses),
        "blocks": _block_closure_report(double, a, a_star, max_witnesses),
        "invariant-form": check_invariant_form(double, form, max_witnesses),
    }
    return CheckReport(
        sub_reports=subs,
        notes=("standard pairing symmetry, nondegeneracy and isotropy of "
               "both blocks hold by construction",))


# ---------------------------------------------------------------------------
# comultiplications

def comultiplication_from_algebra_op(op):
    """Entries of the comultiplication whose dualization returns the op."""
    return tuple(sorted((i, j, k, c) for (j, k, i, c) in op.entries))


def dualize_comultiplication(dim, entries):
    """The product on the dual space induced by a comultiplication."""
    return BilinearMap(dim, tuple((j, k, i, c) for (i, j, k, c) in entries))


def algebra_from_comultiplications(a, coops):
    """The dual algebra: each coop dualized, twist alpha^T."""
    ops = {name: dualize_comultiplication(a.dim, entries)
           for name, entries in coops.items()}
    return AlgebraPresentation(a.dim, ops, {"alpha": a.alpha.transpose()})


def comultiplications_from_dual_algebra(a_star):
    return {name: comultiplication_from_algebra_op(a_star.op(name))
            for name in sorted(a_star.ops)}


def _coop_apply(dim, entries, x):
    """Image of the vector x as a dim^2 lexicographic coefficient vector."""
    out = [0] * (dim * dim)
    for (i, j, k, c) in entries:
        if x[i]:
            out[j * dim + k] += c * x[i]
    return tuple(out)


def tensor_map(f, g):
    """Kronecker product acting on lexicographic tensor coordinates."""
    rows = []
    for r1 in range(f.rows):
        for r2 in range(g.rows):
            rows.append([f.m[r1][c1] * g.m[r2][c2]
                         for c1 in range(f.cols) for c2 in range(g.cols)])
    return LinearMap.from_rows(rows)


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


def check_bialgebra_conditions(a, coops, max_witnesses=32):
    """Compatibility of a transposed Hom-Poisson algebra with a cocommutative
    coassociative comultiplication ("dot") and a Lie comultiplication
    ("bracket"), both stored as sparse entries.

    Gates (sub_reports): the algebra passes the transposed checker and each
    dualized coop passes its own class checker on the dual space.  The
    verdict also requires the five compatibility families.
    """
    a.require_bound()
    if set(coops) != {"dot", "bracket"}:
        raise PreconditionError('coops must provide "dot" and "bracket"')
    n = a.dim
    dual = algebra_from_comultiplications(a, coops)
    subs = {
        "algebra-transposed": check_class(a, "transposed-hom-poisson",
                                          max_witnesses),
        "dual-dot-comm-assoc": check_class(
            AlgebraPresentation(n, {"dot": dual.op("dot")},
                                {"alpha": dual.alpha}),
            "comm-hom-assoc", max_witnesses),
        "dual-bracket-hom-lie": check_class(
            AlgebraPresentation(n, {"bracket": dual.op("bracket")},
                                {"alpha": dual.alpha}),
            "hom-lie", max_witnesses),
    }

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
    fam_report = run_identity_families(
        n, fams, max_witnesses,
        notes=("mixed-bracket-coproduct groups the twisted multiplication "
               "terms as a single operator difference acting on the "
               "cobracket",))
    return CheckReport(witnesses=fam_report.witnesses,
                       checked=fam_report.checked,
                       failures=fam_report.failures,
                       sub_reports=subs,
                       notes=fam_report.notes)


def equivalence_report(a, a_star, max_witnesses=32):
    """The bialgebra, matched-pair and Manin-triple verdicts for (A, A*).

    The three verdicts are computed independently and must agree; a
    disagreement raises ConstructionError.  Returns a dict with the three
    reports and the shared verdict.
    """
    a.require_bound()
    a_star.require_bound()
    coops = comultiplications_from_dual_algebra(a_star)
    bial = check_bialgebra_conditions(a, coops, max_witnesses)
    mp = check_matched_pair(coadjoint_matched_pair(a, a_star),
                            "transposed-hom-poisson", max_witnesses)
    manin = check_manin_triple(a, a_star, max_witnesses)
    verdicts = (bial.passed, mp.passed, manin.passed)
    if len(set(verdicts)) != 1:
        raise ConstructionError(
            "equivalence broken: bialgebra=%s matched_pair=%s manin=%s"
            % verdicts)
    return {"verdict": verdicts[0], "bialgebra": bial, "matched_pair": mp,
            "manin": manin}
