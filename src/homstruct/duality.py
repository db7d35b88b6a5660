"""Dual-space constructions: coadjoint doubles, invariant forms,
comultiplications, bialgebra conditions and their equivalence.

Everything lives on the dual of the presentation space with the dual basis,
so dual maps are plain transposes and comultiplications are stored as sparse
(i, j, k, c) entries meaning the image of e_i has e_j (x) e_k coefficient c.
Tensor elements are lexicographic coefficient vectors of length dim^2 (or
dim^3 for the triple-tensor identity).
"""

from __future__ import annotations

from homstruct.axioms import _morphism_families, check_class
from homstruct.core import (
    AlgebraPresentation,
    BilinearFormPresentation,
    BilinearMap,
    CheckReport,
    ConstructionError,
    DimensionError,
    IntTensor,
    LinearMap,
    PreconditionError,
    RepresentationPresentation,
    basis_vec,
    contraction_family,
    int_tensor,
    maps_from_terms,
    require_passed,
    run_identity_families,
)
from homstruct.matched_pairs import MatchedPairData, build_double, check_matched_pair


def dual_map(f):
    """The induced map on the dual space in the dual basis."""
    return f.transpose()


def coadjoint_actions(alg, beta=None):
    """The algebra acting on its dual space by transposed multiplications.

    The s-slot action of x is -S(x)^T while the rho-slot action is +ad(x)^T
    (the two conventions deliberately differ), with module twist alpha^T
    unless beta is given.
    """
    n = alg.dim
    t = {"dot": int_tensor(alg.op("dot")), "br": int_tensor(alg.op("bracket"))}
    # S(x)^T[r][c] = (x.e_r)_c and ad(x)^T[r][c] = {x, e_r}_c
    s = maps_from_terms((n, n, n), ((-1, "xrc->xrc", ("dot",)),), t)
    rho = maps_from_terms((n, n, n), ((1, "xrc->xrc", ("br",)),), t)
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
        require_passed(check_class(alg, "transposed-hom-poisson"),
                       "%s is not a transposed Hom-Poisson algebra" % tag)
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
    """B(x op y, alpha(z)) = B(alpha(x), y op z) for every present op.

    The form's entries are checked for parameters up front.
    """
    a.require_bound()
    if form.dim != a.dim:
        raise DimensionError("form dimension mismatch")
    n = a.dim
    t = {"alpha": int_tensor(a.alpha), "B": int_tensor(form.B)}
    t.update((name, int_tensor(a.op(name))) for name in sorted(a.ops))
    return run_identity_families(n, [contraction_family(
        "invariance:%s" % name, (3, (), (
            (1, "ijr,rs,sk->ijk", (name, "B", "alpha")),
            (-1, "ri,rs,jks->ijk", ("alpha", "B", name)))), t, n)
        for name in sorted(a.ops)], max_witnesses)


def _block_closure_report(double, a, a_star, max_witnesses=32):
    """The two summands must be subalgebras of the double restricting to the
    given products: the double's product of two basis vectors of one block
    is the summand's product, lifted into that block."""
    n = a.dim
    fams = []
    for (alg, off, tag) in ((a, 0, "a"), (a_star, n, "b")):
        inclusion = LinearMap.from_columns([basis_vec(2 * n, off + r) for r in range(n)])
        fams += _morphism_families(alg, double, inclusion, ("dot", "bracket"),
                                   "block-%s:%%s" % tag, sign=-1)[1]
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
    form, n = standard_form(a.dim), a.dim
    assert form.is_symmetric() and form.is_nondegenerate()
    assert not any(form.B.m[o + i][o + j] for o in (0, n) for i in range(n) for j in range(n))
    subs = {
        "double-transposed": check_class(double, "transposed-hom-poisson",
                                         max_witnesses),
        "blocks": _block_closure_report(double, a, a_star, max_witnesses),
        "invariant-form": check_invariant_form(double, form, max_witnesses),
    }
    return CheckReport(
        checked=sum(sub.checked for sub in subs.values()),
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


def tensor_map(f, g):
    """Kronecker product acting on lexicographic tensor coordinates."""
    rows = []
    for r1 in range(f.rows):
        for r2 in range(g.rows):
            rows.append([f.m[r1][c1] * g.m[r2][c2]
                         for c1 in range(f.cols) for c2 in range(g.cols)])
    return LinearMap.from_rows(rows)


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

    t = {"alpha": int_tensor(a.alpha), "dot": int_tensor(a.op("dot")),
         "br": int_tensor(a.op("bracket")),
         "Dd": IntTensor((n,) * 3, coops["dot"]), "Db": IntTensor((n,) * 3, coops["bracket"])}
    # e_i (x) e_j coordinates: p, q (and r); S(x) = x.-, ad(x) = {x,-}
    out = (n, n)
    rows = {
        # delta({x,y}) - (ad(x) (x) a + a (x) ad(x)) delta(y) + (x <-> y)
        "bracket-coop-cocycle": (2, out, (
            (1, "ijr,rpq->ijpq", ("br", "Db")),
            (-1, "iap,qb,jab->ijpq", ("br", "alpha", "Db")),
            (-1, "pa,ibq,jab->ijpq", ("alpha", "br", "Db")),
            (1, "jap,qb,iab->ijpq", ("br", "alpha", "Db")),
            (1, "pa,jbq,iab->ijpq", ("alpha", "br", "Db")))),
        # Delta(x.y) - (S(a(x)) (x) a) Delta(y) - (a (x) S(a(y))) Delta(x)
        "dot-coop-infinitesimal": (2, out, (
            (1, "ijr,rpq->ijpq", ("dot", "Dd")),
            (-1, "xi,xap,qb,jab->ijpq", ("alpha", "dot", "alpha", "Dd")),
            (-1, "pa,xj,xbq,iab->ijpq", ("alpha", "alpha", "dot", "Dd")))),
        # (a (x) Delta) delta(x) - (delta (x) a) Delta(x)
        #   - (tau (x) id)(a (x) delta) Delta(x)
        "triple-tensor": (1, (n, n, n), (
            (1, "iab,pa,bqr->ipqr", ("Db", "alpha", "Dd")),
            (-1, "iab,apq,rb->ipqr", ("Dd", "Db", "alpha")),
            (-1, "iab,qa,bpr->ipqr", ("Dd", "alpha", "Db")))),
        # delta(x.y) - (S(a(y)) (x) a) delta(x) - (S(a(x)) (x) a) delta(y)
        #   + (a (x) ad(x)) Delta(y) + (a (x) ad(y)) Delta(x)
        "mixed-dot-cobracket": (2, out, (
            (1, "ijr,rpq->ijpq", ("dot", "Db")),
            (-1, "xj,xap,qb,iab->ijpq", ("alpha", "dot", "alpha", "Db")),
            (-1, "xi,xap,qb,jab->ijpq", ("alpha", "dot", "alpha", "Db")),
            (1, "pa,ibq,jab->ijpq", ("alpha", "br", "Dd")),
            (1, "pa,jbq,iab->ijpq", ("alpha", "br", "Dd")))),
        # Delta({x,y}) - (ad(a(x)) (x) a + a (x) ad(a(x))) Delta(y)
        #   - (S(a(y)) (x) a - a (x) S(a(y))) delta(x)
        "mixed-bracket-coproduct": (2, out, (
            (1, "ijr,rpq->ijpq", ("br", "Dd")),
            (-1, "xi,xap,qb,jab->ijpq", ("alpha", "br", "alpha", "Dd")),
            (-1, "pa,xi,xbq,jab->ijpq", ("alpha", "alpha", "br", "Dd")),
            (-1, "xj,xap,qb,iab->ijpq", ("alpha", "dot", "alpha", "Db")),
            (1, "pa,xj,xbq,iab->ijpq", ("alpha", "alpha", "dot", "Db")))),
    }
    fams = [contraction_family(ident, row, t, n) for ident, row in rows.items()]
    return run_identity_families(
        n, fams, max_witnesses, sub_reports=subs,
        notes=("mixed-bracket-coproduct groups the twisted multiplication "
               "terms as a single operator difference acting on the "
               "cobracket",))


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
