"""Dual-space constructions: coadjoint doubles, invariant forms, bialgebra
conditions and their equivalence.

Everything lives on the dual of the presentation space with the dual basis,
so dual maps are plain transposes and a comultiplication is the product on
the dual space whose transpose it is (`core.parse_comultiplications` reads
a comultiplication document so).  Tensor elements are lexicographic
coefficient vectors of length dim^2 (or dim^3 for the triple-tensor
identity).
"""

from __future__ import annotations

from homstruct.axioms import check_class
from homstruct.core import (
    CheckReport,
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
from homstruct.matched_pairs import (
    MatchedPairData,
    _matched_pair_report,
    block_swap_map,
    build_double,
    zero_algebra,
)

_TRANSPOSED = "transposed-hom-poisson"


def trivial_dual(a):
    """The dual space with zero products and twist alpha^T, A*'s twist in
    the CLI's `bialgebra`."""
    return zero_algebra(a.dim, a.alpha.transpose(), ("dot", "bracket"))


def _require_same_dim(a, a_star):
    if a_star.dim != a.dim:
        raise DimensionError("dual algebra must have the same dimension")


def coadjoint_matched_pair(a, a_star):
    """Matched-pair data for (A, A*) with the mutual coadjoint actions.

    Each algebra acts on the other's space by the transposed regular
    actions s(x) = S(x)^T and rho(x) = ad(x)^T, with the other algebra's
    twist as module twist; these enter the double's products as they are.
    """
    _require_same_dim(a, a_star)
    n = a.dim

    def coadjoint(alg, beta):
        t = {op: int_tensor(alg.op(op)) for op in ("dot", "bracket")}
        # S(x)^T[r][c] = (x.e_r)_c and ad(x)^T[r][c] = {x, e_r}_c
        actions = {act: maps_from_terms(((1, "xrc->xrc", (op,)),), t)
                   for act, op in (("s", "dot"), ("rho", "bracket"))}
        return RepresentationPresentation(n, n, actions, beta)

    return MatchedPairData(a, a_star, coadjoint(a, a_star.alpha), coadjoint(a_star, a.alpha))


def _require_transposed(tag, alg):
    require_passed(check_class(alg, _TRANSPOSED),
                   "%s is not a transposed Hom-Poisson algebra" % tag)


def check_invariant_form(a, B, max_witnesses=32):
    """B(x op y, alpha(z)) = B(alpha(x), y op z) for every present op, with
    B the form's Gram matrix B[r][c] = <e_r, e_c>.

    The form's entries are checked for parameters up front.
    """
    a.require_bound()
    if (B.rows, B.cols) != (a.dim, a.dim):
        raise DimensionError("form dimension mismatch")
    t = {"alpha": int_tensor(a.alpha), "B": int_tensor(B)}
    t.update((name, int_tensor(a.op(name))) for name in sorted(a.ops))
    return run_identity_families(a.dim, [contraction_family(
        "invariance:%s" % name, (3, (
            (1, "ijr,rs,sk->ijk", (name, "B", "alpha")),
            (-1, "ri,rs,jks->ijk", ("alpha", "B", name)))), t)
        for name in sorted(a.ops)], max_witnesses)


def check_manin_triple(a, a_star, max_witnesses=32):
    """(A (+) A*, A, A*) with the standard pairing.

    Both inputs must pass the transposed Hom-Poisson checker.  Passes when
    the double of `coadjoint_matched_pair` (cross products the transposed
    multiplication operators of both sides, twist alpha (+) alpha_star)
    satisfies the transposed Hom-Poisson axioms and the standard pairing is
    invariant for both products of the double.  Both summands are
    subalgebras restricting to the given products by construction:
    `build_double` writes each summand's products into its own block and
    every action entry into a cross block (tests/test_closure.py pins this).
    """
    a.require_bound()
    a_star.require_bound()
    _require_same_dim(a, a_star)
    for tag, alg in (("a", a), ("a_star", a_star)):
        _require_transposed(tag, alg)
    double = build_double(coadjoint_matched_pair(a, a_star), _TRANSPOSED, check_actions=False)
    return _manin_report(double, check_class(double, _TRANSPOSED, max_witnesses), max_witnesses)


def _manin_report(double, double_report, max_witnesses):
    """`check_manin_triple`'s report on the built coadjoint `double`, whose
    class report a caller that already holds it passes in."""
    n = double.dim // 2
    subs = {
        "double-transposed": double_report,
        # the standard pairing <x + f, y + g> = f(y) + g(x) swaps the two blocks
        "invariant-form": check_invariant_form(double, block_swap_map(n, n), max_witnesses),
    }
    return CheckReport(
        checked=sum(sub.checked for sub in subs.values()),
        sub_reports=subs,
        notes=("standard pairing symmetry, nondegeneracy and isotropy of "
               "both blocks hold by construction",
               "both summands are subalgebras of the double by construction",))


# ---------------------------------------------------------------------------
# bialgebras

# check_bialgebra_conditions' rows over the tensors of A's alpha, "dot" and
# "br" (its bracket) and A*'s "Dd" and "Db" (its dot and bracket).
# e_i (x) e_j coordinates: p, q (and r); S(x) = x.-, ad(x) = {x,-};
# Dd[p][q][r] is the e_p (x) e_q coefficient of Delta(e_r)
BIALGEBRA_IDENTITIES = {
    # delta({x,y}) - (ad(x) (x) a + a (x) ad(x)) delta(y) + (x <-> y)
    "bracket-coop-cocycle": (2, (
        (1, "ijr,pqr->ijpq", ("br", "Db")),
        (-1, "iap,qb,abj->ijpq", ("br", "alpha", "Db")),
        (-1, "pa,ibq,abj->ijpq", ("alpha", "br", "Db")),
        (1, "jap,qb,abi->ijpq", ("br", "alpha", "Db")),
        (1, "pa,jbq,abi->ijpq", ("alpha", "br", "Db")))),
    # Delta(x.y) - (S(a(x)) (x) a) Delta(y) - (a (x) S(a(y))) Delta(x)
    "dot-coop-infinitesimal": (2, (
        (1, "ijr,pqr->ijpq", ("dot", "Dd")),
        (-1, "xi,xap,qb,abj->ijpq", ("alpha", "dot", "alpha", "Dd")),
        (-1, "pa,xj,xbq,abi->ijpq", ("alpha", "alpha", "dot", "Dd")))),
    # (a (x) Delta) delta(x) - (delta (x) a) Delta(x)
    #   - (tau (x) id)(a (x) delta) Delta(x)
    "triple-tensor": (1, (
        (1, "abi,pa,qrb->ipqr", ("Db", "alpha", "Dd")),
        (-1, "abi,pqa,rb->ipqr", ("Dd", "Db", "alpha")),
        (-1, "abi,qa,prb->ipqr", ("Dd", "alpha", "Db")))),
    # delta(x.y) - (S(a(y)) (x) a) delta(x) - (S(a(x)) (x) a) delta(y)
    #   + (a (x) ad(x)) Delta(y) + (a (x) ad(y)) Delta(x)
    "mixed-dot-cobracket": (2, (
        (1, "ijr,pqr->ijpq", ("dot", "Db")),
        (-1, "xj,xap,qb,abi->ijpq", ("alpha", "dot", "alpha", "Db")),
        (-1, "xi,xap,qb,abj->ijpq", ("alpha", "dot", "alpha", "Db")),
        (1, "pa,ibq,abj->ijpq", ("alpha", "br", "Dd")),
        (1, "pa,jbq,abi->ijpq", ("alpha", "br", "Dd")))),
    # Delta({x,y}) - (ad(a(x)) (x) a + a (x) ad(a(x))) Delta(y)
    #   - (S(a(y)) (x) a - a (x) S(a(y))) delta(x)
    "mixed-bracket-coproduct": (2, (
        (1, "ijr,pqr->ijpq", ("br", "Dd")),
        (-1, "xi,xap,qb,abj->ijpq", ("alpha", "br", "alpha", "Dd")),
        (-1, "pa,xi,xbq,abj->ijpq", ("alpha", "alpha", "br", "Dd")),
        (-1, "xj,xap,qb,abi->ijpq", ("alpha", "dot", "alpha", "Db")),
        (1, "pa,xj,xbq,abi->ijpq", ("alpha", "alpha", "dot", "Db")))),
}


def check_bialgebra_conditions(a, a_star, max_witnesses=32):
    """Compatibility of a transposed Hom-Poisson algebra with a cocommutative
    coassociative comultiplication ("dot") and a Lie comultiplication
    ("bracket").

    a_star is the dual algebra A*: its "dot" and "bracket" are the products
    on the dual space that the comultiplications are the transposes of, the
    dual product entry (j, k, i, c) being the comultiplication's e_j (x) e_k
    coefficient c in the image of e_i, as `core.parse_comultiplications`
    reads it.

    Gates (sub_reports): the algebra passes the transposed checker and each
    dual product passes its own class checker on A*, twisted by A*'s twist.
    The verdict also requires the five compatibility families.
    """
    a.require_bound()
    _require_same_dim(a, a_star)
    if set(a_star.ops) != {"dot", "bracket"}:
        raise PreconditionError('coops must provide "dot" and "bracket"')
    subs = {
        "algebra-transposed": check_class(a, _TRANSPOSED, max_witnesses),
        "dual-dot-comm-assoc": check_class(a_star, "comm-hom-assoc", max_witnesses),
        "dual-bracket-hom-lie": check_class(a_star, "hom-lie", max_witnesses),
    }
    t = {"alpha": int_tensor(a.alpha), "dot": int_tensor(a.op("dot")),
         "br": int_tensor(a.op("bracket")),
         "Dd": int_tensor(a_star.op("dot")), "Db": int_tensor(a_star.op("bracket"))}
    fams = [contraction_family(ident, row, t) for ident, row in BIALGEBRA_IDENTITIES.items()]
    return run_identity_families(
        a.dim, fams, max_witnesses, sub_reports=subs,
        notes=("mixed-bracket-coproduct groups the twisted multiplication "
               "terms as a single operator difference acting on the "
               "cobracket",))


def equivalence_report(a, a_star, max_witnesses=32):
    """The bialgebra, matched-pair and Manin-triple verdicts for (A, A*).

    The reports are those of `check_bialgebra_conditions`,
    `check_matched_pair` on `coadjoint_matched_pair` and
    `check_manin_triple`, with the raises in that order.  The coadjoint
    double is built and class-checked once: that one report is the
    matched-pair report's "double" and the Manin report's
    "double-transposed".  The Manin gate on `a` reads the bialgebra
    report's "algebra-transposed" verdict.  The three verdicts must agree;
    a disagreement raises ConstructionError.  Returns a dict with the three
    reports and the shared verdict.
    """
    a.require_bound()
    a_star.require_bound()
    bial = check_bialgebra_conditions(a, a_star, max_witnesses)
    pair = coadjoint_matched_pair(a, a_star)
    double = build_double(pair, _TRANSPOSED, check_actions=False)
    double_report = check_class(double, _TRANSPOSED, max_witnesses)
    mp = _matched_pair_report(pair, _TRANSPOSED, double_report, max_witnesses)
    if not bial.sub_reports["algebra-transposed"].passed:
        # the error carries the default-cap report, as check_manin_triple's
        _require_transposed("a", a)
    _require_transposed("a_star", a_star)
    manin = _manin_report(double, double_report, max_witnesses)
    verdicts = (bial.passed, mp.passed, manin.passed)
    if len(set(verdicts)) != 1:
        raise ConstructionError(
            "equivalence broken: bialgebra=%s matched_pair=%s manin=%s"
            % verdicts)
    return {"verdict": verdicts[0], "bialgebra": bial, "matched_pair": mp,
            "manin": manin}
