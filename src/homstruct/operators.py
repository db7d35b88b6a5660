"""O-operators, Rota-Baxter operators, their induced products, and the exact
linear solver for derivation spaces."""

from __future__ import annotations

import math
from fractions import Fraction

from homstruct.axioms import (
    CLASS_OPS,
    _derivation_families,
    _morphism_families,
    resolve_class,
)
from homstruct.core import (
    ONE,
    ZERO,
    AlgebraPresentation,
    DimensionError,
    IntTensor,
    LinearMap,
    MissingOperationError,
    PreconditionError,
    bilinear_from_terms,
    contraction_family,
    fraction_free_rref,
    int_tensor,
    require_passed,
    run_identity_families,
)
from homstruct.representations import CROSS_ACTIONS, check_rep, regular_representation

O_OPERATOR_CLASSES = ("comm-hom-assoc", "hom-lie", "transposed-hom-poisson")


def check_o_operator(a, rep, T, class_name, max_witnesses=32):
    """T: V -> A is an O-operator when alpha T = T beta and the class's
    functional equation holds on all module basis pairs.

    comm:       T(u).T(v) = T(s(T(u))v + s(T(v))u)
    hom-lie:    [T(u),T(v)] = T(rho(T(u))v - rho(T(v))u)
    transposed: both.
    """
    class_name = resolve_class(class_name)
    if class_name not in O_OPERATOR_CLASSES:
        raise PreconditionError("no O-operator notion for class %s" % class_name)
    if T.rows != a.dim or T.cols != rep.module_dim:
        raise DimensionError("T must map the module space into the algebra")
    a.require_bound()
    rep.require_bound()
    T.require_bound()
    require_passed(check_rep(a, rep, class_name, max_witnesses),
                   "actions fail the %s module axioms" % class_name)
    t, fams = _o_families(a, rep, T)
    for name in CLASS_OPS[class_name]:
        # T(u) op T(v) - T(op(T(u), v) + op(u, T(v))), the cross products
        # read through CROSS_ACTIONS: T(left(T(u))v + sign right(T(v))u)
        left, right, sign = CROSS_ACTIONS[name]
        t[name] = int_tensor(a.op(name))
        t.update((act, int_tensor(rep.action(act))) for act in dict.fromkeys((left, right)))
        fams.append(contraction_family("o-equation:%s" % name, (2, (a.dim,), (
            (1, "ai,bj,abo->ijo", ("T", "T", name)),
            (-1, "xi,xmj,om->ijo", ("T", left, "T")),
            (-sign, "xj,xmi,om->ijo", ("T", right, "T")))), t, rep.module_dim))
    return run_identity_families(rep.module_dim, fams, max_witnesses)


def _o_families(a, rep, T):
    """The tensors of an O-operator check and its family alpha T - T beta."""
    t = {"T": int_tensor(T), "alpha": int_tensor(a.alpha), "beta": int_tensor(rep.beta)}
    return t, [contraction_family("twist-intertwine", (1, (a.dim,), (
        (1, "or,ri->io", ("alpha", "T")),
        (-1, "or,ri->io", ("T", "beta")))), t, rep.module_dim)]


def check_rota_baxter(a, R, class_name, max_witnesses=32):
    """Rota-Baxter operator: an O-operator with respect to the algebra acting
    on itself by its own multiplications."""
    class_name = resolve_class(class_name)
    rep = regular_representation(a, class_name)
    return check_o_operator(a, rep, R, class_name, max_witnesses)


def induced_products(a, rep, T, class_name="transposed-hom-poisson",
                     max_witnesses=32):
    """The products on the module space defined by an O-operator.

    u (dot) v = s(T(u))v + s(T(v))u and u (star) v = rho(T(u))v, with the
    module twist as the twist of the result.  For the transposed class the
    output is a Hom-pre-Lie Poisson algebra; the comm class yields only the
    dot (a commutative Hom-associative algebra) and the Hom-Lie class only
    the star (a Hom-pre-Lie algebra).
    """
    class_name = resolve_class(class_name)
    require_passed(check_o_operator(a, rep, T, class_name, max_witnesses),
                   "T is not an O-operator")
    p = rep.module_dim
    t = {"T": int_tensor(T)}
    ops = {}
    if class_name in ("comm-hom-assoc", "transposed-hom-poisson"):
        t["s"] = int_tensor(rep.action("s"))
        ops["dot"] = bilinear_from_terms(p, (
            (1, "xi,xkj->ijk", ("T", "s")),
            (1, "xj,xki->ijk", ("T", "s"))), t)
    if class_name in ("hom-lie", "transposed-hom-poisson"):
        t["rho"] = int_tensor(rep.action("rho"))
        ops["star"] = bilinear_from_terms(p, ((1, "xi,xkj->ijk", ("T", "rho")),), t)
    return AlgebraPresentation(p, ops, {"alpha": rep.beta})


def o_operator_is_morphism(a, rep, T, class_name="transposed-hom-poisson",
                           max_witnesses=32):
    """T maps the induced structure on V onto a's structure: the paper's
    statement that an O-operator is a morphism from the sub-adjacent
    structure of `induced_products` to a.

    Checks T(u dot v) = T(u).T(v), T(u star v - v star u) = {T(u),T(v)} and
    T beta = alpha T.
    """
    class_name = resolve_class(class_name)
    induced = induced_products(a, rep, T, class_name, max_witnesses)
    t, fams = _o_families(a, rep, T)
    if "dot" in induced.ops:
        fams += _morphism_families(induced, a, T, ("dot",), "morphism:%s")[1]
    if "star" in induced.ops and "bracket" in a.ops:
        t["st"], t["br"] = int_tensor(induced.op("star")), int_tensor(a.op("bracket"))
        fams.append(contraction_family("morphism:commutator", (2, (a.dim,), (
            (1, "ijr,or->ijo", ("st", "T")),
            (-1, "jir,or->ijo", ("st", "T")),
            (-1, "ai,bj,abo->ijo", ("T", "T", "br")))), t, rep.module_dim))
    return run_identity_families(rep.module_dim, fams, max_witnesses)


def compatible_pre_lie_from_invertible(a, rep, T):
    """The Hom-pre-Lie Poisson structure on A carried over an invertible
    O-operator: x.y = T(s(x)T'(y) + s(y)T'(x)) and x*y = T(rho(x)T'(y))
    with T' the inverse of T.

    The paper's statement that a transposed Hom-Poisson algebra with an
    invertible O-operator has a compatible Hom-pre-Lie Poisson structure.
    It is induced_products' structure on V carried to A along T, so it is
    Hom-pre-Lie Poisson.  Its sub-adjacent dot and bracket are a's: at
    u = T'x and v = T'y they are the o-equation rows of the gate.
    """
    if T.rows != T.cols:
        raise PreconditionError("T must be square")
    try:
        Ti = T.inverse()
    except DimensionError:
        raise PreconditionError("T must be invertible") from None
    require_passed(check_o_operator(a, rep, T, "transposed-hom-poisson"), "T is not an O-operator")
    n = a.dim
    t = {"T": int_tensor(T), "Ti": int_tensor(Ti),
         "s": int_tensor(rep.action("s")), "rho": int_tensor(rep.action("rho"))}
    dot = bilinear_from_terms(n, (
        (1, "om,imb,bj->ijo", ("T", "s", "Ti")),
        (1, "om,jmb,bi->ijo", ("T", "s", "Ti"))), t)
    star = bilinear_from_terms(n, ((1, "om,imb,bj->ijo", ("T", "rho", "Ti")),), t)
    return AlgebraPresentation(n, {"dot": dot, "star": star}, {"alpha": a.alpha}, a.basis)


def rota_baxter_induced(a, R):
    """Products induced by a Rota-Baxter operator on a transposed algebra:
    x (dot) y = R(x).y + x.R(y) and x (star) y = {R(x), y}.

    The sub-adjacent structure is transposed Hom-Poisson and R is a morphism
    from it to a.
    """
    require_passed(check_rota_baxter(a, R, "transposed-hom-poisson"),
                   "R is not a Rota-Baxter operator")
    n = a.dim
    t = {"R": int_tensor(R), "dot": int_tensor(a.op("dot")), "br": int_tensor(a.op("bracket"))}
    dot = bilinear_from_terms(n, (
        (1, "ri,rjk->ijk", ("R", "dot")),
        (1, "rj,irk->ijk", ("R", "dot"))), t)
    star = bilinear_from_terms(n, ((1, "ri,rjk->ijk", ("R", "br")),), t)
    return AlgebraPresentation(n, {"dot": dot, "star": star}, {"alpha": a.alpha}, a.basis)


# ---------------------------------------------------------------------------
# derivation spaces by exact elimination

def nullspace_basis(rows, width):
    """Canonical basis of the solution space of rows . v = 0.

    The rows (ints or Fractions) are reduced by core.fraction_free_rref, so
    the elimination runs on integers and divides by the pivots only here.
    Free variables are set to 1 one at a time in lexicographic order; the
    resulting basis is itself in reduced echelon form.
    """
    reduced, pivots = fraction_free_rref(rows, width)
    pivot_set = set(pivots)
    basis = []
    for f in range(width):
        if f in pivot_set:
            continue
        v = [ZERO] * width
        v[f] = ONE
        for r, p in zip(reduced, pivots):
            if r[f]:
                v[p] = Fraction(-r[f], r[p])
        basis.append(tuple(v))
    return basis


def _distinct_rows(rows):
    """The distinct nonzero integer rows, each divided by its gcd and signed
    so that its first nonzero entry is positive."""
    out = {}
    for row in rows:
        g = math.gcd(*row)
        if g:
            if next(filter(None, row)) < 0:
                g = -g
            out.setdefault(tuple(row) if g == 1 else tuple([x // g for x in row]), None)
    return list(out)


def derivation_space(a, op_name, commuting_with="alpha"):
    """Basis of the space of derivations of the named op.

    The system is check_derivation's leibniz:<op> rows, together with the
    commutes-with-twist rows g D - D g for the map g that `commuting_with`
    names (pass None to drop them), evaluated at the n^2 unit matrices
    E_b, b = r*n + col: equation o of a row's residual has coefficient
    vec[b*n + o] on the unknown D[r][col].  Zero and repeated equations are
    dropped and the rest solved by nullspace_basis.  Returns a
    deterministic reduced-echelon list of LinearMaps.  The basis is not
    checked again: it solves the very rows a check would evaluate
    (tests/test_closure.py pins it).
    """
    if op_name not in a.ops:
        raise MissingOperationError("op %r is missing" % op_name)
    a.require_bound()
    n = a.dim
    t = {"op": int_tensor(a.op(op_name))}
    if commuting_with is not None:
        t["g"] = int_tensor(a.map(commuting_with))
    width = n * n
    t["D"] = IntTensor((width, n, n), ((b, b // n, b % n, ONE) for b in range(width)))
    rows = [vec[o::n] for _, _, table in _derivation_families(op_name, t, n)
            for vec in table()[1].values() for o in range(n)]
    return [LinearMap.from_rows([v[r * n:(r + 1) * n] for r in range(n)])
            for v in nullspace_basis(_distinct_rows(rows), width)]
