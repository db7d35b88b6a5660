"""O-operators, Rota-Baxter operators, their induced products, and the exact
linear solver for derivation spaces."""

from __future__ import annotations

import math
from fractions import Fraction

from homstruct.axioms import (
    CLASS_OPS,
    _morphism_families,
    check_class,
    check_morphism,
    resolve_class,
)
from homstruct.core import (
    AlgebraPresentation,
    ConstructionError,
    DimensionError,
    LinearMap,
    MissingOperationError,
    PreconditionError,
    bilinear_from_terms,
    contract,
    contraction_family,
    fraction_free_rref,
    int_tensor,
    require_closure,
    require_passed,
    run_identity_families,
)
from homstruct.representations import check_rep, regular_representation

ZERO = Fraction(0)
ONE = Fraction(1)

O_OPERATOR_CLASSES = ("comm-hom-assoc", "hom-lie", "transposed-hom-poisson")


def _check_shapes(a, rep, T):
    if T.rows != a.dim or T.cols != rep.module_dim:
        raise DimensionError("T must map the module space into the algebra")
    if rep.algebra_dim != a.dim:
        raise DimensionError("representation is over a different algebra")


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
    _check_shapes(a, rep, T)
    a.require_bound()
    rep.require_bound()
    T.require_bound()
    require_passed(check_rep(a, rep, class_name, max_witnesses),
                   "actions fail the %s module axioms" % class_name)
    t, fams = _o_families(a, rep, T)
    for name, act in (("dot", "s"), ("bracket", "rho")):
        if name in CLASS_OPS[class_name]:
            # T(u) op T(v) - T(act(T(u))v + act(T(v))u), with - for the bracket
            t[name], t[act] = int_tensor(a.op(name)), int_tensor(rep.action(act))
            fams.append(contraction_family("o-equation:%s" % name, (2, (a.dim,), (
                (1, "ai,bj,abo->ijo", ("T", "T", name)),
                (-1, "xi,xmj,om->ijo", ("T", act, "T")),
                (1 if act == "rho" else -1, "xj,xmi,om->ijo", ("T", act, "T")))),
                t, rep.module_dim))
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
    if R.rows != a.dim or R.cols != a.dim:
        raise DimensionError("R must be square of the algebra dimension")
    rep = regular_representation(a, class_name)
    return check_o_operator(a, rep, R, class_name, max_witnesses)


def induced_products(a, rep, T, class_name="transposed-hom-poisson",
                     max_witnesses=32):
    """The products on the module space defined by an O-operator.

    u (dot) v = s(T(u))v + s(T(v))u and u (star) v = rho(T(u))v, with the
    module twist as the twist of the result.  For the transposed class the
    output is a Hom-pre-Lie Poisson presentation; the comm class yields only
    the dot and the Hom-Lie class only the star (a Hom-pre-Lie product).
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
    out = AlgebraPresentation(p, ops, {"alpha": rep.beta})
    target = {"comm-hom-assoc": "comm-hom-assoc",
              "hom-lie": "hom-pre-lie",
              "transposed-hom-poisson": "hom-pre-lie-poisson"}[class_name]
    require_closure(check_class(out, target),
                    "induced products failed the %s checker" % target)
    return out


def o_operator_is_morphism(a, rep, T, class_name="transposed-hom-poisson",
                           max_witnesses=32):
    """T maps the induced structure on V onto a's structure.

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


def compatible_pre_lie_from_invertible(a, rep, T, max_witnesses=32):
    """The Hom-pre-Lie Poisson structure on A carried over an invertible
    O-operator: x.y = T(s(x)T'(y) + s(y)T'(x)) and x*y = T(rho(x)T'(y))
    with T' the inverse of T.

    The sub-adjacent structure reproduces a's dot and bracket exactly.
    """
    if T.rows != T.cols:
        raise PreconditionError("T must be square")
    if T.det() == 0:
        raise PreconditionError("T must be invertible")
    require_passed(check_o_operator(a, rep, T, "transposed-hom-poisson", max_witnesses),
                   "T is not an O-operator")
    n = a.dim
    t = {"T": int_tensor(T), "Ti": int_tensor(T.inverse()),
         "s": int_tensor(rep.action("s")), "rho": int_tensor(rep.action("rho"))}
    dot = bilinear_from_terms(n, (
        (1, "om,imb,bj->ijo", ("T", "s", "Ti")),
        (1, "om,jmb,bi->ijo", ("T", "s", "Ti"))), t)
    star_terms = ((1, "om,imb,bj->ijo", ("T", "rho", "Ti")),)
    star = bilinear_from_terms(n, star_terms, t)
    out = AlgebraPresentation(n, {"dot": dot, "star": star},
                              {"alpha": a.alpha}, a.basis)
    require_closure(check_class(out, "hom-pre-lie-poisson"),
                    "compatible structure failed the pre-Lie Poisson checker")
    commutator = bilinear_from_terms(n, star_terms + (
        (-1, "om,jmb,bi->ijo", ("T", "rho", "Ti")),), t)
    if dot != a.op("dot") or commutator != a.op("bracket"):
        raise ConstructionError(
            "sub-adjacent structure does not reproduce the input tables")
    return out


def rota_baxter_induced(a, R, max_witnesses=32):
    """Products induced by a Rota-Baxter operator on a transposed algebra:
    x (dot) y = R(x).y + x.R(y) and x (star) y = {R(x), y}.

    The sub-adjacent structure is transposed Hom-Poisson and R is a morphism
    from it to a; both facts are verified.
    """
    require_passed(check_rota_baxter(a, R, "transposed-hom-poisson", max_witnesses),
                   "R is not a Rota-Baxter operator")
    n = a.dim
    t = {"R": int_tensor(R), "dot": int_tensor(a.op("dot")), "br": int_tensor(a.op("bracket"))}
    dot = bilinear_from_terms(n, (
        (1, "ri,rjk->ijk", ("R", "dot")),
        (1, "rj,irk->ijk", ("R", "dot"))), t)
    star_terms = ((1, "ri,rjk->ijk", ("R", "br")),)
    star = bilinear_from_terms(n, star_terms, t)
    out = AlgebraPresentation(n, {"dot": dot, "star": star},
                              {"alpha": a.alpha}, a.basis)
    bracket = bilinear_from_terms(n, star_terms + ((-1, "rj,rik->ijk", ("R", "br")),), t)
    sub = AlgebraPresentation(n, {"dot": dot, "bracket": bracket},
                              {"alpha": a.alpha}, a.basis)
    require_closure(check_class(sub, "transposed-hom-poisson"),
                    "sub-adjacent of the induced structure failed the transposed checker")
    morph = check_morphism(sub, a, R)
    if not morph.passed:
        raise ConstructionError(
            "R is not a morphism from the induced sub-adjacent structure")
    return out


# ---------------------------------------------------------------------------
# derivation spaces by exact elimination

def nullspace_basis(rows, width):
    """Canonical basis of the solution space of rows . v = 0.

    The rows (ints or Fractions) are reduced by core.fraction_free_rref, so
    the elimination runs on integers and divides by the pivots only here.
    Free variables are set to 1 one at a time in lexicographic order; the
    resulting basis is itself in reduced echelon form.
    """
    reduced, pivots, _ = fraction_free_rref(rows, width)
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

    Solves the Leibniz system D(e_i op e_j) = D(e_i) op e_j + e_i op D(e_j)
    over the n^2 matrix unknowns, together with g D = D g for the map g that
    `commuting_with` names (pass None to drop the constraint).  The system
    is built on the integer tables of the op and of g (each scaled by the
    lcm of its denominators, which leaves the solutions unchanged), with
    zero and repeated rows dropped, and solved by nullspace_basis.  Returns
    a deterministic reduced-echelon list of LinearMaps, all of which are
    checked in one contraction over the stacked basis.
    """
    if op_name not in a.ops:
        raise MissingOperationError("op %r is missing" % op_name)
    a.require_bound()
    n = a.dim
    t = {"op": int_tensor(a.op(op_name))}
    c = t["op"].dense()
    width = n * n  # unknown D[r][col] at index r*n + col
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [0] * width
                # D(e_i op e_j)_k
                row[k * n:(k + 1) * n] = c[i][j]
                # -(D(e_i) op e_j)_k - (e_i op D(e_j))_k
                for r in range(n):
                    row[r * n + i] -= c[r][j][k]
                    row[r * n + j] -= c[i][r][k]
                rows.append(row)
    if commuting_with is not None:
        f = a.map(commuting_with)
        if (f.rows, f.cols) != (n, n):
            raise DimensionError("map %r is %dx%d, expected %dx%d"
                                 % (commuting_with, f.rows, f.cols, n, n))
        t["g"] = int_tensor(f)
        g = t["g"].dense()
        for r in range(n):
            for col in range(n):
                row = [0] * width
                # (g D - D g)[r][col]
                for m in range(n):
                    row[m * n + col] += g[r][m]
                    row[r * n + m] -= g[m][col]
                rows.append(row)
    out = [LinearMap.from_rows([v[r * n:(r + 1) * n] for r in range(n)])
           for v in nullspace_basis(_distinct_rows(rows), width)]
    if out:
        k, t["D"] = len(out), int_tensor(out)
        wrong = contract((k, n, n, n), (
            (1, "ijr,bor->bijo", ("op", "D")),
            (-1, "bri,rjo->bijo", ("D", "op")),
            (-1, "brj,iro->bijo", ("D", "op"))), t)
        if commuting_with is not None:
            wrong = wrong or contract((k, n, n), (
                (1, "or,bri->bio", ("g", "D")),
                (-1, "bor,ri->bio", ("D", "g"))), t)
        if wrong:
            raise ConstructionError("solver returned a non-derivation")
    return out
