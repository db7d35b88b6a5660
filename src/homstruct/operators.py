"""O-operators, Rota-Baxter operators, their induced products, and the exact
linear solver for derivation spaces."""

from __future__ import annotations

import math
from fractions import Fraction

from homstruct.axioms import (
    CLASS_OPS,
    _derivation_families,
    check_class,
    check_morphism,
    resolve_class,
)
from homstruct.constructions import sub_adjacent
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
from homstruct.representations import CROSS_ACTIONS, _report, _tensors, regular_representation

O_OPERATOR_CLASSES = ("comm-hom-assoc", "hom-lie", "transposed-hom-poisson")
_TRANSPOSED = "transposed-hom-poisson"


def _o_class(class_name):
    """The resolved class name; PreconditionError for one without O-operators."""
    class_name = resolve_class(class_name)
    if class_name not in O_OPERATOR_CLASSES:
        raise PreconditionError("no O-operator notion for class %s" % class_name)
    return class_name


def check_o_operator(a, rep, T, class_name, max_witnesses=32):
    """T: V -> A is an O-operator when alpha T = T beta and the class's
    functional equation holds on all module basis pairs.

    comm:       T(u).T(v) = T(s(T(u))v + s(T(v))u)
    hom-lie:    [T(u),T(v)] = T(rho(T(u))v - rho(T(v))u)
    transposed: both.
    """
    class_name = _o_class(class_name)
    if T.rows != a.dim or T.cols != rep.module_dim:
        raise DimensionError("T must map the module space into the algebra")
    a.require_bound()
    rep.require_bound()
    T.require_bound()
    # the module gate's tensors hold alpha, the ops, the actions and beta
    t = _tensors(a, rep, class_name)
    require_passed(_report(t, class_name, max_witnesses),
                   "actions fail the %s module axioms" % class_name)
    t["T"] = int_tensor(T)
    fams = [contraction_family("twist-intertwine", (1, (
        (1, "or,ri->io", ("alpha", "T")),
        (-1, "or,ri->io", ("T", "beta")))), t)]
    for name in CLASS_OPS[class_name]:
        # T(u) op T(v) - T(op(T(u), v) + op(u, T(v))), the cross products
        # read through CROSS_ACTIONS: T(left(T(u))v + sign right(T(v))u)
        left, right, sign = CROSS_ACTIONS[name]
        fams.append(contraction_family("o-equation:%s" % name, (2, (
            (1, "ai,bj,abo->ijo", ("T", "T", name)),
            (-1, "xi,xmj,om->ijo", ("T", left, "T")),
            (-sign, "xj,xmi,om->ijo", ("T", right, "T")))), t))
    return run_identity_families(rep.module_dim, fams, max_witnesses)


def check_rota_baxter(a, R, class_name, max_witnesses=32):
    """Rota-Baxter operator: an O-operator with respect to the algebra acting
    on itself by its own multiplications."""
    class_name = _o_class(class_name)
    rep = regular_representation(a, class_name)
    return check_o_operator(a, rep, R, class_name, max_witnesses)


def induced_products(a, rep, T, class_name=_TRANSPOSED, max_witnesses=32):
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
    return _induced(rep, T, class_name)


def _induced(rep, T, class_name, basis=()):
    """induced_products' structure, for an O-operator T of the class."""
    p = rep.module_dim
    t = {"T": int_tensor(T)}
    ops = {}
    if "dot" in CLASS_OPS[class_name]:
        t["s"] = int_tensor(rep.action("s"))
        ops["dot"] = bilinear_from_terms((
            (1, "xi,xkj->ijk", ("T", "s")),
            (1, "xj,xki->ijk", ("T", "s"))), t)
    if "bracket" in CLASS_OPS[class_name]:
        t["rho"] = int_tensor(rep.action("rho"))
        ops["star"] = bilinear_from_terms(((1, "xi,xkj->ijk", ("T", "rho")),), t)
    return AlgebraPresentation(p, ops, {"alpha": rep.beta}, basis)


def o_operator_is_morphism(a, rep, T, class_name=_TRANSPOSED, max_witnesses=32):
    """The paper's statement that an O-operator T is a morphism from the
    sub-adjacent structure of `induced_products` to a: `check_morphism` of
    T from that sub-adjacent algebra (for the comm class, which has no
    star, the induced algebra itself) to a.
    """
    induced = induced_products(a, rep, T, class_name, max_witnesses)
    if "star" in induced.ops:
        induced = sub_adjacent(induced)
    return check_morphism(induced, a, T, max_witnesses=max_witnesses)


def compatible_pre_lie_from_invertible(a, rep, T):
    """The paper's statement that a transposed Hom-Poisson algebra with an
    invertible O-operator has a compatible Hom-pre-Lie Poisson structure:
    `induced_products`' structure on V carried to A along T, each product
    x o y = T(T'x o T'y) with T' the inverse of T.

    It is Hom-pre-Lie Poisson because the induced structure is.  Its
    sub-adjacent dot and bracket are a's: at u = T'x and v = T'y they are
    the o-equation rows of the gate.
    """
    if T.rows != T.cols:
        raise PreconditionError("T must be square")
    try:
        Ti = T.inverse()
    except DimensionError:
        raise PreconditionError("T must be invertible") from None
    induced = induced_products(a, rep, T, _TRANSPOSED)
    t = {"T": int_tensor(T), "Ti": int_tensor(Ti)}
    t.update((name, int_tensor(op)) for name, op in induced.ops.items())
    ops = {name: bilinear_from_terms(((1, "ai,bj,abr,or->ijo", ("Ti", "Ti", name, "T")),), t)
           for name in induced.ops}
    return AlgebraPresentation(a.dim, ops, {"alpha": a.alpha}, a.basis)


def rota_baxter_induced(a, R):
    """Products induced by a Rota-Baxter operator on a transposed algebra:
    `induced_products` of R on the regular module, x (dot) y = R(x).y +
    R(y).x and x (star) y = {R(x), y}.  The regular module reads x.R(y) as
    R(y).x, so the theorem needs a to be transposed Hom-Poisson
    (PreconditionError if it is not).  The sub-adjacent structure is
    transposed Hom-Poisson and R is a morphism from it to a.
    """
    require_passed(check_rota_baxter(a, R, _TRANSPOSED),
                   "R is not a Rota-Baxter operator")
    require_passed(check_class(a, _TRANSPOSED), "input is not in class %s" % _TRANSPOSED)
    return _induced(regular_representation(a, _TRANSPOSED), R, _TRANSPOSED, a.basis)


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
    rows = [vec[o::n] for _, _, table in _derivation_families(op_name, t)
            for vec in table()[1].values() for o in range(n)]
    return [LinearMap.from_rows([v[r * n:(r + 1) * n] for r in range(n)])
            for v in nullspace_basis(_distinct_rows(rows), width)]
