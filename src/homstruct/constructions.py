"""Builders that produce new algebras from old ones.

Every builder checks its hypotheses first, raising PreconditionError with
the failing report, and then builds.  What it builds is in the target class
by the paper's theorems (for the twists, Yau's twisting principle), so no
output is checked again; tests/test_closure.py pins each closure against
the independent per-tuple checker.
"""

from __future__ import annotations

from fractions import Fraction

from homstruct.axioms import (
    CLASS_OPS,
    check_class,
    check_derivation,
    check_morphism,
    check_multiplicative,
    resolve_class,
)
from homstruct.core import (
    MAX_DIM,
    MAX_TWIST_EXPONENT,
    ONE,
    AlgebraPresentation,
    DimensionError,
    IntTensor,
    PreconditionError,
    bilinear_from_terms,
    int_tensor,
    maps_from_terms,
    require_passed,
)


# the classes whose tensor products tensor_product builds
_TENSOR_CLASSES = ("comm-hom-assoc", "transposed-hom-poisson", "hom-pre-lie-poisson")


def _twist(a, g, alpha, class_name):
    """a in class_name with each class op replaced by g o op and twist alpha."""
    require_passed(check_class(a, class_name), "input is not in class %s" % class_name)
    return AlgebraPresentation(a.dim, _compose_ops(a, g, list(CLASS_OPS[class_name])),
                               dict(a.maps, alpha=alpha), a.basis)


def _compose_ops(a, g, op_names):
    """Replace each op by g o op."""
    t = {"g": int_tensor(g)}
    t.update((name, int_tensor(a.op(name))) for name in op_names)
    return {name: bilinear_from_terms(((1, "ijr,kr->ijk", (name, "g")),), t)
            for name in op_names}


def yau_twist(a, g, class_name):
    """Twist an untwisted algebra (alpha = id) by a self-morphism g.

    Output ops are g o op with twist g; the result lands in the Hom-class.
    """
    a.require_bound()
    if not a.alpha.is_identity():
        raise PreconditionError("yau_twist requires the identity twist on input")
    return compose_twist(a, g, class_name)


def compose_twist(a, g, class_name):
    """Twist an already-twisted algebra by a self-morphism g commuting with alpha.

    Output ops are g o op with twist alpha o g.  The morphism gate's
    intertwining row rejects a g that does not commute with alpha.
    """
    class_name = resolve_class(class_name)
    require_passed(check_morphism(a, a, g, op_names=CLASS_OPS[class_name]),
                   "g is not a morphism of the input algebra")
    return _twist(a, g, a.alpha @ g, class_name)


def derived_algebra(a, n, class_name, kind=1):
    """n-th derived algebra of a multiplicative algebra, n >= 1.

    kind 1: ops alpha^n o op, twist alpha^(n+1).
    kind 2: ops alpha^(2^n - 1) o op, twist alpha^(2^n).
    A twist exponent above core.MAX_TWIST_EXPONENT raises PreconditionError.
    """
    class_name = resolve_class(class_name)
    a.require_bound()
    if n < 1:
        raise PreconditionError("derived_algebra requires n >= 1")
    if kind not in (1, 2):
        raise PreconditionError("kind must be 1 or 2")
    # n + 1 or 2^n, compared through n so that 2^n is never formed for a large n
    if n >= (MAX_TWIST_EXPONENT if kind == 1 else MAX_TWIST_EXPONENT.bit_length()):
        raise PreconditionError("derived twist exponent exceeds %d" % MAX_TWIST_EXPONENT)
    require_passed(check_multiplicative(a),
                   "twist is not multiplicative for the algebra's ops")
    g = a.alpha.power(n if kind == 1 else 2 ** n - 1)
    return _twist(a, g, g @ a.alpha, class_name)


def alpha_h_twist(a, h):
    """Twist a transposed Poisson algebra (alpha = id) by alpha_h(x) = h.x.

    The ops are kept; only the twist changes, and the result is transposed
    Hom-Poisson.  h is a coefficient vector.
    """
    a.require_bound()
    if not a.alpha.is_identity():
        raise PreconditionError("alpha_h_twist requires the identity twist on input")
    require_passed(check_class(a, "transposed-hom-poisson"),
                   "input is not a transposed Poisson algebra")
    t = {"h": IntTensor((len(h),), ((x, Fraction(c)) for x, c in enumerate(h))),
         "dot": int_tensor(a.op("dot"))}
    # column j of alpha_h is h.e_j
    alpha_h = maps_from_terms(((1, "x,xjk->kj", ("h", "dot")),), t)
    return AlgebraPresentation(a.dim, dict(a.ops), dict(a.maps, alpha=alpha_h), a.basis)


def bracket_from_derivation(a, d):
    """{x,y} = x.D(y) - D(x).y on a commutative Hom-associative algebra.

    D must be a derivation of the dot commuting with alpha; the result is a
    transposed Hom-Poisson algebra.
    """
    require_passed(check_class(a, "comm-hom-assoc"),
                   "input is not commutative Hom-associative")
    require_passed(check_derivation(a, "dot", d),
                   "D is not a derivation commuting with the twist")
    dot = a.op("dot")
    bracket = bilinear_from_terms((
        (1, "rj,irk->ijk", ("D", "dot")),
        (-1, "ri,rjk->ijk", ("D", "dot"))), {"D": int_tensor(d), "dot": int_tensor(dot)})
    return AlgebraPresentation(a.dim, {"dot": dot, "bracket": bracket}, dict(a.maps), a.basis)


def bracket_from_two_derivations(a, d1, d2):
    """{x,y} = D1(x).D2(y) - D1(y).D2(x) on a commutative Hom-associative algebra.

    D1, D2 must be commuting derivations of the dot, each commuting with
    alpha; the result is a Hom-Poisson algebra.
    """
    require_passed(check_class(a, "comm-hom-assoc"),
                   "input is not commutative Hom-associative")
    for tag, d in (("D1", d1), ("D2", d2)):
        require_passed(check_derivation(a, "dot", d),
                       "%s is not a derivation commuting with the twist" % tag)
    if d1 @ d2 != d2 @ d1:
        raise PreconditionError("D1 and D2 do not commute")
    dot = a.op("dot")
    bracket = bilinear_from_terms((
        (1, "ai,bj,abk->ijk", ("D1", "D2", "dot")),
        (-1, "aj,bi,abk->ijk", ("D1", "D2", "dot"))),
        {"D1": int_tensor(d1), "D2": int_tensor(d2), "dot": int_tensor(dot)})
    return AlgebraPresentation(a.dim, {"dot": dot, "bracket": bracket}, dict(a.maps), a.basis)


def tensor_product(a1, a2, class_name):
    """Tensor product on the lexicographic basis e_i (x) f_j -> index i*dim2+j.

    The dot is x1.y1 (x) x2.y2, and any other op # of the class is
    x1#y1 (x) x2.y2 + x1.y1 (x) x2#y2.  Twist is the Kronecker product of
    the twists.  The result is in the factors' class, one of
    _TENSOR_CLASSES; any other class raises PreconditionError first, and a
    product dim above core.MAX_DIM raises DimensionError before the class
    gates.
    """
    class_name = resolve_class(class_name)
    if class_name not in _TENSOR_CLASSES:
        raise PreconditionError("tensor_product supports the commutative, "
                                "transposed and pre-Lie Poisson classes")
    a1.require_bound()
    a2.require_bound()
    n1, n2 = a1.dim, a2.dim
    dim = n1 * n2
    if dim > MAX_DIM:
        raise DimensionError("tensor product dim %d exceeds %d" % (dim, MAX_DIM))
    for a in (a1, a2):
        require_passed(check_class(a, class_name),
                       "tensor factor is not in class %s" % class_name)
    # P[I][i1][i2] = 1 for I = i1*n2 + i2
    t = {"P": IntTensor((dim, n1, n2), ((i1 * n2 + i2, i1, i2, ONE)
                                        for i1 in range(n1) for i2 in range(n2))),
         "1:alpha": int_tensor(a1.alpha), "2:alpha": int_tensor(a2.alpha)}
    for name in CLASS_OPS[class_name]:
        t["1:" + name], t["2:" + name] = int_tensor(a1.op(name)), int_tensor(a2.op(name))

    def product(name):
        pairs = (("dot", "dot"),) if name == "dot" else ((name, "dot"), ("dot", name))
        return bilinear_from_terms([
            (1, "Iac,Jbd,abx,cdy,Kxy->IJK", ("P", "P", "1:" + p1, "2:" + p2, "P"))
            for p1, p2 in pairs], t)

    ops = {name: product(name) for name in CLASS_OPS[class_name]}
    alpha = maps_from_terms((
        (1, "Kxy,xa,yc,Iac->KI", ("P", "1:alpha", "2:alpha", "P")),), t)
    return AlgebraPresentation(dim, ops, {"alpha": alpha})


def sub_adjacent(a):
    """Commutator bracket {x,y} = x*y - y*x of a Hom-pre-Lie star.

    A Hom-pre-Lie algebra yields a Hom-Lie algebra; a Hom-pre-Lie Poisson
    algebra yields a transposed Hom-Poisson algebra (the dot is kept).
    """
    has_dot = "dot" in a.ops
    cls_in = "hom-pre-lie-poisson" if has_dot else "hom-pre-lie"
    require_passed(check_class(a, cls_in), "input is not in class %s" % cls_in)
    bracket = bilinear_from_terms((
        (1, "ijk->ijk", ("star",)),
        (-1, "jik->ijk", ("star",))), {"star": int_tensor(a.op("star"))})
    ops = {"bracket": bracket}
    if has_dot:
        ops["dot"] = a.op("dot")
    return AlgebraPresentation(a.dim, ops, {"alpha": a.alpha}, a.basis)
