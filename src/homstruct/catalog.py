"""Built-in catalog of small algebra presentations used as fixtures.

Each entry carries a class tag, an optional parameter list, and a short
human-readable description.  `get` returns a fresh presentation; parametric
entries are instantiated with `homstruct.core.substitute_params`.
"""

from __future__ import annotations

from fractions import Fraction

from homstruct.core import (
    AlgebraPresentation,
    BilinearMap,
    LinearMap,
    substitute_params,
)

F = Fraction
I2 = LinearMap.identity(2)


def _alg(dim, ops, maps, params=()):
    return AlgebraPresentation(dim, ops, maps, params=tuple(params))


def _ca2a():
    # 2-dim commutative Hom-associative: e1.e1=-e1, e1.e2=e2.e1=e2, e2.e2=e1
    dot = BilinearMap(2, ((0, 0, 0, F(-1)), (0, 1, 1, F(1)),
                          (1, 0, 1, F(1)), (1, 1, 0, F(1))))
    return _alg(2, {"dot": dot}, {"alpha": LinearMap.diagonal([F(1), F(-1)])})


def _ca2b():
    dot = BilinearMap(2, ((0, 0, 0, F(1)), (1, 1, 1, F(1))))
    return _alg(2, {"dot": dot}, {"alpha": LinearMap.diagonal([F(1), F(0)])})


def _ca3a():
    # e1.e1=e1; e2.e2=e2.e3=e3.e2=e3.e3=e2+e3; alpha kills e2,e3
    entries = [(0, 0, 0, F(1))]
    for (i, j) in ((1, 1), (1, 2), (2, 1), (2, 2)):
        entries += [(i, j, 1, F(1)), (i, j, 2, F(1))]
    dot = BilinearMap(3, tuple(entries))
    return _alg(3, {"dot": dot}, {"alpha": LinearMap.diagonal([F(1), F(0), F(0)])})


def _ca3b():
    # diagonal products ei.ei = p_i ei, twist fixes e1,e2 and kills e3
    dot = BilinearMap(3, ((0, 0, 0, "p1"), (1, 1, 1, "p2"), (2, 2, 2, "p3")))
    return _alg(3, {"dot": dot},
                {"alpha": LinearMap.diagonal([F(1), F(1), F(0)])},
                params=("p1", "p2", "p3"))


def _hp3():
    # 3-dim Hom-Poisson family: e1.e1=e1, e1.e2=e2.e1=e3;
    # {e1,e2}=a e2+b e3, {e1,e3}=c e2+d e3; twist has no e1 component
    dot = BilinearMap(3, ((0, 0, 0, F(1)), (0, 1, 2, F(1)), (1, 0, 2, F(1))))
    br = BilinearMap(3, ((0, 1, 1, "a"), (0, 1, 2, "b"),
                         (1, 0, 1, "-a"), (1, 0, 2, "-b"),
                         (0, 2, 1, "c"), (0, 2, 2, "d"),
                         (2, 0, 1, "-c"), (2, 0, 2, "-d")))
    alpha = LinearMap.from_rows([[F(0), F(0), F(0)],
                                 ["l1", "l3", "l5"],
                                 ["l2", "l4", "l6"]])
    return _alg(3, {"dot": dot, "bracket": br}, {"alpha": alpha},
                params=("a", "b", "c", "d", "l1", "l2", "l3", "l4", "l5", "l6"))


def _thp2():
    # 2-dim transposed Hom-Poisson: e1.e1=-e1, e1.e2=e2.e1=e2, alpha=diag(1,-1),
    # bracket {e1,e2}=lam e2 induced by the derivation D=diag(0,lam)
    dot = BilinearMap(2, ((0, 0, 0, F(-1)), (0, 1, 1, F(1)), (1, 0, 1, F(1))))
    br = BilinearMap(2, ((0, 1, 1, "lam"), (1, 0, 1, "-lam")))
    maps = {"alpha": LinearMap.diagonal([F(1), F(-1)]),
            "D": LinearMap.from_rows([[F(0), F(0)], [F(0), "lam"]])}
    return _alg(2, {"dot": dot, "bracket": br}, maps, params=("lam",))


def _tp2():
    # 2-dim transposed Poisson (alpha = id): e1.e2=e2.e1=e1, e2.e2=e2,
    # {e1,e2}=e1; auxiliary twist candidate alpha_e1 is multiplication by e1
    dot = BilinearMap(2, ((0, 1, 0, F(1)), (1, 0, 0, F(1)), (1, 1, 1, F(1))))
    br = BilinearMap(2, ((0, 1, 0, F(1)), (1, 0, 0, F(-1))))
    maps = {"alpha": I2,
            "alpha_e1": LinearMap.from_rows([[F(0), F(1)], [F(0), F(0)]])}
    return _alg(2, {"dot": dot, "bracket": br}, maps)


def _plp2():
    # 2-dim Hom-pre-Lie Poisson: e1.e1 = a e2; star has e1 acting as a left and
    # right identity on the span of e1,e2 except e2*e2=0; alpha=2 id
    dot = BilinearMap(2, ((0, 0, 1, "a"),))
    star = BilinearMap(2, ((0, 0, 0, F(1)), (0, 1, 1, F(1)), (1, 0, 1, F(1))))
    return _alg(2, {"dot": dot, "star": star},
                {"alpha": LinearMap.diagonal([F(2), F(2)])}, params=("a",))


_ENTRIES = {
    "CA2a": ("comm-hom-assoc", _ca2a,
             "2-dim commutative Hom-associative algebra with twist diag(1,-1)"),
    "CA2b": ("comm-hom-assoc", _ca2b,
             "2-dim commutative Hom-associative algebra of two idempotents, twist diag(1,0)"),
    "CA3a": ("comm-hom-assoc", _ca3a,
             "3-dim commutative Hom-associative algebra with a 2-dim square block"),
    "CA3b": ("comm-hom-assoc", _ca3b,
             "3-dim diagonal family with free squares p1,p2,p3, twist diag(1,1,0)"),
    "HP3": ("hom-poisson", _hp3,
            "3-dim Hom-Poisson family with parametric bracket and twist; only bindings "
            "with l3=l5=0, l4*c=l4*d=l6*c=l6*d=0, l1*a+l2*c=0 and l1*b+l2*d=0 "
            "satisfy all axioms"),
    "THP2": ("transposed-hom-poisson", _thp2,
             "2-dim transposed Hom-Poisson family, bracket induced by D=diag(0,lam); "
             "the twist diag(1,-1) is forced by Hom-associativity of the dot"),
    "TP2": ("transposed-hom-poisson", _tp2,
            "2-dim transposed Poisson algebra (identity twist) with auxiliary map alpha_e1; "
            "the bracket value {e1,e2}=e1 is forced by the transposed Leibniz identity"),
    "PLP2": ("hom-pre-lie-poisson", _plp2,
             "2-dim Hom-pre-Lie Poisson family with non-multiplicative twist 2*id; "
             "the product e2*e1=e2 is forced by the first compatibility identity"),
    # fails the Poisson compatibility whenever lam != 0
    "THP2-as-hom-poisson": ("hom-poisson", _thp2,
                            "negative fixture: THP2 tables checked against the Hom-Poisson axioms"),
}


def names():
    return sorted(_ENTRIES)


def describe(name):
    cls, factory, desc = _ENTRIES[name]
    a = factory()
    return {"name": name, "class": cls, "dim": a.dim,
            "params": list(a.params), "description": desc}


def get(name, binding=None):
    """Return the named presentation, instantiating parameters if given."""
    a = _ENTRIES[name][1]()
    if binding:
        a = substitute_params(a, binding)
    return a
