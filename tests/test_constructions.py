from fractions import Fraction

import pytest

from homstruct import catalog
from homstruct.axioms import check_class, check_multiplicative
from homstruct.constructions import (
    PreconditionError,
    alpha_h_twist,
    bracket_from_derivation,
    bracket_from_two_derivations,
    compose_twist,
    derived_algebra,
    sub_adjacent,
    tensor_product,
    yau_twist,
)
from homstruct.core import (
    AlgebraPresentation,
    BilinearMap,
    DimensionError,
    LinearMap,
    UnboundParameterError,
    basis_vec,
)
from homstruct.operators import derivation_space
from homstruct.representations import bimodule_from_morphism

from helpers import bound_fixtures

F = Fraction


def _multiplicative_fixtures():
    return [(n, l, a, c) for n, l, a, c in bound_fixtures()
            if check_multiplicative(a).passed]


def test_alpha_h_twist_tp2():
    a = catalog.get("TP2")
    for h in (basis_vec(2, 0), basis_vec(2, 1),
              tuple(x + y for x, y in zip(basis_vec(2, 0), basis_vec(2, 1)))):
        t = alpha_h_twist(a, h)
        assert check_class(t, "transposed-hom-poisson").passed, h


def test_yau_twist():
    a = catalog.get("TP2")
    g = LinearMap.diagonal([F(1, 2), F(1)])  # morphism of both products
    t = yau_twist(a, g, "transposed-hom-poisson")
    assert check_class(t, "transposed-hom-poisson").passed
    # a non-morphism must be rejected before any product is built
    with pytest.raises(PreconditionError):
        yau_twist(a, LinearMap.diagonal([F(1), F(2)]), "transposed-hom-poisson")


def test_twist_builders_reject_input_outside_the_class():
    # THP2 at lam = 1, twisted and untwisted, is not Hom-Poisson; the identity
    # and zero are morphisms commuting with its multiplicative twist, so only
    # the class of the input is left to fail.  The zero twist is the zero
    # algebra, which is in every class.
    a = catalog.get("THP2", {"lam": F(1)})
    one, zero = LinearMap.identity(2), LinearMap.zero(2)
    untwisted = AlgebraPresentation(2, a.ops, dict(a.maps, alpha=one), a.basis)
    cls = "hom-poisson"
    for build, alg in ((lambda: yau_twist(untwisted, one, cls), untwisted),
                       (lambda: yau_twist(untwisted, zero, cls), untwisted),
                       (lambda: compose_twist(a, one, cls), a),
                       (lambda: compose_twist(a, zero, cls), a),
                       (lambda: derived_algebra(a, 1, cls), a),
                       (lambda: derived_algebra(a, 2, cls, kind=2), a)):
        with pytest.raises(PreconditionError, match="^input is not in class %s$" % cls) as exc:
            build()
        assert exc.value.report == check_class(alg, cls)


def test_compose_twist_with_alpha():
    for name, label, a, cls in _multiplicative_fixtures():
        t = compose_twist(a, a.alpha, cls)
        assert check_class(t, cls).passed, (name, label)


def test_derived_algebras():
    for name, label, a, cls in _multiplicative_fixtures():
        for n in (1, 2):
            for kind in (1, 2):
                t = derived_algebra(a, n, cls, kind=kind)
                assert check_class(t, cls).passed, (name, label, n, kind)


def test_tensor_product_transposed():
    a = catalog.get("THP2", {"lam": F(1)})
    t = tensor_product(a, a, "transposed-hom-poisson")
    assert t.dim == 4
    assert check_class(t, "transposed-hom-poisson").passed


def test_tensor_product_pre_lie_poisson():
    a = catalog.get("PLP2", {"a": F(1)})
    t = tensor_product(a, a, "hom-pre-lie-poisson")
    assert check_class(t, "hom-pre-lie-poisson").passed


def test_tensor_product_refuses_other_classes_first():
    # the class alone rules the call out: factors in the class, unbound
    # factors and factors without the class's op get the same error
    unsupported = {"hom-lie": catalog.get("TP2"),
                   "hom-poisson": catalog.get("THP2", {"lam": F(0)}),
                   "hom-pre-lie": catalog.get("PLP2", {"a": F(0)})}
    for cls, member in unsupported.items():
        assert check_class(member, cls).passed, cls
        for a in (member, catalog.get("THP2"), catalog.get("CA2a")):
            with pytest.raises(PreconditionError) as exc:
                tensor_product(a, a, cls)
            assert exc.value.args == ("tensor_product supports the commutative, "
                                      "transposed and pre-Lie Poisson classes",), cls


def test_tensor_product_above_max_dim_raises_before_the_class_gates():
    # 9 * 8 = 72 > MAX_DIM; skew9 is not commutative, so the class gate
    # would refuse it if the gate ran first
    zero9, zero8 = (AlgebraPresentation(n, {"dot": BilinearMap(n)},
                                        {"alpha": LinearMap.identity(n)}) for n in (9, 8))
    skew9 = AlgebraPresentation(9, {"dot": BilinearMap(9, ((0, 1, 0, F(1)),))},
                                {"alpha": LinearMap.identity(9)})
    assert not check_class(skew9, "comm-hom-assoc").passed
    for a1 in (zero9, skew9):
        with pytest.raises(DimensionError) as exc:
            tensor_product(a1, zero8, "comm-hom-assoc")
        assert exc.value.args == ("tensor product dim 72 exceeds 64",)


def test_sub_adjacent():
    for av in (F(0), F(1), F(-2)):
        p = catalog.get("PLP2", {"a": av})
        s = sub_adjacent(p)
        assert check_class(s, "transposed-hom-poisson").passed, av
        assert set(s.ops) == {"dot", "bracket"}


def test_bracket_from_derivation():
    a = catalog.get("THP2", {"lam": F(1)})
    space = derivation_space(a, "dot", commuting_with="alpha")
    assert LinearMap.diagonal([F(0), F(1)]) in space
    for d in space:
        t = bracket_from_derivation(a, d)
        assert check_class(t, "transposed-hom-poisson").passed
    # with d = the catalog derivation we recover the published bracket
    t = bracket_from_derivation(a, LinearMap.diagonal([F(0), F(1)]))
    assert t.op("bracket").entries == a.op("bracket").entries


def test_bracket_from_two_derivations():
    a = catalog.get("THP2", {"lam": F(1)})
    d = LinearMap.diagonal([F(0), F(1)])
    pairs = [(d, d), (d, LinearMap.diagonal([F(0), F(2)])),
             (LinearMap.zero(2), d)]
    for d1, d2 in pairs:
        t = bracket_from_two_derivations(a, d1, d2)
        assert check_class(t, "hom-poisson").passed, (d1.m, d2.m)


def test_derived_twist_exponent_is_bounded():
    # the twist alpha^(2^n) or alpha^(n + 1) may reach core.MAX_TWIST_EXPONENT
    a = catalog.get("THP2", {"lam": F(1)})
    cls = "transposed-hom-poisson"
    assert derived_algebra(a, 10, cls, kind=2) == derived_algebra(a, 1023, cls)
    for n, kind in ((11, 2), (64, 2), (1024, 1)):
        with pytest.raises(PreconditionError, match="^derived twist exponent exceeds 1024$"):
            derived_algebra(a, n, cls, kind=kind)


def test_twist_builders_reject_bad_arguments():
    # on zero ops every map preserves the products, so only the twist
    # intertwining row of the morphism gate fails for a g that does not
    # commute with alpha
    a = AlgebraPresentation(2, {"dot": BilinearMap(2), "bracket": BilinearMap(2)},
                            {"alpha": LinearMap.diagonal([F(1), F(2)])})
    g = LinearMap.from_rows([[F(0), F(1)], [F(0), F(0)]])
    cls = "transposed-hom-poisson"
    with pytest.raises(PreconditionError, match="^g is not a morphism of the input algebra$") \
            as exc:
        compose_twist(a, g, cls)
    assert {w[0] for w in exc.value.report.witnesses} == {"intertwines-twists"}
    for n, kind, message in ((0, 1, "derived_algebra requires n >= 1"),
                             (-1, 2, "derived_algebra requires n >= 1"),
                             (1, 3, "kind must be 1 or 2"), (1, 0, "kind must be 1 or 2")):
        with pytest.raises(PreconditionError, match="^%s$" % message):
            derived_algebra(a, n, cls, kind=kind)


def test_derived_rejects_non_multiplicative():
    p = catalog.get("PLP2", {"a": F(1)})
    with pytest.raises(PreconditionError):
        derived_algebra(p, 1, "hom-pre-lie-poisson")


def test_unbound_inputs_raise_before_any_other_check():
    # each call would also fail a later check: THP2 and TP2 have no star, and
    # `wide` is of the wrong shape
    thp2, plp2 = catalog.get("THP2"), catalog.get("PLP2")  # lam and a unbound
    tp2 = catalog.get("TP2")
    sq, wide = LinearMap.identity(2), LinearMap.zero(2, 3)
    lam, a = ("presentation has unbound parameters ('lam',)",
              "presentation has unbound parameters ('a',)")
    for build, args, message in (
            (compose_twist, (thp2, wide, "transposed-hom-poisson"), lam),
            (sub_adjacent, (thp2,), lam),
            (bracket_from_derivation, (thp2, wide), lam),
            (bracket_from_two_derivations, (thp2, wide, sq), lam),
            (bimodule_from_morphism, (plp2, thp2, wide), a),
            (bimodule_from_morphism, (tp2, thp2, sq), lam)):
        with pytest.raises(UnboundParameterError) as exc:
            build(*args)
        assert str(exc.value) == message, build.__name__
