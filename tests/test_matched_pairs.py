import random
from fractions import Fraction

import pytest

from homstruct import catalog
from homstruct.axioms import CLASS_OPS, check_class, check_morphism
from homstruct.core import (
    AlgebraPresentation,
    DimensionError,
    LinearMap,
    RepresentationPresentation,
    basis_vec,
    eval_bilinear,
)
from homstruct.duality import coadjoint_matched_pair, trivial_dual
from homstruct.matched_pairs import (
    MatchedPairData,
    PreconditionError,
    block_swap_map,
    build_double,
    check_matched_pair,
    matched_pair_from_representation,
    mp_pre_lie_to_lie,
    swap,
    zero_algebra,
    zero_representation,
)
from homstruct.representations import REP_OPS, regular_representation, semidirect_product

from helpers import action_of, apply_map, rand_algebra, rand_rep

F = Fraction


def _plp2_bimodule():
    return RepresentationPresentation(2, 1, {
        "s": (LinearMap.zero(1), LinearMap.zero(1)),
        "l": (LinearMap.from_rows([[F(3)]]), LinearMap.zero(1)),
        "r": (LinearMap.zero(1), LinearMap.zero(1)),
    }, LinearMap.zero(1))


def test_zero_opposite_double_equals_semidirect():
    a = catalog.get("THP2", {"lam": F(1)})
    rep = regular_representation(a, "transposed-hom-poisson")
    mp = matched_pair_from_representation(a, rep, "transposed-hom-poisson")
    d = build_double(mp, "transposed-hom-poisson")
    sd = semidirect_product(a, rep, "transposed-hom-poisson")
    assert d == sd  # bit-exact, same structure constants and twist


def test_check_matched_pair_transposed():
    a = catalog.get("THP2", {"lam": F(1)})
    rep = regular_representation(a, "transposed-hom-poisson")
    mp = matched_pair_from_representation(a, rep, "transposed-hom-poisson")
    r = check_matched_pair(mp, "transposed-hom-poisson")
    assert r.passed
    assert set(r.sub_reports) == {"actions-ab-module", "actions-ba-module", "double"}
    assert r.notes == ()


def test_matched_pair_reports_each_witness_once():
    # TP2's coadjoint pair fails: the double's witnesses sit under "double"
    # only, and the top level counts what its three sub-reports checked
    tp2 = catalog.get("TP2")
    r = check_matched_pair(coadjoint_matched_pair(tp2, trivial_dual(tp2)),
                           "transposed-hom-poisson")
    assert not r.passed and r.sub_reports["double"].witnesses
    assert (r.witnesses, r.failures) == ([], 0)
    assert r.checked == sum(sub.checked for sub in r.sub_reports.values()) == 80
    witnesses = r.all_witnesses()
    assert len(witnesses) == len(set(map(repr, witnesses)))


def test_check_matched_pair_comm():
    a = catalog.get("CA2a")
    rep = regular_representation(a, "comm-hom-assoc")
    mp = matched_pair_from_representation(a, rep, "comm-hom-assoc")
    r = check_matched_pair(mp, "comm-hom-assoc")
    assert r.passed
    d = build_double(mp, "comm-hom-assoc")
    assert check_class(d, "comm-hom-assoc").passed


def test_check_matched_pair_pre_lie_poisson():
    a = catalog.get("PLP2", {"a": F(0)})
    mp = matched_pair_from_representation(
        a, _plp2_bimodule(), "hom-pre-lie-poisson")
    r = check_matched_pair(mp, "hom-pre-lie-poisson")
    assert r.passed
    d = build_double(mp, "hom-pre-lie-poisson")
    assert check_class(d, "hom-pre-lie-poisson").passed


def test_pre_lie_pair_to_lie_pair():
    a = catalog.get("PLP2", {"a": F(0)})
    mp = matched_pair_from_representation(
        a, _plp2_bimodule(), "hom-pre-lie")
    lie_mp = mp_pre_lie_to_lie(mp)
    r = check_matched_pair(lie_mp, "hom-lie")
    assert r.passed
    d = build_double(lie_mp, "hom-lie")
    assert check_class(d, "hom-lie").passed


def test_block_swap_is_morphism_between_doubles():
    a = catalog.get("THP2", {"lam": F(1)})
    rep = regular_representation(a, "transposed-hom-poisson")
    mp = matched_pair_from_representation(a, rep, "transposed-hom-poisson")
    d = build_double(mp, "transposed-hom-poisson")
    d_swapped = build_double(swap(mp), "transposed-hom-poisson")
    f = block_swap_map(a.dim, rep.module_dim)
    assert check_morphism(d, d_swapped, f).passed


def test_build_double_gates_on_module_axioms():
    a = catalog.get("THP2", {"lam": F(1)})
    bad = RepresentationPresentation(2, 1, {
        "s": (LinearMap.from_rows([[F(1)]]), LinearMap.from_rows([[F(1)]])),
        "rho": (LinearMap.from_rows([[F(1)]]), LinearMap.from_rows([[F(1)]])),
    }, LinearMap.identity(1))
    mp = matched_pair_from_representation(a, bad, "transposed-hom-poisson")
    with pytest.raises(PreconditionError):
        build_double(mp, "transposed-hom-poisson")
    # gate can be bypassed explicitly, and the double then fails the class check
    d = build_double(mp, "transposed-hom-poisson", check_actions=False)
    assert not check_class(d, "transposed-hom-poisson").passed


def test_build_double_above_max_dim_raises():
    # a zero pair of dims 33 and 32: its double would have dim 65 > MAX_DIM
    cls = "transposed-hom-poisson"
    a = zero_algebra(33, LinearMap.identity(33), CLASS_OPS[cls])
    rep = zero_representation(33, 32, LinearMap.identity(32), REP_OPS[cls])
    mp = matched_pair_from_representation(a, rep, cls)
    for check_actions in (True, False):
        with pytest.raises(DimensionError) as exc:
            build_double(mp, cls, check_actions=check_actions)
        assert exc.value.args == ("double dim 65 exceeds 64",)


def test_matched_pair_shape_validation():
    a = catalog.get("THP2", {"lam": F(1)})
    rep = regular_representation(a, "transposed-hom-poisson")
    mp = matched_pair_from_representation(a, rep, "transposed-hom-poisson")
    with pytest.raises(Exception):
        MatchedPairData(mp.algebra_a, mp.algebra_b, mp.actions_ab,
                        RepresentationPresentation(3, 2, {}, LinearMap.identity(2)))



def test_build_double_mixed_products_follow_the_actions():
    # random actions both ways, so every mixed product has both parts:
    # x.u = s(x)u + s(u)x, [x,u] = rho(x)u - rho(u)x, x*u = l(x)u + r(u)x and
    # u*x = r(x)u + l(u)x for x in A, u in B
    rng = random.Random(20261019)
    n, p = 2, 3
    for cls in ("transposed-hom-poisson", "hom-pre-lie-poisson"):
        a, b = rand_algebra(rng, n, CLASS_OPS[cls]), rand_algebra(rng, p, CLASS_OPS[cls])
        ab, ba = rand_rep(rng, n, p, REP_OPS[cls]), rand_rep(rng, p, n, REP_OPS[cls])
        double = build_double(MatchedPairData(a, b, ab, ba), cls, check_actions=False)
        for i in range(n):
            for j in range(p):
                x, u = basis_vec(n, i), basis_vec(p, j)

                def parts(on_u, on_x, sign=1):
                    """(on_x of u) x in the A block, (on_u of x) u in the B block."""
                    return (tuple(sign * c for c in apply_map(action_of(ba, on_x, u), x))
                            + apply_map(action_of(ab, on_u, x), u))

                expected = {}
                if "dot" in double.ops:
                    expected["dot"] = (parts("s", "s"),) * 2
                if "bracket" in double.ops:
                    xu = parts("rho", "rho", sign=-1)
                    expected["bracket"] = (xu, tuple(-c for c in xu))
                if "star" in double.ops:
                    expected["star"] = (parts("l", "r"), parts("r", "l"))
                X, U = basis_vec(n + p, i), basis_vec(n + p, n + j)
                for name, (xu, ux) in expected.items():
                    assert eval_bilinear(double.op(name), X, U) == xu, (cls, name, i, j)
                    assert eval_bilinear(double.op(name), U, X) == ux, (cls, name, i, j)
