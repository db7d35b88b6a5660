"""Differential tests: the fraction-free elimination (core.fraction_free_rref,
used by operators.nullspace_basis and derivation_space and by LinearMap.det
and inverse) against the Fraction Gauss-Jordan it replaced (tests/helpers.py).
Results must be equal by == and serialize to the same strings."""

import random
from fractions import Fraction

import pytest

from homstruct import catalog
from homstruct.constructions import tensor_product
from homstruct.core import DimensionError, LinearMap, fraction_free_rref
from homstruct.operators import derivation_space, nullspace_basis

from helpers import (
    bound_fixtures,
    fraction_derivation_space,
    fraction_det,
    fraction_inverse,
    fraction_nullspace_basis,
    fraction_rref,
    rand_algebra,
    rand_fraction,
    rand_matrix,
    transported,
)

F = Fraction


def _strs(maps):
    return [[[str(c) for c in row] for row in d.m] for d in maps]


def _catalog():
    """Every catalog entry, each parameter bound to 1, 2, ... in order, and
    the standard bindings."""
    out = [catalog.get(name, {p: F(k + 1) for k, p in enumerate(catalog.get(name).params)})
           for name in catalog.names()]
    return out + [a for _, _, a, _ in bound_fixtures()]


def _tensors():
    """Tensor products of catalog entries, at dims 4, 6 and 8."""
    tp2, thp2 = catalog.get("TP2"), catalog.get("THP2", {"lam": F(1)})
    plp2 = catalog.get("PLP2", {"a": F(1)})
    t = "transposed-hom-poisson"
    return [tensor_product(tp2, thp2, t),
            tensor_product(catalog.get("CA2a"), catalog.get("CA3a"), "comm-hom-assoc"),
            tensor_product(plp2, plp2, "hom-pre-lie-poisson"),
            tensor_product(tensor_product(tp2, tp2, t), tp2, t)]


def _randoms():
    rng = random.Random(20261018)
    return [rand_algebra(rng, n, names) for n in (1, 2, 3, 4)
            for names in (("dot",), ("bracket", "dot"), ("star",))]


def test_derivation_space_matches_fraction_solver():
    algebras = _catalog()
    algebras += [transported(a) for a in algebras if a.dim in (2, 3)]
    algebras += _tensors() + _randoms()
    dims = set()
    for a in algebras:
        for op_name in sorted(a.ops):
            for commuting in ("alpha", None):
                mine = derivation_space(a, op_name, commuting)
                ref = fraction_derivation_space(a, op_name, commuting)
                assert mine == ref, (op_name, commuting)
                assert _strs(mine) == _strs(ref)
                dims.add(len(mine))
    # the inputs reach both an empty and a nonempty solution space
    assert 0 in dims and max(dims) > 0


def _rand_rows(rng, count, width, rank):
    """count random Fraction rows of the given rank: rank random rows, the
    rest random combinations of them (some zero), shuffled."""
    base = [[rand_fraction(rng) if rng.random() < 0.7 else F(0) for _ in range(width)]
            for _ in range(rank)]
    rows = list(base)
    while len(rows) < count:
        coefs = [rand_fraction(rng) if rng.random() < 0.5 else F(0) for _ in base]
        rows.append([sum((c * r[i] for c, r in zip(coefs, base)), F(0))
                     for i in range(width)])
    rng.shuffle(rows)
    return rows


def test_nullspace_basis_matches_fraction_solver():
    rng = random.Random(5)
    ranks = set()
    for _ in range(200):
        width = rng.randint(1, 8)
        rows = _rand_rows(rng, rng.randint(1, 10), width, rng.randint(0, width))
        mine, ref = nullspace_basis(rows, width), fraction_nullspace_basis(rows, width)
        assert mine == ref
        assert [list(map(str, v)) for v in mine] == [list(map(str, v)) for v in ref]
        assert all(type(c) is Fraction for v in mine for c in v)
        ranks.add(width - len(mine))
        # dividing each reduced row by its pivot gives the reduced echelon form
        reduced, pivots = fraction_free_rref(rows, width)
        assert ([[F(x, r[p]) for x in r] for r, p in zip(reduced, pivots)], pivots) == \
            fraction_rref(rows, width)
    assert 0 in ranks and max(ranks) >= 6
    # integer rows are taken as they are
    ints = [[2, -4, 0], [0, 0, 3]]
    assert nullspace_basis(ints, 3) == [(F(2), F(1), F(0))] == \
        fraction_nullspace_basis([[F(x) for x in row] for row in ints], 3)


def _singular(rng, n):
    """A random n x n matrix whose last row is a combination of the others
    (the zero row at n = 1)."""
    m = [list(r) for r in rand_matrix(rng, n).m]
    coefs = [rand_fraction(rng) for _ in range(n - 1)]
    m[-1] = [sum((c * m[r][i] for r, c in enumerate(coefs)), F(0)) for i in range(n)]
    rows = m[:]
    rng.shuffle(rows)
    return LinearMap.from_rows(rows)


def test_det_and_inverse_match_fraction_elimination():
    rng = random.Random(6)
    singular = regular = 0
    for n in range(1, 7):
        for k in range(40):
            m = _singular(rng, n) if k % 4 == 0 else rand_matrix(rng, n)
            # full rank exactly when the determinant is nonzero
            det = fraction_det(m)
            assert (len(fraction_free_rref(m.m, n)[1]) == n) == (det != 0)
            if det == 0:
                singular += 1
                for inverse in (LinearMap.inverse, fraction_inverse):
                    with pytest.raises(DimensionError, match="map is singular"):
                        inverse(m)
            else:
                regular += 1
                assert m.inverse() == fraction_inverse(m)
                assert _strs([m.inverse()]) == _strs([fraction_inverse(m)])
                assert (m @ m.inverse()).is_identity()
    assert singular >= 60 and regular >= 100
