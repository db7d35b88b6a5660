from fractions import Fraction

import pytest

from homstruct import catalog
from homstruct.axioms import check_class
from homstruct.core import UnboundParameterError

from helpers import bound_fixtures

F = Fraction


def test_names_and_describe():
    names = catalog.names()
    for expected in ("CA2a", "CA2b", "CA3a", "CA3b", "HP3", "THP2", "TP2",
                     "PLP2", "THP2-as-hom-poisson"):
        assert expected in names
    for n in names:
        assert catalog.describe(n)
        assert catalog.describe(n)["class"]


def test_standard_bindings_pass_with_no_witnesses():
    for name, label, a, cls in bound_fixtures():
        rep = check_class(a, cls)
        assert rep.passed, (name, label)
        assert not rep.witnesses


def test_parametric_entries_require_binding():
    a = catalog.get("THP2")
    with pytest.raises(UnboundParameterError):
        check_class(a, "transposed-hom-poisson")
    bound = catalog.get("THP2", {"lam": F(2)})
    assert check_class(bound, "transposed-hom-poisson").passed


def test_unknown_name():
    with pytest.raises(KeyError):
        catalog.get("no-such-entry")


def test_negative_fixture_is_negative():
    a = catalog.get("THP2-as-hom-poisson", {"lam": F(1)})
    assert not check_class(a, catalog.describe("THP2-as-hom-poisson")["class"]).passed


def test_structure_constants_frozen():
    # freeze the published tables so silent catalog edits get caught
    tp2 = catalog.get("TP2")
    assert tp2.op("dot").entries == (
        (0, 1, 0, F(1)), (1, 0, 0, F(1)), (1, 1, 1, F(1)))
    assert tp2.op("bracket").entries == ((0, 1, 0, F(1)), (1, 0, 0, F(-1)))
    thp2 = catalog.get("THP2", {"lam": F(1)})
    assert thp2.op("bracket").entries == ((0, 1, 1, F(1)), (1, 0, 1, F(-1)))
    assert thp2.alpha.m == ((F(1), F(0)), (F(0), F(-1)))
    plp2 = catalog.get("PLP2", {"a": F(1)})
    assert plp2.alpha.m == ((F(2), F(0)), (F(0), F(2)))
