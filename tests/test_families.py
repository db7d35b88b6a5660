"""The family protocol of core.run_identity_families: a family is
(identity id, arity, table fn), and table() gives (scale, rows), rows the
integer residuals times scale of the basis tuples on which the identity may
fail, or (scale, rows, failures), rows the first failing tuples only and
failures their count."""

from fractions import Fraction

from homstruct import axioms, catalog, core, representations
from homstruct.axioms import CLASS_FAMILIES, check_class
from homstruct.core import (
    BilinearMap,
    contraction_family,
    int_tensor,
    run_identity_families,
)
from homstruct.representations import REP_FAMILIES, check_rep, regular_representation

F = Fraction


def _counting(monkeypatch):
    """Patch the runner the checkers call so that every table fn it gets is
    counted; returns the list of [ident, calls] pairs."""
    seen = []

    def runner(dim, families, *args, **kwargs):
        wrapped = []
        for ident, arity, table in families:
            slot = [ident, 0]
            seen.append(slot)

            def counted(table=table, slot=slot):
                slot[1] += 1
                return table()
            wrapped.append((ident, arity, counted))
        return core.run_identity_families(dim, wrapped, *args, **kwargs)

    for mod in (axioms, representations):
        monkeypatch.setattr(mod, "run_identity_families", runner)
    return seen


def _idents(families, cls):
    subs, idents = families[cls]
    out = list(idents)
    for sub in subs:
        out += _idents(families, sub[1] if isinstance(sub, tuple) else sub)
    return sorted(out)


def test_each_table_is_read_once_per_report(monkeypatch):
    seen = _counting(monkeypatch)
    thp = catalog.get("THP2", {"lam": F(1)})
    for cls in ("hom-poisson", "transposed-hom-poisson"):
        seen.clear()
        report = check_class(thp, cls)
        assert report.passed == (cls != "hom-poisson")
        assert sorted(ident for ident, _ in seen) == _idents(CLASS_FAMILIES, cls)
        assert all(calls == 1 for _, calls in seen), seen
    tp = catalog.get("TP2")
    rep = regular_representation(tp, "transposed-hom-poisson")
    seen.clear()
    assert check_rep(tp, rep, "transposed-hom-poisson").passed
    assert sorted(ident for ident, _ in seen) == _idents(REP_FAMILIES,
                                                         "transposed-hom-poisson")
    assert all(calls == 1 for _, calls in seen), seen


def test_empty_tables_count_every_tuple():
    zero = {"z": int_tensor(BilinearMap(3))}
    families = [
        contraction_family("scalar", (3, ((1, "ijk->ijk", ("z",)),)), zero),
        contraction_family("vector", (2, ((1, "ijo->ijo", ("z",)),)), zero),
        ("none", 4, lambda: (1, {})),
        ("constant", 0, lambda: (1, {})),
    ]
    assert [fn() for _, _, fn in families] == [(1, {})] * 4
    report = run_identity_families(3, families)
    assert (report.checked, report.failures, report.witnesses) == (27 + 9 + 81 + 1, 0, [])
    assert report.passed


def test_zero_residuals_are_not_witnesses():
    def table():
        return 2, {(0, 1): (0, 0), (1, 0): [0, -1], (1, 1): [0, 0]}
    # a row whose two terms cancel leaves its table empty
    t = {"op": int_tensor(catalog.get("TP2").op("dot"))}
    cancel = contraction_family("cancel", (2, (
        (1, "ijo->ijo", ("op",)), (-1, "ijo->ijo", ("op",)))), t)
    for mw in (0, 1, 5):
        report = run_identity_families(2, [("z", 2, table), cancel], mw)
        assert (report.checked, report.failures) == (8, 1)
        assert report.witnesses == [("z", (1, 0), (F(0), F(-1, 2)))][:mw]


def test_only_kept_witnesses_are_divided():
    """A table of 1,000 failing integer rows, handed over unsorted: every one
    is counted, and only the kept ones, the first after sorting, are divided
    by the table's scale.  The other rows start with None, which no Fraction
    accepts, so dividing any of them would raise."""
    tuples = [(i // 100, i // 10 % 10, i % 10) for i in reversed(range(1000))]
    rows = {tup: [None, 7, 0] for tup in tuples}
    kept = sorted(tuples)[:3]
    for i, tup in enumerate(kept):
        rows[tup] = [i - 500, 7, 0]
    report = run_identity_families(10, [("big", 3, lambda: (6, rows))], 3)
    assert (report.checked, report.failures) == (1000, 1000)
    assert report.witnesses == [("big", tup, tuple(F(x, 6) for x in rows[tup]))
                                for tup in kept]
    assert report.witnesses[0] == ("big", (0, 0, 0), (F(-250, 3), F(7, 6), F(0)))


def test_three_element_tables_hand_over_their_count_and_kept_rows():
    """A table (scale, rows, failures) hands over the count of its failing
    tuples and only the first of them, in tuple order.  The runner adds the
    count, keeps the rows in their order, sorts them with the rows of
    plain-form families, and divides only their nonzero coordinates."""
    kept = {(0, 0): [0, 3], (0, 2): [-4, 0], (1, 1): [2, 2]}

    def counted(limit):
        # 7 failing tuples, of which the first 3 are known
        return "b", 2, lambda: (2, dict(list(kept.items())[:limit]), 7)

    before = ("a", 2, lambda: (1, {(1, 0): [0, 1], (0, 1): [0, 0]}))
    after = ("c", 2, lambda: (3, {(2, 2): [1, 0]}))
    everything = [("a", (1, 0), (F(0), F(1))),
                  ("b", (0, 0), (F(0), F(3, 2))),
                  ("b", (0, 2), (F(-2), F(0))),
                  ("b", (1, 1), (F(1), F(1))),
                  ("c", (2, 2), (F(1, 3), F(0)))]
    for mw in (0, 1, 2, 4, 10):
        report = run_identity_families(3, [after, counted(mw), before], mw)
        assert (report.checked, report.failures) == (27, 1 + 7 + 1), mw
        assert report.witnesses == everything[:mw], mw
        assert [tup for ident, tup, _ in report.witnesses if ident == "b"] == \
            list(kept)[:max(0, min(3, mw - 1))], mw
        assert not report.passed
    zeros = [c for _, _, res in report.witnesses for c in res if not c]
    assert len(zeros) == 4 and all(c == F(0) and str(c) == "0" for c in zeros)
