from fractions import Fraction
from pathlib import Path

import random
import re

import pytest

from homstruct import axioms, catalog
from homstruct.axioms import (
    CLASS_CHECKERS,
    CLASS_FAMILIES,
    CLASS_OPS,
    IDENTITIES,
    _Tables,
    check_class,
    check_derivation,
    check_morphism,
    check_multiplicative,
    check_poisson_intersection,
    check_transposed_consequences,
    resolve_class,
)
from homstruct.constructions import tensor_product
from homstruct.core import (
    AlgebraPresentation,
    BilinearMap,
    CheckReport,
    DimensionError,
    LinearMap,
    MissingOperationError,
    UnboundParameterError,
    eval_bilinear,
)

from helpers import (
    bound_fixtures,
    closure_annihilation,
    closure_check_class,
    closure_cyclic_sum,
    naive_class_verdict,
    perturb,
    perturbed_fixtures,
    rand_algebra,
    transported,
)

F = Fraction


def test_resolve_class_aliases():
    assert resolve_class("transposed-poisson") == "transposed-hom-poisson"
    assert resolve_class("comm-hom-assoc") == "comm-hom-assoc"
    with pytest.raises(KeyError):
        resolve_class("nope")


def test_all_fixtures_pass_their_class():
    for name, label, a, cls in bound_fixtures():
        rep = check_class(a, cls)
        assert rep.passed, (name, label, rep.witnesses[:2])
        assert rep.checked > 0


def test_thp2_is_hom_poisson_iff_lambda_zero():
    # the Leibniz rule picks up the lambda-scaled product
    a0 = catalog.get("THP2", {"lam": F(0)})
    assert check_class(a0, "hom-poisson").passed
    for lam in (F(1), F(5, 2), F(-1, 3)):
        a = catalog.get("THP2", {"lam": lam})
        rep = check_class(a, "hom-poisson")
        assert not rep.passed
        assert any(w[0].startswith("poisson-leibniz") for w in rep.witnesses)
        # still transposed for every lambda
        assert check_class(a, "transposed-hom-poisson").passed


def test_missing_operation():
    a = catalog.get("TP2")
    with pytest.raises(MissingOperationError):
        check_class(a, "hom-pre-lie")


def test_known_negative_fixture():
    a = catalog.get("THP2-as-hom-poisson", {"lam": F(1)})
    assert not check_class(a, "hom-poisson").passed


def test_transposed_consequences():
    for lam in (F(0), F(1), F(5, 2)):
        a = catalog.get("THP2", {"lam": lam})
        assert check_transposed_consequences(a).passed
    a = catalog.get("TP2")
    assert check_transposed_consequences(a).passed


def test_poisson_intersection():
    # lam=0 sits in the intersection; lam!=0 does not
    a0 = catalog.get("THP2", {"lam": F(0)})
    assert check_poisson_intersection(a0).passed
    a1 = catalog.get("THP2", {"lam": F(1)})
    assert not check_poisson_intersection(a1).passed


def test_multiplicativity_facts():
    # PLP2 (alpha = 2*id) and the HP3 binding are not multiplicative
    for name, label, a, cls in bound_fixtures():
        rep = check_multiplicative(a)
        if name in ("PLP2", "HP3"):
            assert not rep.passed, label
        else:
            assert rep.passed, (name, label, rep.witnesses[:2])


def test_derivation_check():
    a = catalog.get("THP2", {"lam": F(1)})
    d = LinearMap.diagonal([F(0), F(1)])
    assert check_derivation(a, "dot", d).passed
    assert not check_derivation(a, "dot", LinearMap.diagonal([F(1), F(0)])).passed


def test_morphism_check():
    a = catalog.get("TP2")
    assert check_morphism(a, a, LinearMap.identity(2)).passed
    # e1 scales linearly in both products, so diag(t,1) is a morphism
    assert check_morphism(a, a, LinearMap.diagonal([F(3), F(1)])).passed
    neg = LinearMap.diagonal([F(-1), F(-1)])
    assert not check_morphism(a, a, neg).passed
    rep = check_morphism(a, a, neg, op_names=("dot",))
    assert not rep.passed
    assert all(w[0] == "morphism:dot" for w in rep.witnesses)


def test_identity_oracles_agree_on_fixtures():
    for name, label, a, cls in bound_fixtures():
        assert naive_class_verdict(a, cls), (name, label)
        assert check_class(a, cls).passed


def test_witness_cap_and_order():
    a = catalog.get("THP2-as-hom-poisson", {"lam": F(1)})
    rep = check_class(a, "hom-poisson", max_witnesses=2)
    assert len(rep.witnesses) <= 2
    assert list(rep.witnesses) == sorted(rep.witnesses, key=lambda w: (w[0], w[1]))


def test_class_names_cover_catalog_targets():
    targets = {catalog.describe(n)["class"] for n in catalog.names()}
    assert targets <= set(CLASS_CHECKERS)


def _flat(report):
    """Everything a report says, with each residual also as its str."""
    return (report.checked, report.failures,
            [(w[0], w[1], w[2], [str(c) for c in w[2]]) for w in report.witnesses],
            report.notes,
            [(name, _flat(sub)) for name, sub in report.sub_reports.items()])


def _random_algebras():
    """Dense random algebras at dims 1-3; at dim 2 also copies with a zero op
    and with a zero alpha."""
    rng = random.Random(20261018)
    out = []
    for n in (1, 2, 3):
        for cls, names in CLASS_OPS.items():
            a = rand_algebra(rng, n, names)
            out.append((cls, a))
            if n == 2:
                zero_op = dict(a.ops, **{rng.choice(names): BilinearMap(n)})
                out.append((cls, AlgebraPresentation(n, zero_op, a.maps)))
                out.append((cls, AlgebraPresentation(n, a.ops,
                                                     {"alpha": LinearMap.zero(n)})))
    return out


def test_integer_kernel_matches_fraction_closures():
    fixtures = [(a, c) for _, _, a, _ in bound_fixtures()
                 for c in CLASS_OPS if set(CLASS_OPS[c]) <= set(a.ops)]
    fixtures += [(a, cls) for _, a, cls in perturbed_fixtures()]
    randoms = _random_algebras()
    poisson = [a for a, _ in fixtures + [(a, cls) for cls, a in randoms]
               if {"dot", "bracket"} <= set(a.ops)]
    for mw in (0, 3, 32):
        for a, cls in fixtures + [(a, cls) for cls, a in randoms]:
            assert _flat(check_class(a, cls, mw)) == \
                _flat(closure_check_class(a, cls, mw)), (cls, mw)
        for a in poisson:
            assert (_flat(check_poisson_intersection(a, mw).sub_reports["annihilation"])
                    == _flat(closure_annihilation(a, mw)))
            if not a.alpha.is_identity():
                assert (_flat(check_transposed_consequences(a, mw))[:3]
                        == _flat(closure_cyclic_sum(a, mw))[:3])


def _capped(report, mw):
    """report with every witness list, its sub-reports' included, cut to mw."""
    return CheckReport(report.witnesses[:mw], report.checked, report.failures,
                       {name: _capped(sub, mw) for name, sub in report.sub_reports.items()},
                       report.notes)


def test_sparse_join_matches_fraction_closures_at_dim_8():
    """The check-sparse shape: dim-8 tensor products of catalog entries, as
    built, with one factor carried to a dense non-integer basis, and with one
    constant perturbed.  Most op cells and twisted rows are zero here, so
    the sparse join skips most of its work; the reports must still be the
    Fraction closures' ones.  The closures cost seconds at dim 8, so each
    runs once, at the largest cap: the report at a smaller cap keeps the
    first witnesses of each list (run_identity_families sorts, then cuts)."""
    T, PLP = "transposed-hom-poisson", "hom-pre-lie-poisson"
    tp, thp = catalog.get("TP2"), catalog.get("THP2", {"lam": F(5, 2)})
    plp = catalog.get("PLP2", {"a": F(3)})
    rng = random.Random(20261018)
    cases = []
    for factors, cls, classes in (((tp, thp, tp), T, ("hom-poisson", T)),
                                  ((tp, transported(thp), tp), T, (T,)),
                                  ((plp, plp, plp), PLP, (PLP,)),
                                  ((plp, transported(plp), plp), PLP, (PLP,))):
        a = tensor_product(tensor_product(factors[0], factors[1], cls), factors[2], cls)
        cases += [(a, classes), (perturb(rng, a), classes[-1:])]
    verdicts, skips = set(), set()
    for a, classes in cases:
        assert a.dim == 8
        for cls in classes:
            tables = _Tables(a, CLASS_OPS[cls])
            # a twisted row lists only its nonzero (x, M[x][b]); one shorter
            # than dim is a skipped entry
            skips.add(any(len(tables.nonzero(op)) < 64 for op in CLASS_OPS[cls])
                      and any(len(row) < a.dim for op in CLASS_OPS[cls] for side in "LR"
                              for row in tables.twisted(op, side)))
            oracle = closure_check_class(a, cls, 1000)
            for mw in (0, 3, 1000):
                mine, want = check_class(a, cls, mw), _capped(oracle, mw)
                assert (mine.passed, _flat(mine), str(mine)) == \
                    (want.passed, _flat(want), str(want)), (cls, mw)
            verdicts.add(oracle.passed)
    assert verdicts == {True, False} and skips == {True}


def test_failing_families_unpack_only_the_kept_witnesses(monkeypatch):
    """A dense random dim-6 algebra fails every class family on most of its
    216 (or 36) tuples.  Each family still unpacks at most max_witnesses
    accumulators, and the reports are the Fraction closures' ones, cut to
    the cap (run_identity_families sorts, then cuts)."""
    a = rand_algebra(random.Random(5), 6, ("dot", "bracket", "star"))
    unpack, family = _Tables.unpack, _Tables.family
    unpacked, per_family = [], {}

    def counting_unpack(self, v):
        unpacked.append(v)
        return unpack(self, v)

    def counting_family(self, ident, limit):
        _, arity, table = family(self, ident, limit)

        def counted():
            start = len(unpacked)
            out = table()
            per_family[ident] = len(unpacked) - start
            return out
        return ident, arity, counted

    monkeypatch.setattr(_Tables, "unpack", counting_unpack)
    monkeypatch.setattr(_Tables, "family", counting_family)
    for cls in ("transposed-hom-poisson", "hom-pre-lie-poisson"):
        oracle = closure_check_class(a, cls, 1000)
        for mw in (0, 1, 3, 32):
            per_family.clear()
            mine, want = check_class(a, cls, mw), _capped(oracle, mw)
            assert sorted(per_family) == sorted(_family_idents(cls)), (cls, mw)
            assert max(per_family.values()) <= mw, (cls, mw, per_family)
            assert (mine.passed, _flat(mine), str(mine)) == \
                (want.passed, _flat(want), str(want)), (cls, mw)
        assert not oracle.passed and all(
            sub.failures > 32 for sub in oracle.sub_reports.values()), cls


def _family_idents(cls):
    subs, idents = CLASS_FAMILIES[cls]
    return list(idents) + [i for sub in subs for i in _family_idents(sub)]


# which cells (i, j) of a dim-n op may be nonempty
_CELL_SHAPES = {
    "empty rows": lambda n, cell: lambda i, j: i % 2 == 0,
    "empty columns": lambda n, cell: lambda i, j: j != n - 1,
    "single cell": lambda n, cell: lambda i, j: (i, j) == cell,
    "no cell": lambda n, cell: lambda i, j: False,
}
# alpha[x][p], the e_x coefficient of alpha(e_p)
_ALPHA_SHAPES = {
    "zero": lambda n, rng: lambda x, p: F(0),
    "permutation": lambda n, rng: lambda x, p: F(int(x == (p + 1) % n)),
    "zero column": lambda n, rng: lambda x, p: F(0) if p == n // 2 else _small(rng),
}


def _small(rng):
    """A nonzero rational of either sign."""
    return F(rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3)))


def _sparse_algebra(rng, n, cell_shape, alpha_shape):
    """dot, bracket and star on dim n, the k-th with the cells that the
    (start + k)-th cell shape allows, each present with probability 1/2 and
    holding one or two coordinates (always, for a single cell)."""
    shapes = list(_CELL_SHAPES)
    start = shapes.index(cell_shape)
    ops = {}
    for k, name in enumerate(("dot", "bracket", "star")):
        shape = shapes[(start + k) % len(shapes)]
        allowed = _CELL_SHAPES[shape](n, (rng.randrange(n), rng.randrange(n)))
        entries = []
        for i in range(n):
            for j in range(n):
                if allowed(i, j) and (shape == "single cell" or rng.random() < 0.5):
                    for c in sorted(rng.sample(range(n), min(n, rng.choice((1, 2))))):
                        entries.append((i, j, c, _small(rng)))
        ops[name] = BilinearMap(n, tuple(entries))
    alpha = _ALPHA_SHAPES[alpha_shape](n, rng)
    return AlgebraPresentation(n, ops, {"alpha": LinearMap.from_rows(
        [[alpha(x, p) for p in range(n)] for x in range(n)])})


def test_nonempty_cell_reads_match_fraction_closures(monkeypatch):
    """_Tables reads only the nonempty op cells and sums twisted rows over
    them; the reports, with every witness's str, must be the Fraction
    closures' at dims 1-6, for ops with empty rows, empty columns, a single
    cell or no cell, and an alpha that is zero, a permutation or has a zero
    column.  A standalone check makes exactly one eval_bilinear call per
    nonempty cell of its class's ops, so none for an op with no cell.  The
    closures are slow at dims 5-6, so there each algebra is checked for one
    of the three composite classes in turn, which carry every family in
    their sub-reports; each closure report is made once, at the largest cap
    (run_identity_families sorts, then cuts)."""
    calls = []

    def counting(op, x, y):
        calls.append(op)
        return eval_bilinear(op, x, y)

    monkeypatch.setattr(axioms, "eval_bilinear", counting)
    rng = random.Random(20261019)
    composites = ("hom-poisson", "transposed-hom-poisson", "hom-pre-lie-poisson")
    verdicts, no_call = set(), set()
    for n in range(1, 7):
        for count, (alpha_shape, cell_shape) in enumerate(
                (x, y) for x in _ALPHA_SHAPES for y in _CELL_SHAPES):
            a = _sparse_algebra(rng, n, cell_shape, alpha_shape)
            for cls in CLASS_OPS if n < 5 else composites[count % 3:count % 3 + 1]:
                oracle = closure_check_class(a, cls, 32)
                for mw in (0, 3, 32):
                    calls.clear()
                    mine, want = check_class(a, cls, mw), _capped(oracle, mw)
                    assert (mine.passed, _flat(mine), str(mine)) == \
                        (want.passed, _flat(want), str(want)), \
                        (n, alpha_shape, cell_shape, cls, mw)
                    ops = [a.op(name) for name in CLASS_OPS[cls]]
                    assert len(calls) == sum(len(row) for op in ops
                                             for row in op.rows.values())
                    no_call |= {name for name in CLASS_OPS[cls]
                                if not a.op(name).entries and a.op(name) not in calls}
                verdicts.add(oracle.passed)
    assert verdicts == {True, False} and no_call == {"dot", "bracket", "star"}


def _huge(rng):
    """A rational of either sign with a numerator up to 10**40."""
    return F(rng.choice((-1, 1)) * rng.randint(1, 10 ** 40), rng.choice((1, 2, 3, 7, 12)))


def _at_lane_bound(n, m, t):
    """An algebra whose transposed-leibniz residual meets _Tables' lane bound.

    Every product of basis vectors is m u for dot and star and -m u for the
    bracket, u = e_1 + ... + e_n, and alpha(e_1) = -t u, alpha(e_p) = t u
    for p > 1.  At (x, y, z) = (e_p, e_q, e_1) with p, q > 1 each of the
    three terms of 2 a(z).{x,y} - {z.x, a(y)} - {a(x), z.y} is a positive
    multiple of n**2 m**2 t u, so every coordinate is 4 n**2 m**2 t; at
    (e_1, e_1, e_q) it is the negative of that."""
    u = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    ops = {name: BilinearMap(n, tuple(idx + (c,) for idx in u))
           for name, c in (("dot", m), ("star", m), ("bracket", -m))}
    alpha = LinearMap.from_rows([[-t] + [t] * (n - 1)] * n)
    return AlgebraPresentation(n, ops, {"alpha": alpha})


def test_packed_lanes_match_fraction_closures_at_the_lane_bound():
    """Dense algebras with numerators up to 10**40, mixed signs and
    non-integer ops and alpha, against the Fraction closures: random ones
    at dims 2-5, random ops at dim 3 with a diagonal, permutation, zero or
    one-zero-column alpha, and ones at dims 2-3 whose largest residual
    coordinate is the lane bound itself, so a lane one bit narrower cannot
    hold it.  The closures cost seconds at dim 5, so there only
    transposed-hom-poisson (with its two sub-reports) is checked, and each
    closure report is made once, at the largest cap (run_identity_families
    sorts, then cuts)."""
    T = "transposed-hom-poisson"
    rng = random.Random(20261018)

    def rand_algebra(n, kept=lambda x, p: True):
        """Random dense ops; alpha keeps the entries (x, p) that kept allows."""
        ops = {name: BilinearMap(n, tuple(
            (i, j, k, _huge(rng)) for i in range(n) for j in range(n) for k in range(n)))
            for name in ("dot", "bracket", "star")}
        alpha = LinearMap.from_rows([[_huge(rng) if kept(x, p) else F(0) for p in range(n)]
                                     for x in range(n)])
        return AlgebraPresentation(n, ops, {"alpha": alpha})

    cases = [(rand_algebra(n), CLASS_OPS if n < 5 else (T,), False) for n in (2, 3, 4, 5)]
    # sparse alphas, whose twisted rows sum over few or no entries.  With
    # alpha = 0 every ternary term vanishes, so hom-pre-lie passes; it is
    # still compared as a sub-report of hom-pre-lie-poisson.
    no_pre_lie = [c for c in CLASS_OPS if c != "hom-pre-lie"]
    for kept, classes in ((lambda x, p: x == p, CLASS_OPS),
                          (lambda x, p: x == (p + 1) % 3, CLASS_OPS),
                          (lambda x, p: False, no_pre_lie),
                          (lambda x, p: p != 1, CLASS_OPS)):
        cases.append((rand_algebra(3, kept), classes, False))
    top, twist = 10 ** 40 + 1, 3 ** 80
    cases += [(_at_lane_bound(n, F(top, 7), F(twist, 2)), CLASS_OPS, True) for n in (2, 3)]
    limits = set()
    for a, classes, at_bound in cases:
        for cls in classes:
            oracle = closure_check_class(a, cls, 1000)
            assert not oracle.passed
            for mw in (0, 3, 1000):
                mine, want = check_class(a, cls, mw), _capped(oracle, mw)
                assert (mine.passed, _flat(mine), str(mine)) == \
                    (want.passed, _flat(want), str(want)), (a.dim, cls, mw)
            if at_bound and cls == T:
                # the integer residual is the rational one times the scales 7 * 7 * 2
                largest = max(int(abs(c) * 98) for w in oracle.witnesses
                              if w[0] == "transposed-leibniz" for c in w[2])
                assert largest == 4 * a.dim ** 2 * top * top * twist
                assert largest.bit_length() == _Tables(a, CLASS_OPS[T]).lane - 1
                limits.add(a.dim)
    assert limits == {2, 3}


def test_check_errors_match_fraction_closures():
    def raised(fn, *args):
        with pytest.raises((UnboundParameterError, MissingOperationError)) as exc:
            fn(*args)
        return type(exc.value), exc.value.args

    tp2 = catalog.get("TP2")
    one = BilinearMap(2, ((0, 0, 0, F(1)),))
    cases = [
        # unbound parameters are reported before anything is missing
        (catalog.get("THP2"), "hom-pre-lie",
         (UnboundParameterError, ("presentation has unbound parameters ('lam',)",))),
        (AlgebraPresentation(2, dict(tp2.ops)), "hom-poisson",
         (MissingOperationError, ("map 'alpha' is missing",))),
        (tp2, "hom-pre-lie-poisson", (MissingOperationError, ("op 'star' is missing",))),
        (AlgebraPresentation(2, {}, dict(tp2.maps)), "transposed-hom-poisson",
         (MissingOperationError, ("op 'dot' is missing",))),
        (AlgebraPresentation(2, {"dot": one}, dict(tp2.maps)), "hom-poisson",
         (MissingOperationError, ("op 'bracket' is missing",))),
    ]
    for a, cls, expected in cases:
        assert raised(check_class, a, cls, 32) == expected, cls
        assert raised(closure_check_class, a, cls, 32) == expected, cls
    # an alpha that is not dim x dim is a shape error of the presentation
    for rows, cols in ((3, 2), (1, 2), (2, 3)):
        alpha = LinearMap.from_rows([[F(1)] * cols] * rows)
        with pytest.raises(DimensionError, match="map 'alpha' is %dx%d" % (rows, cols)):
            AlgebraPresentation(2, dict(tp2.ops), {"alpha": alpha})


def test_identity_terms_are_homogeneous():
    """Every term of a row has the same ops and alpha count, so one scale fits."""
    def ops_alphas_slots(term):
        if len(term) == 4:
            return (term[1],), 0, term[2:]
        assert term[3] in ("L", "R")
        return tuple(sorted(term[1:3])), 1, term[4:]

    for ident, (arity, terms) in IDENTITIES.items():
        shapes = set()
        for term in terms:
            ops, alphas, slots = ops_alphas_slots(term)
            assert sorted(slots) == list(range(arity)), ident
            shapes.add((ops, alphas))
        assert len(shapes) == 1, ident
    for cls, (subs, idents) in CLASS_FAMILIES.items():
        assert set(subs) <= set(CLASS_FAMILIES), cls
        for ident in idents:
            ops = ops_alphas_slots(IDENTITIES[ident][1][0])[0]
            assert set(ops) <= set(CLASS_OPS[cls]), (cls, ident)


def read_formula(text):
    """The (arity, terms) row of an IDENTITIES formula comment such as
    "2 a(z).{x,y} - {z.x, a(y)}": x, y and z are the slots 0, 1 and 2, a(.)
    is the twist, "." is dot, "*" is star and {,} is bracket, and each term
    has an optional integer coefficient and a sign."""
    toks, pos = re.findall(r"[0-9]+|[-+xyza.*{},()]", text), 0

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def operand():
        t = take()
        if t == "a":  # a(p)
            take()
            out = ("a", operand())
        elif t == "{":  # {p,q}
            left = product()
            take()
            out = ("bracket", left, product())
        elif t == "(":  # (p)
            out = product()
        else:
            return "xyz".index(t)
        take()  # the closing ) or }
        return out

    def product():
        left = operand()
        if pos < len(toks) and toks[pos] in (".", "*"):
            return ({".": "dot", "*": "star"}[take()], left, operand())
        return left

    terms = []
    while pos < len(toks):
        sign = -1 if toks[pos] == "-" else 1
        pos += toks[pos] in ("+", "-")
        c = sign * (int(take()) if toks[pos].isdigit() else 1)
        outer, left, right = product()
        if isinstance(left, int):
            terms.append((c, outer, left, right))
        elif left[0] == "a":
            terms.append((c, outer, right[0], "L", left[1], right[1], right[2]))
        else:
            terms.append((c, outer, left[0], "R", right[1], left[1], left[2]))
    return len(set(toks) & set("xyz")), tuple(terms)


def test_identity_rows_equal_their_formula_comments():
    """Each IDENTITIES row is the row its formula comment reads as, so a
    swapped slot or a flipped sign in either one fails here."""
    text = Path(axioms.__file__).read_text()
    comments = dict((ident, formula) for formula, ident in re.findall(
        r'^    # (.*)\n    "([a-z0-9-]+)": \(', text, re.M))
    assert comments.keys() == IDENTITIES.keys()
    for ident, formula in comments.items():
        assert read_formula(formula) == IDENTITIES[ident], (ident, formula)


def test_composite_check_builds_each_table_once(monkeypatch):
    """One composite check reads each op table once: one eval_bilinear call
    per nonempty cell of dot and of bracket, which its sub-reports reuse."""
    calls = []

    def counting(op, x, y):
        calls.append((op, x.index(1), y.index(1)))
        return eval_bilinear(op, x, y)

    monkeypatch.setattr(axioms, "eval_bilinear", counting)
    a = catalog.get("TP2")
    assert check_class(a, "transposed-hom-poisson").passed
    dot, bracket = a.op("dot"), a.op("bracket")
    cells = [(op, i, j) for op in (dot, bracket) for i, row in op.rows.items() for j in row]
    assert calls == cells
    assert len(calls) == 3 + 2 == 5


def test_composite_sub_reports_equal_standalone_checks():
    """Sub-reports on the parent's tables say what the standalone checks say."""
    composites = [cls for cls, (subs, _) in CLASS_FAMILIES.items() if subs]
    inputs = [a for _, _, a, _ in bound_fixtures()]
    inputs += [a for _, a, _ in perturbed_fixtures(40, seed=20261020)]
    inputs += [a for _, a in _random_algebras()]
    verdicts = set()
    for a in inputs:
        for cls in composites:
            if not set(CLASS_OPS[cls]) <= set(a.ops):
                continue
            for mw in (0, 3, 32):
                parent = check_class(a, cls, mw)
                for sub in CLASS_FAMILIES[cls][0]:
                    alone = check_class(a, sub, mw)
                    mine = parent.sub_reports[sub]
                    assert (mine.passed, _flat(mine), str(mine)) == \
                        (alone.passed, _flat(alone), str(alone)), (cls, sub, mw)
                    verdicts.add(alone.passed)
    assert verdicts == {True, False}


def test_composites_dispatch_through_class_checkers(monkeypatch):
    """The tracer times sub-reports by wrapping CLASS_CHECKERS entries, which
    must be called with the algebra as the first positional argument."""
    seen = []
    for sub, fn in list(CLASS_CHECKERS.items()):
        def spy(*args, sub=sub, fn=fn, **kwargs):
            seen.append((sub, args[0]))
            return fn(*args, **kwargs)
        monkeypatch.setitem(CLASS_CHECKERS, sub, spy)
    tp2, plp2 = catalog.get("TP2"), catalog.get("PLP2", {"a": F(0)})
    for a, cls in ((tp2, "hom-poisson"), (tp2, "transposed-hom-poisson"),
                   (plp2, "hom-pre-lie-poisson")):
        seen.clear()
        check_class(a, cls)
        subs = CLASS_FAMILIES[cls][0]
        assert seen == [(cls, a)] + [(sub, a) for sub in subs] and subs
