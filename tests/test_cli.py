import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import homstruct
from homstruct import catalog
from homstruct.axioms import CLASS_OPS
from homstruct.cli import main
from homstruct.constructions import bracket_from_two_derivations, tensor_product
from homstruct.core import (
    AlgebraPresentation,
    BilinearMap,
    FormatError,
    LinearMap,
    RepresentationPresentation,
    parse_algebra,
    parse_comultiplications,
    parse_o_operator,
    parse_representation,
    serialize_algebra,
    serialize_comultiplications,
    serialize_o_operator,
    serialize_representation,
)
from homstruct.duality import trivial_dual
from homstruct.matched_pairs import (
    matched_pair_from_representation,
    zero_algebra,
    zero_representation,
)
from homstruct.representations import REP_OPS, regular_representation

from test_core import (
    _O_OPERATOR_DOCS,
    _algebra_docs,
    _comultiplication_docs,
    _representation_docs,
)

F = Fraction

PASS, FAIL, USAGE, PRECONDITION = 0, 1, 2, 3


@pytest.fixture
def thp2_file(tmp_path):
    p = tmp_path / "thp2.json"
    p.write_text(serialize_algebra(catalog.get("THP2", {"lam": F(1)})))
    return str(p)


@pytest.fixture
def plp2_file(tmp_path):
    p = tmp_path / "plp2.json"
    p.write_text(serialize_algebra(catalog.get("PLP2", {"a": F(0)})))
    return str(p)


@pytest.fixture
def thp2_reg_file(tmp_path):
    a = catalog.get("THP2", {"lam": F(1)})
    rep = regular_representation(a, "transposed-hom-poisson")
    p = tmp_path / "reg.json"
    p.write_text(serialize_representation(rep))
    return str(p)


def test_check_pass_and_fail(thp2_file, capsys):
    assert main(["check", thp2_file, "--class", "transposed-hom-poisson"]) == PASS
    assert main(["check", thp2_file, "--class", "hom-poisson"]) == FAIL
    out = capsys.readouterr().out
    assert "verdict: fail" in out


def test_check_json_report_schema(thp2_file, capsys):
    assert main(["check", thp2_file, "--class", "transposed-hom-poisson",
                 "--json"]) == PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "check"
    assert doc["verdict"] == "pass"
    assert doc["failures"] == 0
    assert "witnesses" in doc and "sub_reports" in doc


def test_check_deterministic_output(thp2_file, capsys):
    main(["check", thp2_file, "--class", "transposed-hom-poisson", "--json"])
    first = capsys.readouterr().out
    main(["check", thp2_file, "--class", "transposed-hom-poisson", "--json"])
    assert capsys.readouterr().out == first


def test_twist_alpha_h(tmp_path, capsys):
    tp2 = tmp_path / "tp2.json"
    tp2.write_text(serialize_algebra(catalog.get("TP2")))
    out = tmp_path / "twisted.json"
    assert main(["twist", str(tp2), "--alpha-h", "e1", "-o", str(out)]) == PASS
    assert main(["check", str(out), "--class", "transposed-hom-poisson"]) == PASS


def test_twist_alpha_h_takes_comma_rationals(tmp_path, capsys):
    tp2 = tmp_path / "tp2.json"
    tp2.write_text(serialize_algebra(catalog.get("TP2")))
    # a leading minus gives the term list an empty first term
    for pair in (("1,0", "e1"), ("-1,0", "-e1")):
        outputs = []
        for vec in pair:
            assert main(["twist", str(tp2), "--alpha-h=" + vec]) == PASS
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == ""
    assert main(["twist", str(tp2), "--alpha-h", "1,0,0"]) == USAGE
    assert capsys.readouterr().err == \
        "usage error: vector '1,0,0' has wrong length (need 2)\n"


def test_twist_derived(thp2_file, tmp_path):
    out = tmp_path / "derived.json"
    assert main(["twist", thp2_file, "--class", "transposed-hom-poisson",
                 "--derived", "1", "--type", "2", "-o", str(out)]) == PASS
    assert main(["check", str(out), "--class", "transposed-hom-poisson"]) == PASS


def test_twist_derived_exponent_above_the_limit_exits_3(tmp_path, capsys):
    # kind 2 at level 64 asks for alpha^(2^64); the limit is
    # core.MAX_TWIST_EXPONENT
    tp2 = tmp_path / "tp2.json"
    tp2.write_text(serialize_algebra(catalog.get("TP2")))
    assert main(["twist", str(tp2), "--class", "transposed-hom-poisson",
                 "--derived", "64", "--type", "2"]) == PRECONDITION
    assert capsys.readouterr() == ("", "precondition failed: derived twist exponent "
                                       "exceeds 1024\n")


def test_twist_of_algebra_outside_the_class_exits_3(tmp_path, capsys):
    # THP2 at lam = 1 with the identity twist is not Hom-Poisson; the
    # identity and zero are morphisms, so only the input's class fails
    a = catalog.get("THP2", {"lam": F(1)})
    alg = tmp_path / "untwisted.json"
    alg.write_text(serialize_algebra(AlgebraPresentation(
        2, a.ops, dict(a.maps, alpha=LinearMap.identity(2), zero=LinearMap.zero(2)), a.basis)))
    assert main(["check", str(alg), "--class", "hom-poisson"]) == FAIL
    capsys.readouterr()
    for g in ("alpha", "zero"):
        assert main(["twist", str(alg), "--yau", g, "--class", "hom-poisson"]) == PRECONDITION
        err = capsys.readouterr().err
        assert err == "precondition failed: input is not in class hom-poisson\n"


@pytest.mark.parametrize("value", ["1e3", "1.5", "1_0", "1/02"])
def test_cli_rationals_follow_the_document_grammar(thp2_file, capsys, value):
    assert main(["check", thp2_file, "--class", "hom-lie", "--params", "lam=" + value]) == USAGE
    assert capsys.readouterr().err == "usage error: bad rational %r in --params\n" % value
    # the comma form, and the e1-term form for a value its term grammar reads
    for vec in [value.upper() + ",0"] + [value + "*e1"] * ("/" in value):
        assert main(["twist", thp2_file, "--alpha-h", vec]) == USAGE
        assert capsys.readouterr().err == "usage error: bad rational in vector %r\n" % vec


def test_repeated_params_name_is_a_usage_error(thp2_file, capsys):
    # THP2 is Hom-Poisson at lam = 0 and not at lam = 1: neither binding is picked
    argv = ["check", thp2_file, "--class", "hom-poisson", "--params"]
    assert main(argv + ["lam=1,lam=0"]) == USAGE
    assert capsys.readouterr().err == "usage error: duplicate parameter 'lam' in --params\n"
    assert main(argv + ["lam = 0,lam=1"]) == USAGE


@pytest.mark.parametrize("vec", ["1/0*e1", "e1-1/0*e2", "1/0,1"])
def test_twist_alpha_h_division_by_zero_is_a_usage_error(thp2_file, capsys, vec):
    assert main(["twist", thp2_file, "--alpha-h", vec]) == USAGE
    err = capsys.readouterr().err
    assert err == "usage error: bad rational in vector %r\n" % vec


@pytest.mark.parametrize("flag, value", [("--yau", "alpha"), ("--compose", "alpha"),
                                         ("--derived", "1")])
def test_twist_needs_class_for_class_twists(thp2_file, capsys, flag, value):
    assert main(["twist", thp2_file, flag, value]) == USAGE
    assert capsys.readouterr().err == "usage error: twist %s needs --class\n" % flag


@pytest.mark.parametrize("extra, message", [
    (["--alpha-h", "e1", "--class", "hom-lie"], "twist --alpha-h takes no --class"),
    (["--alpha-h", "e1", "--type", "2"], "twist --type needs --derived"),
    (["--alpha-h", "e1", "--type", "1"], "twist --type needs --derived"),
    (["--yau", "alpha", "--class", "transposed-hom-poisson", "--type", "2"],
     "twist --type needs --derived"),
    (["--compose", "alpha", "--class", "transposed-hom-poisson", "--type", "1"],
     "twist --type needs --derived"),
])
def test_twist_rejects_options_it_would_ignore(thp2_file, capsys, extra, message):
    assert main(["twist", thp2_file] + extra) == USAGE
    assert capsys.readouterr() == ("", "usage error: %s\n" % message)


def test_twist_derived_type_defaults_to_1(thp2_file, tmp_path, capsys):
    outs = []
    for kind in ([], ["--type", "1"], ["--type", "2"]):
        assert main(["twist", thp2_file, "--class", "transposed-hom-poisson",
                     "--derived", "2"] + kind) == PASS
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] != outs[2]


@pytest.mark.parametrize("first, second", [
    (["--alpha-h", "e1"], ["--yau", "alpha"]),
    (["--yau", "alpha"], ["--compose", "alpha"]),
    (["--compose", "alpha"], ["--derived", "1"]),
    (["--derived", "1"], ["--alpha-h", "e1"]),
])
def test_twist_options_are_mutually_exclusive(thp2_file, capsys, first, second):
    argv = ["twist", thp2_file, "--class", "transposed-hom-poisson"] + first + second
    assert main(argv) == USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument %s: not allowed with argument %s"
                          % (second[0], first[0])), err


def test_tensor(thp2_file, tmp_path):
    out = tmp_path / "tensor.json"
    assert main(["tensor", thp2_file, thp2_file, "--class",
                 "transposed-hom-poisson", "-o", str(out)]) == PASS
    doc = json.loads(out.read_text())
    assert doc["dim"] == 4


def test_subadjacent(plp2_file, tmp_path):
    out = tmp_path / "sub.json"
    assert main(["subadjacent", plp2_file, "-o", str(out)]) == PASS
    assert main(["check", str(out), "--class", "transposed-hom-poisson"]) == PASS


def test_bracketd(tmp_path):
    # THP2 with the catalog derivation D = diag(0, lam) attached as a map
    a = catalog.get("THP2", {"lam": F(1)})
    maps = dict(a.maps)
    maps["D"] = LinearMap.diagonal([F(0), F(1)])
    from homstruct.core import AlgebraPresentation
    src = tmp_path / "alg.json"
    src.write_text(serialize_algebra(
        AlgebraPresentation(a.dim, {"dot": a.op("dot")}, maps, a.basis)))
    out = tmp_path / "built.json"
    assert main(["bracketd", str(src), "--map", "D", "-o", str(out)]) == PASS
    assert main(["check", str(out), "--class", "transposed-hom-poisson"]) == PASS


def test_bracketd_of_two_derivations(tmp_path, capsys):
    # THP2 (lam = 1) with D = diag(0, lam) as both derivations: the bracket
    # D(x).D(y) - D(y).D(x) of the commutative dot is zero
    a = catalog.get("THP2", {"lam": F(1)})
    D = LinearMap.diagonal([F(0), F(1)])
    src = tmp_path / "alg.json"
    src.write_text(serialize_algebra(
        AlgebraPresentation(a.dim, {"dot": a.op("dot")}, dict(a.maps, D=D), a.basis)))
    assert main(["bracketd", str(src), "--map", "D", "--map2", "D"]) == PASS
    out = capsys.readouterr().out
    built = bracket_from_two_derivations(parse_algebra(src.read_text()), D, D)
    assert out == serialize_algebra(built)
    assert parse_algebra(out).op("bracket") == BilinearMap(2)


def test_semidirect_and_checkrep(thp2_file, thp2_reg_file, tmp_path):
    assert main(["checkrep", thp2_file, thp2_reg_file, "--class",
                 "transposed-hom-poisson"]) == PASS
    out = tmp_path / "sd.json"
    assert main(["semidirect", thp2_file, thp2_reg_file, "--class",
                 "transposed-hom-poisson", "-o", str(out)]) == PASS
    assert main(["check", str(out), "--class", "transposed-hom-poisson"]) == PASS


def test_semidirect_of_algebra_outside_the_class_exits_3(tmp_path, capsys):
    # CA2a's dot and alpha with {e1,e2} = e1, and the zero module: the module
    # axioms hold, but the algebra is not transposed Hom-Poisson
    ca = catalog.get("CA2a")
    bracket = BilinearMap(2, ((0, 1, 0, F(1)), (1, 0, 0, F(-1))))
    alg = tmp_path / "bad.json"
    alg.write_text(serialize_algebra(AlgebraPresentation(
        2, {"dot": ca.op("dot"), "bracket": bracket}, {"alpha": ca.alpha})))
    zero = (LinearMap.zero(1), LinearMap.zero(1))
    rep = tmp_path / "zero.json"
    rep.write_text(serialize_representation(RepresentationPresentation(
        2, 1, {"s": zero, "rho": zero}, LinearMap.identity(1))))
    argv = ["semidirect", str(alg), str(rep), "--class", "transposed-hom-poisson"]
    assert main(["checkrep"] + argv[1:]) == PASS
    assert main(argv) == PRECONDITION
    assert capsys.readouterr().err == (
        "precondition failed: input is not in class transposed-hom-poisson\n")


def _zero_semidirect_files(tmp_path, n, m):
    """A zero transposed Hom-Poisson algebra of dim n and a zero module of
    dim m over it, each with the identity twist, as document paths."""
    cls = "transposed-hom-poisson"
    alg, rep = tmp_path / ("zero%d.json" % n), tmp_path / ("zero%d-%d.json" % (n, m))
    alg.write_text(serialize_algebra(zero_algebra(n, LinearMap.identity(n), CLASS_OPS[cls])))
    rep.write_text(serialize_representation(
        zero_representation(n, m, LinearMap.identity(m), REP_OPS[cls])))
    return str(alg), str(rep)


def test_builds_above_max_dim_exit_2_within_a_second(tmp_path, capsys):
    # two valid dim-64 documents: their tensor product would have dim 4096
    zero64 = tmp_path / "zero64.json"
    zero64.write_text(serialize_algebra(zero_algebra(64, LinearMap.identity(64), ("dot",))))
    alg, rep = _zero_semidirect_files(tmp_path, 33, 32)
    for argv, message in (
            (["tensor", str(zero64), str(zero64), "--class", "comm-hom-assoc"],
             "tensor product dim 4096 exceeds 64"),
            (["semidirect", alg, rep, "--class", "transposed-hom-poisson"],
             "double dim 65 exceeds 64")):
        start = time.perf_counter()
        assert main(argv) == USAGE
        assert time.perf_counter() - start < 1.0, argv[0]
        assert capsys.readouterr() == ("", "input error: %s\n" % message)


def test_oversize_double_is_refused_before_the_gates(tmp_path, capsys):
    # one dot entry e_0.e_1 = e_0 and no e_1.e_0: the dim-33 algebra fails
    # every class gate, but its doubles (dim 65 and 66) are refused first
    odd = tmp_path / "odd33.json"
    odd.write_text(serialize_algebra(AlgebraPresentation(
        33, {"dot": BilinearMap(33, ((0, 1, 0, F(1)),)), "bracket": BilinearMap(33)},
        {"alpha": LinearMap.identity(33)})))
    _, rep = _zero_semidirect_files(tmp_path, 33, 32)
    for argv, message in (
            (["semidirect", str(odd), rep, "--class", "transposed-hom-poisson"],
             "double dim 65 exceeds 64"),
            (["manin", str(odd), str(odd)], "double dim 66 exceeds 64"),
            (["equivalence", str(odd), str(odd)], "double dim 66 exceeds 64")):
        start = time.perf_counter()
        assert main(argv) == USAGE, argv[0]
        assert time.perf_counter() - start < 1.0, argv[0]
        assert capsys.readouterr() == ("", "input error: %s\n" % message)


def test_builds_at_max_dim_write_documents_that_parse_back(tmp_path):
    ca = catalog.get("CA2a")
    dim8 = tmp_path / "ca8.json"
    dim8.write_text(serialize_algebra(
        tensor_product(tensor_product(ca, ca, "comm-hom-assoc"), ca, "comm-hom-assoc")))
    alg, rep = _zero_semidirect_files(tmp_path, 32, 32)
    out = tmp_path / "out.json"
    for argv in (["tensor", str(dim8), str(dim8), "--class", "comm-hom-assoc"],
                 ["semidirect", alg, rep, "--class", "transposed-hom-poisson"]):
        assert main(argv + ["-o", str(out)]) == PASS
        text = out.read_text()
        a = parse_algebra(text)
        assert a.dim == 64 and serialize_algebra(a) == text, argv[0]


def test_dualrep(thp2_file, thp2_reg_file, tmp_path):
    dual_out = tmp_path / "dual.json"
    # hypotheses fail for the regular module, so the verdict is fail
    assert main(["dualrep", thp2_file, thp2_reg_file,
                 "--rep-output", str(dual_out)]) == FAIL
    assert dual_out.exists()
    assert main(["checkrep", thp2_file, str(dual_out), "--class",
                 "transposed-hom-poisson"]) == FAIL


def _unit(i, j):
    return LinearMap.from_rows([[F(int((r, c) == (i, j))) for c in range(2)] for r in range(2)])


@pytest.mark.parametrize("a, rep, checkrep", [
    # e1.e1 = e1 with a zero bracket; s(e1) is nilpotent, not idempotent,
    # so the assoc-action axiom fails while every dual hypothesis holds
    (AlgebraPresentation(1, {"dot": BilinearMap(1, ((0, 0, 0, F(1)),)),
                             "bracket": BilinearMap(1)}, {"alpha": LinearMap.identity(1)}),
     RepresentationPresentation(1, 2, {"s": (_unit(0, 1),), "rho": (LinearMap.zero(2),)}),
     FAIL),
    # e1.e1 = e1 and e1.e2 = e2 is not commutative; s(e1) = E11 and
    # s(e2) = E12 make a module whose transposed actions are not one
    (AlgebraPresentation(2, {"dot": BilinearMap(2, ((0, 0, 0, F(1)), (0, 1, 1, F(1)))),
                             "bracket": BilinearMap(2)}, {"alpha": LinearMap.identity(2)}),
     RepresentationPresentation(2, 2, {"s": (_unit(0, 0), _unit(0, 1)),
                                       "rho": (LinearMap.zero(2),) * 2}),
     PASS),
], ids=["non-module", "algebra-outside-the-class"])
def test_dualrep_exits_3_when_the_hypotheses_hold_but_the_theorem_does_not(
        tmp_path, capsys, a, rep, checkrep):
    alg, rep_file, dual = tmp_path / "alg.json", tmp_path / "rep.json", tmp_path / "dual.json"
    alg.write_text(serialize_algebra(a))
    rep_file.write_text(serialize_representation(rep))
    assert main(["checkrep", str(alg), str(rep_file),
                 "--class", "transposed-hom-poisson"]) == checkrep
    capsys.readouterr()
    assert main(["dualrep", str(alg), str(rep_file), "--rep-output", str(dual)]) == PRECONDITION
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("precondition failed: ")
    assert not dual.exists()


def test_matched_check_and_double(thp2_file, thp2_reg_file, tmp_path):
    a = catalog.get("THP2", {"lam": F(1)})
    from homstruct.matched_pairs import (
        matched_pair_from_representation,
    )
    from homstruct.representations import regular_representation as reg
    mp = matched_pair_from_representation(
        a, reg(a, "transposed-hom-poisson"), "transposed-hom-poisson")
    b_file = tmp_path / "b.json"
    b_file.write_text(serialize_algebra(mp.algebra_b))
    ab = tmp_path / "ab.json"
    ab.write_text(serialize_representation(mp.actions_ab))
    ba = tmp_path / "ba.json"
    ba.write_text(serialize_representation(mp.actions_ba))
    argv_tail = [thp2_file, str(b_file), str(ab), str(ba),
                 "--class", "transposed-hom-poisson"]
    assert main(["matched", "check"] + argv_tail) == PASS
    out = tmp_path / "double.json"
    assert main(["matched", "double"] + argv_tail + ["-o", str(out)]) == PASS
    assert main(["check", str(out), "--class", "transposed-hom-poisson"]) == PASS


def test_manin(thp2_file, tmp_path):
    dual = tmp_path / "dual.json"
    dual.write_text(serialize_algebra(
        trivial_dual(catalog.get("THP2", {"lam": F(1)}))))
    assert main(["manin", thp2_file, str(dual)]) == FAIL


def test_bialgebra(thp2_file, tmp_path):
    a = catalog.get("THP2", {"lam": F(1)})
    cf = tmp_path / "coops.json"
    cf.write_text(serialize_comultiplications(trivial_dual(a)))
    assert main(["bialgebra", thp2_file, str(cf)]) == PASS


def test_equivalence(thp2_file, tmp_path, capsys):
    dual = tmp_path / "dual.json"
    dual.write_text(serialize_algebra(
        trivial_dual(catalog.get("THP2", {"lam": F(1)}))))
    # the three verdicts disagree for the zero dual: reported as a failure
    assert main(["equivalence", thp2_file, str(dual)]) == FAIL
    assert "equivalence broken" in capsys.readouterr().err


def test_equivalence_passing_text_and_json(tmp_path, capsys):
    # the dot-only algebra e1.e1 = e1, e1.e2 = e2.e1 = e2 with alpha = id
    # and a zero bracket: with its zero dual the three verdicts pass
    a = AlgebraPresentation(
        2, {"dot": BilinearMap(2, ((0, 0, 0, F(1)), (0, 1, 1, F(1)), (1, 0, 1, F(1)))),
            "bracket": BilinearMap(2)},
        {"alpha": LinearMap.identity(2)})
    alg, dual = tmp_path / "alg.json", tmp_path / "dual.json"
    alg.write_text(serialize_algebra(a))
    dual.write_text(serialize_algebra(trivial_dual(a)))
    assert main(["equivalence", str(alg), str(dual)]) == PASS
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert captured.err == ""
    assert lines[:2] == ["command: equivalence", "shared verdict: pass"]
    sections = [lines.index(key + ":") for key in ("bialgebra", "matched_pair", "manin")]
    assert sections == sorted(sections)
    assert all(lines[at + 1].startswith("  verdict: pass (checked ") for at in sections)
    assert main(["equivalence", str(alg), str(dual), "--json"]) == PASS
    doc = json.loads(capsys.readouterr().out)
    assert (doc["command"], doc["inputs"], doc["verdict"]) == (
        "equivalence", [str(alg), str(dual)], "pass")
    assert [doc[key]["verdict"] for key in ("bialgebra", "matched_pair", "manin")] == \
        ["pass"] * 3


@pytest.mark.parametrize("command", ["manin", "equivalence"])
def test_dual_of_another_dimension_is_an_input_error(thp2_file, tmp_path, capsys, command):
    a1, ca2a = tmp_path / "a1.json", tmp_path / "ca2a.json"
    a1.write_text(json.dumps(_ALG1))
    ca2a.write_text(serialize_algebra(catalog.get("CA2a")))
    # CA2a has no bracket: the dimensions are compared before the class gates
    for pair in ([str(a1), thp2_file], [str(ca2a), str(a1)]):
        assert main([command] + pair) == USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: dual algebra must have the same dimension\n"


def test_oop_check_and_induce(plp2_file, tmp_path):
    sub = tmp_path / "sub.json"
    assert main(["subadjacent", plp2_file, "-o", str(sub)]) == PASS
    from homstruct.core import parse_algebra
    a = parse_algebra(sub.read_text())
    rep = regular_representation(a, "transposed-hom-poisson")
    rf = tmp_path / "rep.json"
    rf.write_text(serialize_representation(rep))
    tf = tmp_path / "T.json"
    tf.write_text(serialize_o_operator(LinearMap.identity(2)))
    assert main(["oop", "check", str(sub), str(rf), str(tf), "--class",
                 "transposed-hom-poisson"]) == PASS
    out = tmp_path / "induced.json"
    assert main(["oop", "induce", str(sub), str(rf), str(tf), "--class",
                 "transposed-hom-poisson", "-o", str(out)]) == PASS
    assert main(["check", str(out), "--class", "hom-pre-lie-poisson"]) == PASS


def test_oop_check_with_a_module_over_another_algebra_exits_3(thp2_file, tmp_path,
                                                                capsys):
    rep, tf = tmp_path / "rep.json", tmp_path / "T.json"
    rep.write_text(json.dumps(_REP1))
    tf.write_text(serialize_o_operator(LinearMap.zero(2, 1)))
    assert main(["oop", "check", thp2_file, str(rep), str(tf),
                 "--class", "transposed-hom-poisson"]) == PRECONDITION
    assert capsys.readouterr().err == (
        "precondition failed: representation algebra_dim does not match the algebra\n")


def test_rb_check_of_a_wrong_shape_operator_is_an_input_error(thp2_file, tmp_path, capsys):
    rf = tmp_path / "R.json"
    rf.write_text(serialize_o_operator(LinearMap.zero(2, 1)))
    assert main(["rb", "check", thp2_file, str(rf)]) == USAGE
    assert capsys.readouterr().err == (
        "input error: T must map the module space into the algebra\n")


def test_rb_check_and_induce(thp2_file, tmp_path):
    rf = tmp_path / "R.json"
    rf.write_text(serialize_o_operator(LinearMap.zero(2)))
    assert main(["rb", "check", thp2_file, str(rf)]) == PASS
    out = tmp_path / "induced.json"
    assert main(["rb", "induce", thp2_file, str(rf), "-o", str(out)]) == PASS
    assert main(["check", str(out), "--class", "hom-pre-lie-poisson"]) == PASS
    # the alias names the one class that rb induce takes
    assert main(["rb", "induce", thp2_file, str(rf), "--class", "transposed-poisson"]) == PASS


@pytest.mark.parametrize("command", ["rb", "oop"])
def test_class_without_o_operator_notion_is_a_precondition(thp2_file, thp2_reg_file,
                                                           tmp_path, capsys, command):
    rf = tmp_path / "R.json"
    rf.write_text(serialize_o_operator(LinearMap.zero(2)))
    argv = {"rb": ["rb", "check", thp2_file, str(rf)],
            "oop": ["oop", "check", thp2_file, thp2_reg_file, str(rf)]}[command]
    assert main(argv + ["--class", "hom-poisson"]) == PRECONDITION
    assert capsys.readouterr() == (
        "", "precondition failed: no O-operator notion for class hom-poisson\n")


def test_rb_induce_of_algebra_outside_the_class_exits_3(tmp_path, capsys):
    # a non-commutative dot: R = 0 passes the Rota-Baxter check, but the
    # algebra is not transposed Hom-Poisson
    alg, rf = tmp_path / "alg.json", tmp_path / "R.json"
    alg.write_text(serialize_algebra(AlgebraPresentation(
        2, {"dot": BilinearMap(2, ((0, 0, 0, F(1)), (0, 1, 1, F(1)))),
            "bracket": BilinearMap(2)}, {"alpha": LinearMap.identity(2)})))
    rf.write_text(serialize_o_operator(LinearMap.zero(2)))
    assert main(["rb", "check", str(alg), str(rf)]) == PASS
    capsys.readouterr()
    assert main(["rb", "induce", str(alg), str(rf)]) == PRECONDITION
    assert capsys.readouterr() == (
        "", "precondition failed: input is not in class transposed-hom-poisson\n")


def test_derivations(thp2_file, capsys):
    assert main(["derivations", thp2_file, "--op", "dot", "--json"]) == PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 1
    assert doc["basis"] == [[["0", "0"], ["0", "1"]]]


def test_a_missing_op_or_map_is_named_without_quotes(thp2_file, capsys):
    for argv, message in ((["derivations", thp2_file, "--op", "nope"], "op 'nope' is missing"),
                          (["bracketd", thp2_file, "--map", "nope"], "map 'nope' is missing")):
        assert main(argv) == PRECONDITION
        assert capsys.readouterr() == ("", "precondition failed: %s\n" % message)


def test_catalog_list_and_show(capsys, tmp_path):
    assert main(["catalog", "list"]) == PASS
    assert "THP2" in capsys.readouterr().out
    assert main(["catalog", "list", "--json"]) == PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc == [catalog.describe(name) for name in catalog.names()]
    # list takes no entry name, listed or not
    for name in ("THP2", "no-such-entry"):
        assert main(["catalog", "list", name]) == USAGE
        assert capsys.readouterr() == ("", "usage error: catalog list takes no entry name\n")
    out = tmp_path / "thp2.json"
    assert main(["catalog", "show", "THP2", "--params", "lam=1",
                 "-o", str(out)]) == PASS
    assert json.loads(out.read_text())["dim"] == 2


def test_usage_errors(thp2_file, tmp_path, capsys):
    assert main(["bogus"]) == USAGE
    assert main(["catalog", "show"]) == USAGE
    assert main(["check", str(tmp_path / "missing.json"),
                 "--class", "hom-lie"]) == USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["check", str(bad), "--class", "hom-lie"]) == USAGE
    capsys.readouterr()
    # nesting past the JSON decoder's recursion limit
    bad.write_text('{"dim": 1, "ops": %s}' % ("[" * 200000 + "]" * 200000))
    assert main(["check", str(bad), "--class", "hom-lie"]) == USAGE
    assert capsys.readouterr() == ("", "input error: document nested too deeply\n")
    for argv, message in (
            ([], "a subcommand is required"),
            (["check", thp2_file, "--class", "hom-lie", "--params", "lam"],
             "bad --params item 'lam' (expected k=v)"),
            (["check", thp2_file, "--class", "hom-lie", "--params", "=1,lam=0"],
             "bad parameter name '' in --params"),
            (["check", thp2_file, "--class", "hom-lie", "--params", "1x=2"],
             "bad parameter name '1x' in --params"),
            (["twist", thp2_file, "--alpha-h", "e1+f2"], "bad vector term 'f2'"),
            # a dangling sign is named as the sign, not as the empty term after it
            (["twist", thp2_file, "--alpha-h=e1-"], "bad vector term '-'"),
            (["twist", thp2_file, "--alpha-h=e1--e2"], "bad vector term '-'"),
            (["twist", thp2_file, "--alpha-h", "e1-e3"], "basis index out of range in 'e3'"),
            (["twist", thp2_file], "twist needs one of --alpha-h, --yau, --compose, --derived"),
            (["twist", thp2_file, "--derived", "0", "--class", "transposed-hom-poisson"],
             "argument --derived: '0' is not positive"),
            (["twist", thp2_file, "--derived", "-1", "--class", "transposed-hom-poisson"],
             "argument --derived: '-1' is not positive"),
            (["twist", thp2_file, "--derived", "x", "--class", "transposed-hom-poisson"],
             "argument --derived: 'x' is not an integer"),
            (["check", thp2_file, "--class", "hom-lie", "--max-witnesses", "x"],
             "argument --max-witnesses: 'x' is not an integer"),
            # the class is refused before the missing operator file is read
            (["rb", "induce", thp2_file, str(tmp_path / "missing.json"), "--class", "hom-poisson"],
             "rb induce takes only --class transposed-hom-poisson")):
        assert main(argv) == USAGE
        assert capsys.readouterr() == ("", "usage error: %s\n" % message)
    # an unknown --class is a usage error on every subcommand that takes one
    for argv in (["check", thp2_file], ["twist", thp2_file, "--yau", "alpha"],
                 ["tensor", thp2_file, thp2_file], ["semidirect", thp2_file, thp2_file],
                 ["checkrep", thp2_file, thp2_file],
                 ["matched", "check", thp2_file, thp2_file, thp2_file, thp2_file],
                 ["oop", "check", thp2_file, thp2_file, thp2_file],
                 ["rb", "check", thp2_file, thp2_file]):
        assert main(argv + ["--class", "nope"]) == USAGE, argv
        assert capsys.readouterr() == (
            "", "usage error: argument --class: unknown algebra class 'nope'\n")


# each subcommand's required arguments, in the order the parser lists them
_REQUIRED_ARGUMENTS = {
    "check": "--class, file",
    "twist": "file",
    "tensor": "--class, file1, file2",
    "subadjacent": "file",
    "bracketd": "--map, file",
    "semidirect": "--class, algebra, rep",
    "checkrep": "--class, algebra, rep",
    "dualrep": "algebra, rep",
    "matched": "action, --class, algebra_a, algebra_b, actions_ab, actions_ba",
    "manin": "algebra, dual",
    "bialgebra": "algebra, coops",
    "equivalence": "algebra, dual",
    "oop": "action, --class, algebra, rep, operator",
    "rb": "action, algebra, operator",
    "derivations": "algebra",
    "catalog": "action",
}


def test_parser_surface(capsys):
    for command, required in _REQUIRED_ARGUMENTS.items():
        assert main([command]) == USAGE
        assert capsys.readouterr() == (
            "", "usage error: the following arguments are required: %s\n" % required)
    assert main(["matched", "zzz"]) == USAGE
    assert capsys.readouterr().err == (
        "usage error: argument action: invalid choice: 'zzz' (choose from 'check', 'double')\n")


def test_unwritable_output_is_a_usage_error(thp2_file, thp2_reg_file, tmp_path, capsys):
    bad = str(tmp_path / "no-such-dir" / "x.json")
    for argv in (["catalog", "show", "THP2", "-o", bad],
                 ["check", thp2_file, "--class", "hom-lie", "-o", bad],
                 ["dualrep", thp2_file, thp2_reg_file, "-o", bad],
                 ["dualrep", thp2_file, thp2_reg_file, "--rep-output", bad]):
        assert main(argv) == USAGE, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error: cannot write %s: " % bad), err


def test_non_object_sections_are_format_errors(thp2_file, tmp_path, capsys):
    def doc(path, **fields):
        path.write_text(json.dumps(fields))
        return str(path)

    alg = tmp_path / "alg.json"
    for fields in ({"ops": [], "maps": {"alpha": [["1", "0"], ["0", "1"]]}},
                   {"ops": {}, "maps": []}):
        assert main(["check", doc(alg, dim=2, **fields),
                     "--class", "hom-lie"]) == USAGE
    rep = doc(tmp_path / "rep.json", algebra_dim=2, module_dim=1, actions=[],
              beta=[["1"]])
    assert main(["checkrep", thp2_file, rep,
                 "--class", "transposed-hom-poisson"]) == USAGE
    coops = doc(tmp_path / "coops.json", dim=2, coops=[])
    assert main(["bialgebra", thp2_file, coops]) == USAGE
    err = capsys.readouterr().err
    assert err.count("input error: ") == 4 and "must be an object" in err
    assert "Traceback" not in err


def test_precondition_exit_code(thp2_file, capsys):
    # asking for a class whose operations the algebra does not carry
    assert main(["check", thp2_file, "--class", "hom-pre-lie"]) == PRECONDITION
    capsys.readouterr()


@pytest.mark.parametrize("command", ["checkrep", "semidirect", "matched"])
def test_class_without_module_axioms_is_a_precondition(thp2_file, thp2_reg_file,
                                                       capsys, command):
    argv = {"checkrep": ["checkrep", thp2_file, thp2_reg_file],
            "semidirect": ["semidirect", thp2_file, thp2_reg_file],
            "matched": ["matched", "check", thp2_file, thp2_file, thp2_reg_file,
                        thp2_reg_file]}[command]
    assert main(argv + ["--class", "hom-poisson"]) == PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == (
        "precondition failed: class hom-poisson has no module axioms (classes with "
        "module axioms: comm-hom-assoc, hom-lie, transposed-hom-poisson, hom-pre-lie, "
        "hom-pre-lie-poisson)\n")


_ALG1 = {"dim": 1, "ops": {"dot": [], "bracket": []}, "maps": {"alpha": [["1"]]}}
_REP1 = {"algebra_dim": 1, "module_dim": 1,
         "actions": {"s": [[["0"]]], "rho": [[["0"]]]}, "beta": [["1"]]}


@pytest.mark.parametrize("alg_changes, rep_changes, params", [
    ({"dim": True}, {}, ""),
    ({"params": "ab", "maps": {"alpha": [["a"]]}}, {}, "a=1,b=1"),
    ({"params": ["a", "a"], "maps": {"alpha": [["a"]]}}, {}, "a=1"),
    ({"dim": 2, "basis": [1, 1], "maps": {"alpha": [["1", "0"], ["0", "1"]]}},
     {"algebra_dim": 2, "actions": {"s": [[["0"]]] * 2, "rho": [[["0"]]] * 2}}, ""),
    ({}, {"algebra_dim": True}, ""),
    ({}, {"module_dim": True}, ""),
    ({}, {"params": ["1x"], "beta": [["1x"]]}, ""),
    ({}, {"params": ["t", "t"], "beta": [["t"]]}, "t=1"),
    ({"dim": 2, "maps": {"alpha": [["1"]]}}, {}, ""),
    ({}, {"actions": {"s": [[["0", "0"]]], "rho": [[["0"]]]}}, ""),
    ({}, {"beta": [[]]}, ""),
    ({"params": ["t\n"], "maps": {"alpha": [["t\n"]]}}, {}, ""),
    ({"maps": {"alpha": [["1\n"]]}}, {}, ""),
])
def test_malformed_headers_are_format_errors(tmp_path, capsys, alg_changes,
                                             rep_changes, params):
    alg, rep = tmp_path / "alg.json", tmp_path / "rep.json"
    alg.write_text(json.dumps(dict(_ALG1, **alg_changes)))
    rep.write_text(json.dumps(dict(_REP1, **rep_changes)))
    argv = ["checkrep", str(alg), str(rep), "--class", "transposed-hom-poisson"]
    assert main(argv + (["--params", params] if params else [])) == USAGE
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err


@pytest.mark.parametrize("key", ["dim", "algebra_dim", "module_dim"])
def test_dim_above_the_cap_is_a_format_error(tmp_path, capsys, key):
    from homstruct.core import MAX_DIM
    alg, rep = tmp_path / "alg.json", tmp_path / "rep.json"
    over = {key: MAX_DIM + 1}
    alg.write_text(json.dumps(dict(_ALG1, **(over if key == "dim" else {}))))
    rep.write_text(json.dumps(dict(_REP1, **({} if key == "dim" else over))))
    assert main(["checkrep", str(alg), str(rep), "--class", "transposed-hom-poisson"]) == USAGE
    assert capsys.readouterr().err == 'input error: "%s" must be at most %d\n' % (key, MAX_DIM)


_LONG = "7" * 4301
_LAM_DOC = ('{"dim": %s, "params": ["lam"], "ops": {"dot": [{"i": %s, "j": 0, "k": 0, '
            '"c": "%s"}]}, "maps": {"alpha": [["%s"]]}}')


@pytest.mark.parametrize("where", ["dim", "i", "c", "denominator", "alpha", "params"])
def test_numbers_past_the_digit_cap_are_format_errors(tmp_path, capsys, where):
    """An integer of more than MAX_DIGITS digits, as a JSON number, in a
    coefficient or a matrix entry, or in a --params value, is a FormatError
    in the package's words, and the CLI exits 2 with it."""
    from homstruct.core import MAX_DIGITS, read_coefficient
    assert len(_LONG) == MAX_DIGITS + 1
    fields = {"dim": "1", "i": "0", "c": "lam", "alpha": "1"}
    if where in fields:
        fields[where] = _LONG
    if where == "denominator":
        fields["c"] = "1/" + _LONG
    text = _LAM_DOC % (fields["dim"], fields["i"], fields["c"], fields["alpha"])
    alg = tmp_path / "alg.json"
    alg.write_text(text)
    binding = "lam=" + (_LONG if where == "params" else "1")
    with pytest.raises(FormatError) as exc:
        if where == "params":
            read_coefficient(_LONG)
        else:
            parse_algebra(text)
    assert str(exc.value) == "a number has more than 4300 digits"
    assert main(["check", str(alg), "--class", "comm-hom-assoc", "--params", binding]) == USAGE
    assert capsys.readouterr() == ("", "input error: a number has more than 4300 digits\n")
    # at the cap the number reads, and a dim or an index is then out of range
    alg.write_text(text.replace(_LONG, _LONG[1:]))
    argv = ["check", str(alg), "--class", "comm-hom-assoc"]
    assert main(argv + ["--params", binding.replace(_LONG, _LONG[1:])]) == (
        USAGE if where in ("dim", "i") else PASS)
    assert "digits" not in capsys.readouterr().err


def test_results_past_the_digit_cap_are_written(tmp_path, capsys):
    """Exact results with more digits than MAX_DIGITS are written, in text
    and --json, and a document holding one does not read back."""
    from homstruct.core import MAX_DIGITS
    lie = tmp_path / "lie.json"
    c = "5" + "0" * (MAX_DIGITS - 1)
    lie.write_text(_LAM_DOC.replace('"dot"', '"bracket"') % ("1", "0", c, "1"))
    # skew-symmetry: [e1, e1] + [e1, e1] = 2c e1; hom-jacobi: 3 [e1, [e1, e1]] = 3c^2 e1
    skew, jacobi = "1" + "0" * MAX_DIGITS, "75" + "0" * (2 * MAX_DIGITS - 2)
    argv = ["check", str(lie), "--class", "hom-lie", "--params", "lam=1"]
    assert main(argv + ["--json"]) == FAIL
    doc = json.loads(capsys.readouterr().out)
    assert [(w["identity"], w["tuple"], w["residual"]) for w in doc["witnesses"]] == [
        ("hom-jacobi", [0, 0, 0], [jacobi]), ("skew-symmetry", [0, 0], [skew])]
    assert main(argv) == FAIL
    assert capsys.readouterr().out == (
        "command: check\nverdict: fail (checked 2, failures 2)\n"
        "  witness hom-jacobi (0, 0, 0) residual [%s]\n"
        "  witness skew-symmetry (0, 0) residual [%s]\n" % (jacobi, skew))
    dot, out = tmp_path / "dot.json", tmp_path / "out.json"
    dot.write_text(_LAM_DOC % ("1", "0", "1" + "0" * 4000, "1"))
    argv = ["tensor", str(dot), str(dot), "--class", "comm-hom-assoc", "--params", "lam=1"]
    assert main(argv + ["-o", str(out)]) == PASS
    assert capsys.readouterr() == ("", "")
    assert json.loads(out.read_text())["ops"]["dot"] == [
        {"i": 0, "j": 0, "k": 0, "c": "1" + "0" * 8000}]
    with pytest.raises(FormatError, match="^a number has more than 4300 digits$"):
        parse_algebra(out.read_text())


@pytest.mark.parametrize("command", ["check", "checkrep", "manin"])
def test_negative_max_witnesses_is_a_usage_error(thp2_file, thp2_reg_file, tmp_path,
                                                  capsys, command):
    dual = tmp_path / "dual.json"
    dual.write_text(serialize_algebra(trivial_dual(catalog.get("THP2", {"lam": F(1)}))))
    argv, code = {
        "check": (["check", thp2_file, "--class", "hom-poisson"], FAIL),
        "checkrep": (["checkrep", thp2_file, thp2_reg_file, "--class",
                      "transposed-hom-poisson"], PASS),
        "manin": (["manin", thp2_file, str(dual)], FAIL)}[command]
    assert main(argv + ["--max-witnesses", "-1"]) == USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == "usage error: argument --max-witnesses: '-1' is negative\n"
    assert main(argv + ["--max-witnesses", "0"]) == code
    from homstruct.core import run_identity_families
    with pytest.raises(ValueError):
        run_identity_families(1, [], -1)


def test_parser_reuse_gives_the_same_bytes(thp2_file, thp2_reg_file, tmp_path, capsys):
    """In-process calls on the one cached parser print exactly what the same
    calls print, each on a freshly built parser."""
    from homstruct import cli
    cat_thp2 = tmp_path / "cat.json"
    cat_thp2.write_text(serialize_algebra(catalog.get("THP2")))
    calls = [
        ["check", thp2_file, "--class", "hom-poisson", "--max-witnesses", "1"],
        ["check", str(cat_thp2), "--class", "transposed-hom-poisson", "--params",
         "lam=5/2", "--json"],
        ["checkrep", thp2_file, thp2_reg_file, "--class", "transposed-hom-poisson"],
        ["check", str(cat_thp2), "--class", "hom-poisson", "--params", "lam=1",
         "--max-witnesses", "0", "--json"],
        ["derivations", thp2_file, "--op", "dot"],
        ["check", thp2_file, "--class", "hom-poisson"],
        ["catalog", "show", "THP2", "--params", "lam=3"],
        ["catalog", "show"],
        ["bogus"],
        ["dualrep", thp2_file, thp2_reg_file, "--json", "--max-witnesses", "2"],
        ["check", thp2_file, "--class", "hom-poisson", "--json"],
    ]

    def run(fresh):
        out = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            code = main(list(argv))
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    reused = run(False)
    assert [c for c, _, _ in reused] == [FAIL, PASS, PASS, FAIL, PASS, FAIL, PASS, USAGE,
                                         USAGE, FAIL, FAIL]
    assert reused == run(True)


def test_bialgebra_binds_the_coop_file(thp2_file, tmp_path, capsys):
    cf = tmp_path / "coops.json"
    cf.write_text(json.dumps({
        "dim": 2, "params": ["t"],
        "coops": {"dot": [{"i": 0, "j": 0, "k": 0, "c": "t"}],
                  "bracket": [{"i": 1, "j": 0, "k": 1, "c": "-t"}]}}))
    assert main(["bialgebra", thp2_file, str(cf)]) == USAGE
    assert "missing bindings for ['t']" in capsys.readouterr().err
    for value, code in (("0", PASS), ("1", FAIL)):
        assert main(["bialgebra", thp2_file, str(cf), "--params", "t=" + value]) == code
    capsys.readouterr()
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"dim": 2, "coops": {"dot": [], "bracket": []}}))
    assert main(["bialgebra", thp2_file, str(zero), "--json"]) == PASS
    doc = json.loads(capsys.readouterr().out)
    assert main(["bialgebra", thp2_file, str(cf), "--params", "t=0", "--json"]) == PASS
    assert json.loads(capsys.readouterr().out)["witnesses"] == doc["witnesses"] == []
    # a declared parameter must be bound even where no entry uses it
    unused = tmp_path / "unused.json"
    unused.write_text(json.dumps({"dim": 2, "params": ["u"],
                                  "coops": {"dot": [], "bracket": []}}))
    assert main(["bialgebra", thp2_file, str(unused)]) == USAGE
    assert "missing bindings for ['u']" in capsys.readouterr().err
    assert main(["bialgebra", thp2_file, str(unused), "--params", "u=2"]) == PASS


_ENTRY = {"i": 0, "j": 0, "k": 0, "c": "1"}


@pytest.mark.parametrize("kind, doc", [
    ("algebra", dict(_ALG1, opz={"dot": []})),
    ("algebra", dict(_ALG1, ops={"dot": [dict(_ENTRY, i=False)]})),
    ("rep", dict(_REP1, bta=[["1"]])),
    ("form", {"dim": 1, "B": [["1"]], "b": [["1"]]}),
    ("operator", {"T": [["1"]], "R": [["1"]]}),
    ("coops", {"dim": 1, "coops": {"dot": [], "bracket": []}, "coop": {}}),
    ("coops", {"dim": 1, "coops": {"dot": [dict(_ENTRY, k=False)], "bracket": []}}),
    # a form or comultiplication document has no basis names to keep
    ("form", {"dim": 1, "basis": ["e1"], "B": [["1"]]}),
    ("coops", {"dim": 1, "basis": ["e1"], "coops": {"dot": [], "bracket": []}}),
])
def test_unknown_keys_and_boolean_indices_are_format_errors(tmp_path, capsys, kind, doc):
    from homstruct.core import FormatError, parse_form
    alg, rep = tmp_path / "alg.json", tmp_path / "rep.json"
    alg.write_text(json.dumps(_ALG1))
    rep.write_text(json.dumps(_REP1))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    if kind == "form":
        with pytest.raises(FormatError, match="unknown top-level key"):
            parse_form(bad.read_text())
        return
    argv = {"algebra": ["check", str(bad), "--class", "comm-hom-assoc"],
            "rep": ["checkrep", str(alg), str(bad), "--class", "transposed-hom-poisson"],
            "operator": ["rb", "check", str(alg), str(bad)],
            "coops": ["bialgebra", str(alg), str(bad)]}[kind]
    assert main(argv) == USAGE
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err


def test_catalog_serializations_still_parse():
    from homstruct.core import (
        parse_algebra,
        parse_comultiplications,
        parse_form,
        parse_o_operator,
        parse_representation,
        serialize_form,
    )
    for name in catalog.names():
        text = serialize_algebra(catalog.get(name))
        assert serialize_algebra(parse_algebra(text)) == text, name
    a = catalog.get("THP2", {"lam": F(1)})
    text = serialize_representation(regular_representation(a, "transposed-hom-poisson"))
    assert serialize_representation(parse_representation(text)) == text
    text = serialize_comultiplications(trivial_dual(a))
    assert serialize_comultiplications(parse_comultiplications(text)) == text
    assert '"params"' not in text
    # a parametric file keeps its declared parameters
    for params, c in ((["t"], "t"), (["t", "u"], "-u")):
        doc = {"dim": 1, "params": params,
               "coops": {"dot": [{"i": 0, "j": 0, "k": 0, "c": c}]}}
        parsed = parse_comultiplications(json.dumps(doc))
        text = serialize_comultiplications(parsed)
        assert parse_comultiplications(text) == parsed
        assert parsed.ops == {"dot": BilinearMap(1, ((0, 0, 0, c),))}
        assert json.loads(text)["params"] == params
        assert serialize_comultiplications(parse_comultiplications(text)) == text
    text = serialize_o_operator(LinearMap.identity(2))
    assert serialize_o_operator(parse_o_operator(text)) == text
    text = serialize_form(LinearMap.identity(2))
    assert serialize_form(parse_form(text)) == text


@st.composite
def _checkable_algebra_docs(draw):
    """Well-formed algebra documents at dims 1-3 (a repeated (i, j, k) aside),
    so that check mostly reaches a verdict."""
    n = draw(st.integers(1, 3))
    coefficient = st.sampled_from(["0", "1", "-1", "1/2", "-3/4", "2"])
    index = st.integers(0, n - 1)
    entry = st.fixed_dictionaries({"i": index, "j": index, "k": index, "c": coefficient})
    square = st.lists(st.lists(coefficient, min_size=n, max_size=n), min_size=n, max_size=n)
    return {"dim": n,
            "ops": draw(st.dictionaries(st.sampled_from(["dot", "bracket", "star"]),
                                        st.lists(entry, max_size=4), min_size=1)),
            "maps": {"alpha": draw(square)}}


def test_generated_documents_reach_an_exit_code(tmp_path, capsys):
    """Generated documents never raise through main and end in exit 0-3; a
    document the parser rejects with FormatError ends in exit 2 with an
    input error.  check, checkrep and dualrep take generated algebra and
    representation documents; the builders tensor, subadjacent, bracketd,
    the four twist modes (--yau, --compose and --derived with a class),
    derivations and matched check take checkable algebra documents;
    semidirect and matched double take generated representation documents;
    rb and oop check and induce take generated operator documents,
    bialgebra comultiplication documents, manin a checkable dual of THP2,
    catalog show an entry name and catalog list a flag or a name.  The
    builders and catalog list never exit 1.  No command
    writes a failed runtime check ("check failed: "); equivalence is left
    out, as its known red case (criterion 07) writes one.  Every command
    both parses and rejects some documents (catalog show and list: some
    arguments end in exit 2), and check both passes and fails.  Each command
    also runs one fixed valid and one fixed invalid document of its kind,
    so that it parses and rejects some whatever the generated draw.  The
    class is drawn too, and an unknown one ends in exit 2 with argparse's
    usage error before any document is read."""
    alg = tmp_path / "alg.json"
    a = catalog.get("THP2", {"lam": F(1)})
    alg.write_text(serialize_algebra(a))
    rep = tmp_path / "rep.json"
    reg = regular_representation(a, "transposed-hom-poisson")
    rep.write_text(serialize_representation(reg))
    # the semidirect pair of THP2's regular module: its zero algebra and reverse actions
    mp = matched_pair_from_representation(a, reg, "transposed-hom-poisson")
    zero_alg, zero_rep = tmp_path / "zero-alg.json", tmp_path / "zero-rep.json"
    zero_alg.write_text(serialize_algebra(mp.algebra_b))
    zero_rep.write_text(serialize_representation(mp.actions_ba))
    fixed = {parse_algebra: (_ALG1, dict(_ALG1, opz={"dot": []})),
             parse_representation: (json.loads(rep.read_text()), dict(_REP1, bta=[["1"]])),
             parse_o_operator: ({"T": [["1", "0"], ["0", "1"]]}, {"T": [["1"]], "R": [["1"]]}),
             parse_comultiplications: ({"dim": 2, "coops": {"dot": [], "bracket": []}},
                                       {"dim": 2, "coops": {"dot": [], "bracket": []},
                                        "coop": {}}),
             # a dual of THP2 that reaches the Manin verdict
             "manin": (json.loads(serialize_algebra(trivial_dual(a))),
                       dict(_ALG1, opz={"dot": []})),
             "matched check": (json.loads(zero_alg.read_text()), dict(_ALG1, opz={"dot": []})),
             "matched double": (json.loads(zero_rep.read_text()), dict(_REP1, bta=[["1"]])),
             "catalog show": ("THP2", "no-such-entry"),
             "catalog list": ("--json", "--no-such-flag")}
    doc_file = tmp_path / "doc.json"
    doc = str(doc_file)
    classes = st.sampled_from(["comm-hom-assoc", "hom-lie", "transposed-hom-poisson",
                               "hom-pre-lie", "no-such-class"])
    params = st.sampled_from(["", "t=1", "t=1/2,u=-3"])
    builders = {"tensor", "subadjacent", "bracketd", "twist --alpha-h", "twist --yau",
                "twist --compose", "twist --derived", "derivations", "semidirect",
                "matched double", "oop induce", "rb induce", "catalog show", "catalog list"}
    outcomes = set()
    cls_slot, name_slot = object(), object()
    names = st.sampled_from(catalog.names() + ["no-such-entry"])
    for command, argv, parse, docs, examples in (
            ("check", ["check", doc, "--class", cls_slot], parse_algebra, _algebra_docs(), 200),
            ("check", ["check", doc, "--class", cls_slot], parse_algebra,
             _checkable_algebra_docs(), 200),
            ("checkrep", ["checkrep", str(alg), doc, "--class", cls_slot], parse_representation,
             _representation_docs(), 200),
            ("tensor", ["tensor", doc, doc, "--class", cls_slot], parse_algebra,
             _checkable_algebra_docs(), 40),
            ("subadjacent", ["subadjacent", doc], parse_algebra, _checkable_algebra_docs(), 40),
            ("bracketd", ["bracketd", doc, "--map", "alpha"], parse_algebra,
             _checkable_algebra_docs(), 40),
            ("twist --alpha-h", ["twist", doc, "--alpha-h", "e1"], parse_algebra,
             _checkable_algebra_docs(), 40),
            ("twist --yau", ["twist", doc, "--yau", "alpha", "--class", cls_slot], parse_algebra,
             _checkable_algebra_docs(), 40),
            ("twist --compose", ["twist", doc, "--compose", "alpha", "--class", cls_slot],
             parse_algebra, _checkable_algebra_docs(), 40),
            ("twist --derived", ["twist", doc, "--derived", "2", "--class", cls_slot],
             parse_algebra, _checkable_algebra_docs(), 40),
            ("semidirect", ["semidirect", str(alg), doc, "--class", cls_slot],
             parse_representation, _representation_docs(), 40),
            ("matched check", ["matched", "check", str(alg), doc, str(rep), str(zero_rep),
                               "--class", cls_slot], parse_algebra, _checkable_algebra_docs(), 40),
            ("matched double", ["matched", "double", str(alg), str(zero_alg), str(rep), doc,
                                "--class", cls_slot], parse_representation,
             _representation_docs(), 40),
            ("rb check", ["rb", "check", str(alg), doc, "--class", cls_slot], parse_o_operator,
             _O_OPERATOR_DOCS, 40),
            ("rb induce", ["rb", "induce", str(alg), doc], parse_o_operator,
             _O_OPERATOR_DOCS, 40),
            ("oop check", ["oop", "check", str(alg), str(rep), doc, "--class", cls_slot],
             parse_o_operator, _O_OPERATOR_DOCS, 40),
            ("oop induce", ["oop", "induce", str(alg), str(rep), doc, "--class", cls_slot],
             parse_o_operator, _O_OPERATOR_DOCS, 40),
            ("bialgebra", ["bialgebra", str(alg), doc], parse_comultiplications,
             _comultiplication_docs(), 40),
            ("dualrep", ["dualrep", str(alg), doc], parse_representation,
             _representation_docs(), 40),
            ("derivations", ["derivations", doc], parse_algebra, _checkable_algebra_docs(), 40),
            ("manin", ["manin", str(alg), doc], parse_algebra, _checkable_algebra_docs(), 40),
            # no document: the entry name is the input, and exit 2 rejects it
            ("catalog show", ["catalog", "show", name_slot], None, names, 40),
            # no document: an argument after "list" is the input
            ("catalog list", ["catalog", "list", name_slot], None,
             st.sampled_from(["--json", "THP2", "--no-such-flag"]), 10)):
        valid, invalid = fixed.get(command, fixed.get(parse))

        @settings(max_examples=examples, derandomize=True, deadline=None, database=None)
        @given(docs, classes, params)
        @example(valid, "transposed-hom-poisson", "")
        @example(invalid, "transposed-hom-poisson", "")
        def run(document, cls, binding):
            text = json.dumps(document)
            doc_file.write_text(text)
            capsys.readouterr()
            code = main([cls if arg is cls_slot else document if arg is name_slot else arg
                         for arg in argv] + ["--params", binding])
            err = capsys.readouterr().err
            assert code in (PASS, FAIL, USAGE, PRECONDITION)
            assert code != FAIL or command not in builders
            assert not err.startswith("check failed: "), err
            if cls == "no-such-class" and cls_slot in argv:
                assert code == USAGE and err == (
                    "usage error: argument --class: unknown algebra class 'no-such-class'\n")
                outcomes.add((command, "bad class"))
                return
            if parse is None:
                outcomes.add((command, "rejected" if code == USAGE else "parsed"))
                return
            try:
                parse(text)
            except FormatError:
                assert code == USAGE
                assert err.startswith("input error: ")
                outcomes.add((command, "rejected"))
            else:
                outcomes.add((command, "parsed"))
                outcomes.add((command, code))
        run()
    assert {(command, kind)
            for command in builders | {"rb check", "oop check", "bialgebra", "dualrep",
                                       "manin", "matched check"}
            for kind in ("parsed", "rejected")} <= outcomes, outcomes
    assert {("check", "rejected"), ("check", "parsed"), ("check", PASS), ("check", FAIL),
            ("checkrep", "rejected"), ("checkrep", "parsed"),
            ("manin", FAIL)} <= outcomes, outcomes
    assert {command for command, kind in outcomes if kind == "bad class"} == {
        "check", "checkrep", "tensor", "twist --yau", "twist --compose", "twist --derived",
        "semidirect", "matched check", "matched double", "rb check", "oop check",
        "oop induce"}


def test_importing_the_cli_loads_no_code_it_does_not_run():
    """A fresh `import homstruct.cli` loads the package's core, axioms and
    cli only, and none of the modules that `dataclasses` would pull in:
    every CLI call pays for its imports before it reads a byte."""
    src = str(Path(homstruct.__file__).parent.parent)
    code = ("import sys; sys.path.insert(0, %r); import homstruct.cli; "
            "print(' '.join(sorted(sys.modules)))" % src)
    loaded = set(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, check=True).stdout.split())
    assert {"argparse", "json", "fractions"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert sorted(m for m in loaded if m.split(".")[0] == "homstruct") == [
        "homstruct", "homstruct.axioms", "homstruct.cli", "homstruct.core"]


def test_module_entry_point_runs_main(capsys):
    """`python -m homstruct.cli` exits with main's code and writes its
    bytes, through `entry`."""
    env = dict(os.environ, PYTHONPATH=str(Path(homstruct.__file__).parent.parent))
    run = [sys.executable, "-m", "homstruct.cli"]
    listed = subprocess.run(run + ["catalog", "list"], capture_output=True, text=True,
                            env=env)
    assert main(["catalog", "list"]) == PASS
    assert (listed.returncode, listed.stdout, listed.stderr) == (
        PASS, capsys.readouterr().out, "")
    bare = subprocess.run(run, capture_output=True, text=True, env=env)
    assert (bare.returncode, bare.stdout, bare.stderr) == (
        USAGE, "", "usage error: a subcommand is required\n")
