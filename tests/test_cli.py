import json
from fractions import Fraction

import pytest

from homstruct import catalog
from homstruct.cli import main
from homstruct.core import (
    LinearMap,
    serialize_algebra,
    serialize_comultiplications,
    serialize_o_operator,
    serialize_representation,
)
from homstruct.duality import comultiplications_from_dual_algebra, trivial_dual
from homstruct.representations import regular_representation

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


def test_twist_derived(thp2_file, tmp_path):
    out = tmp_path / "derived.json"
    assert main(["twist", thp2_file, "--class", "transposed-hom-poisson",
                 "--derived", "1", "--type", "2", "-o", str(out)]) == PASS
    assert main(["check", str(out), "--class", "transposed-hom-poisson"]) == PASS


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


def test_semidirect_and_checkrep(thp2_file, thp2_reg_file, tmp_path):
    assert main(["checkrep", thp2_file, thp2_reg_file, "--class",
                 "transposed-hom-poisson"]) == PASS
    out = tmp_path / "sd.json"
    assert main(["semidirect", thp2_file, thp2_reg_file, "--class",
                 "transposed-hom-poisson", "-o", str(out)]) == PASS
    assert main(["check", str(out), "--class", "transposed-hom-poisson"]) == PASS


def test_dualrep(thp2_file, thp2_reg_file, tmp_path):
    dual_out = tmp_path / "dual.json"
    # hypotheses fail for the regular module, so the verdict is fail
    assert main(["dualrep", thp2_file, thp2_reg_file,
                 "--rep-output", str(dual_out)]) == FAIL
    assert dual_out.exists()
    assert main(["checkrep", thp2_file, str(dual_out), "--class",
                 "transposed-hom-poisson"]) == FAIL


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
    coops = comultiplications_from_dual_algebra(trivial_dual(a))
    cf = tmp_path / "coops.json"
    cf.write_text(serialize_comultiplications(a.dim, coops))
    assert main(["bialgebra", thp2_file, str(cf)]) == PASS


def test_equivalence(thp2_file, tmp_path, capsys):
    dual = tmp_path / "dual.json"
    dual.write_text(serialize_algebra(
        trivial_dual(catalog.get("THP2", {"lam": F(1)}))))
    # the three verdicts disagree for the zero dual: reported as a failure
    assert main(["equivalence", thp2_file, str(dual)]) == FAIL
    assert "equivalence broken" in capsys.readouterr().err


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


def test_rb_check_and_induce(thp2_file, tmp_path):
    rf = tmp_path / "R.json"
    rf.write_text(serialize_o_operator(LinearMap.zero(2)))
    assert main(["rb", "check", thp2_file, str(rf)]) == PASS
    out = tmp_path / "induced.json"
    assert main(["rb", "induce", thp2_file, str(rf), "-o", str(out)]) == PASS
    assert main(["check", str(out), "--class", "hom-pre-lie-poisson"]) == PASS


def test_derivations(thp2_file, capsys):
    assert main(["derivations", thp2_file, "--op", "dot", "--json"]) == PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 1
    assert doc["basis"] == [[["0", "0"], ["0", "1"]]]


def test_catalog_list_and_show(capsys, tmp_path):
    assert main(["catalog", "list"]) == PASS
    assert "THP2" in capsys.readouterr().out
    out = tmp_path / "thp2.json"
    assert main(["catalog", "show", "THP2", "--params", "lam=1",
                 "-o", str(out)]) == PASS
    assert json.loads(out.read_text())["dim"] == 2


def test_usage_errors(tmp_path, capsys):
    assert main(["bogus"]) == USAGE
    assert main(["catalog", "show"]) == USAGE
    assert main(["check", str(tmp_path / "missing.json"),
                 "--class", "hom-lie"]) == USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["check", str(bad), "--class", "hom-lie"]) == USAGE
    capsys.readouterr()


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
    ({}, {"params": ["1x"], "beta": [["1x"]]}, "1x=1"),
    ({}, {"params": ["t", "t"], "beta": [["t"]]}, "t=1"),
    ({"dim": 2, "maps": {"alpha": [["1"]]}}, {}, ""),
    ({}, {"actions": {"s": [[["0", "0"]]], "rho": [[["0"]]]}}, ""),
    ({}, {"beta": [[]]}, ""),
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
    assert "parameter 't' is unbound" in capsys.readouterr().err
    for value, code in (("0", PASS), ("1", FAIL)):
        assert main(["bialgebra", thp2_file, str(cf), "--params", "t=" + value]) == code
    capsys.readouterr()
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"dim": 2, "coops": {"dot": [], "bracket": []}}))
    assert main(["bialgebra", thp2_file, str(zero), "--json"]) == PASS
    doc = json.loads(capsys.readouterr().out)
    assert main(["bialgebra", thp2_file, str(cf), "--params", "t=0", "--json"]) == PASS
    assert json.loads(capsys.readouterr().out)["witnesses"] == doc["witnesses"] == []


_ENTRY = {"i": 0, "j": 0, "k": 0, "c": "1"}


@pytest.mark.parametrize("kind, doc", [
    ("algebra", dict(_ALG1, opz={"dot": []})),
    ("algebra", dict(_ALG1, ops={"dot": [dict(_ENTRY, i=False)]})),
    ("rep", dict(_REP1, bta=[["1"]])),
    ("form", {"dim": 1, "B": [["1"]], "b": [["1"]]}),
    ("operator", {"T": [["1"]], "R": [["1"]]}),
    ("coops", {"dim": 1, "coops": {"dot": [], "bracket": []}, "coop": {}}),
    ("coops", {"dim": 1, "coops": {"dot": [dict(_ENTRY, k=False)], "bracket": []}}),
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
        BilinearFormPresentation,
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
    coops = comultiplications_from_dual_algebra(trivial_dual(a))
    text = serialize_comultiplications(2, coops)
    assert serialize_comultiplications(*parse_comultiplications(text)) == text
    text = serialize_o_operator(LinearMap.identity(2))
    assert serialize_o_operator(parse_o_operator(text)) == text
    text = serialize_form(BilinearFormPresentation(2, LinearMap.identity(2)))
    assert serialize_form(parse_form(text)) == text
