"""Tests of the benchmark itself: input generation, oracle, span arithmetic.

Run from the repository root:  python3 -m pytest bench -q
"""

import filecmp
import json
import os
import random
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from homstruct.axioms import check_class  # noqa: E402


def test_same_seed_writes_identical_inputs(tmp_path):
    for workload in gen.GENERATORS:
        a, b = tmp_path / ("a-" + workload), tmp_path / ("b-" + workload)
        manifest = gen.generate(workload, 7, str(a))
        gen.generate(workload, 7, str(b))
        names = [f["file"] for f in manifest["files"]] + ["manifest.json"]
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert not mismatch and not errors, (workload, mismatch, errors)
        assert sorted(os.listdir(a)) == sorted(names)


def test_other_seed_changes_inputs(tmp_path):
    gen.generate("check-dense", 1, str(tmp_path / "a"))
    gen.generate("check-dense", 2, str(tmp_path / "b"))
    assert not filecmp.cmp(tmp_path / "a" / "thp-conj0.json",
                           tmp_path / "b" / "thp-conj0.json", shallow=False)


def test_conjugates_pass_and_perturbations_fail_at_dims_3_and_4():
    rng = random.Random(11)
    for dim in (3, 4):
        for cls in (gen.T, gen.PLP):
            base = gen.dense_base(cls, dim, rng)
            (p1, q1), (p2, q2) = gen.transvection(rng, dim), gen.transvection(rng, dim)
            conj = gen.conjugate(base, oracle.mm(p1, p2), oracle.mm(q2, q1))
            pert = gen.perturb(conj, cls, rng)
            assert oracle.in_class(conj, cls), (dim, cls)
            assert not oracle.in_class(pert, cls), (dim, cls)
            # the oracle agrees with homstruct's checker on these inputs
            assert check_class(gen.presentation(conj), cls).passed
            assert not check_class(gen.presentation(pert), cls).passed


def test_dense_inputs_are_dense_and_expectations_hold(tmp_path):
    manifest = gen.generate("check-dense", 3, str(tmp_path))
    for call in manifest["calls"]:
        with open(tmp_path / call["file"]) as fh:
            A = gen.load_algebra(fh.read())
        assert A.dim == gen.DENSE_DIM
        assert oracle.in_class(A, call["cls"]) == (call["expect"] == "pass")
        if call["expect"] == "pass":
            assert gen.density(A) >= gen.MIN_DENSITY


def test_oracle_residuals_match_homstruct_witnesses():
    A = gen.bound_catalog("THP2-as-hom-poisson", {"lam": oracle.F(2)})
    report = check_class(gen.presentation(A), "hom-poisson")
    assert not report.passed
    for ident, tup, res in report.all_witnesses():
        assert list(res) == oracle.basis_residual(A, ident, tup)


def _span(name, start, end, parent):
    return [name, start, end, parent, (0, 0), None]


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("b", 6.0, 7.0, 3),
        _span("other", 11.0, 12.0, None),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 1.0, 1.0]
    # nested spans of one name count once
    assert tracing.outermost(spans, lambda n: n == "b") == [3]
    assert tracing.inclusive(spans, lambda n: n == "b") == 4.0
    assert tracing.inclusive(spans, lambda n: n.startswith("a")) == 3.0
    assert tracing.descendant_time(spans, [0], lambda n: n in ("a", "b")) == 7.0
    assert tracing.descendant_time(spans, [1], lambda n: n == "a.inner") == 1.0


def test_tracer_restores_every_binding():
    from homstruct import axioms, constructions, core
    before = (core.run_identity_families, constructions.check_class,
              axioms.CLASS_CHECKERS["hom-lie"], axioms.eval_bilinear)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert constructions.check_class is not before[1]
        assert axioms.CLASS_CHECKERS["hom-lie"] is not before[2]
        report = check_class(gen.presentation(gen.bound_catalog("TP2", {})),
                             gen.T)
    finally:
        tr.uninstall()
    after = (core.run_identity_families, constructions.check_class,
             axioms.CLASS_CHECKERS["hom-lie"], axioms.eval_bilinear)
    assert all(x is y for x, y in zip(before, after))
    assert report.passed
    names = {s[0] for s in tr.spans}
    assert {"axioms.check.transposed-hom-poisson", "axioms.check.hom-lie",
            "core.families"} <= names
    assert tr.counts["eval_bilinear_calls"] > 0
    assert tr.counts["tuples"] == 4 + 8 + 4 + 8 + 8


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py")] + list(args),
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run(ROOT, "--workload", "cli-fixtures", "--seed", "1",
                    "--seconds", "0.5", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in spec[key]}
    assert not os.path.exists(os.path.join(ROOT, ".bench_work"))


def test_refuses_to_run_without_the_program(tmp_path):
    proc = _run(str(tmp_path), "--workload", "check-dense", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
