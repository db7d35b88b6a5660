"""The benchmark's tracer finds homstruct's functions and family ids by name,
so a refactor that renames one would blank a per-layer metric silently."""

import importlib
import importlib.util
import sys
from pathlib import Path

from homstruct.axioms import IDENTITIES
from homstruct.representations import MODULE_IDENTITIES

BENCH = Path(__file__).resolve().parent.parent / "bench"
CLASS_IDS = ("commutative", "hom-associative", "skew-symmetry", "hom-jacobi",
             "poisson-leibniz", "transposed-leibniz", "hom-pre-lie",
             "pre-poisson-1", "pre-poisson-2")
MODULE_IDS = ("assoc-action", "bracket-action", "mixed-1", "mixed-2",
              "twist-intertwine:s", "twist-intertwine:rho", "hyp-mixed-1", "hyp-mixed-2")


def _load(monkeypatch, name):
    """bench/<name>.py as a fresh module; no bytecode is written next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_" + name, BENCH / (name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_spans_name_live_functions(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    assert len(tracing.SPANS) > 20
    for mod_name, fn_name in tracing.SPANS:
        mod = importlib.import_module("homstruct." + mod_name)
        assert callable(getattr(mod, fn_name, None)), (mod_name, fn_name)


def test_traced_family_ids_are_identity_rows(monkeypatch):
    run = _load(monkeypatch, "run")
    for ident in CLASS_IDS:
        assert ident in run.IDENTITIES and ident in IDENTITIES, ident
    for ident in MODULE_IDS:
        assert ident in run.IDENTITIES and ident in MODULE_IDENTITIES, ident


def test_tracer_times_each_class_family(monkeypatch):
    """The tracer times a family by wrapping its table fn; one traced check
    must give every family of the class a time."""
    from homstruct import axioms, catalog

    tracing = _load(monkeypatch, "tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert axioms.check_class(catalog.get("TP2"), "transposed-hom-poisson").passed
    finally:
        tracer.uninstall()
    for ident in ("commutative", "hom-associative", "skew-symmetry", "hom-jacobi",
                  "transposed-leibniz"):
        assert ident in tracer.family_s, ident
    assert tracer.counts["tuples"] > 0


def test_tracer_counts_one_eval_bilinear_call_per_nonempty_cell(monkeypatch):
    """_Tables reads each op through one eval_bilinear call per nonempty
    cell, and the tracer's eval_bilinear counters are built on that: a check
    of TP2 reads dot (3 cells of 3 entries) and bracket (2 cells of 2
    entries) once each.  A call made only to keep the counter above 0 would
    show here."""
    from homstruct import axioms, catalog

    tracing = _load(monkeypatch, "tracing")
    tracer = tracing.Tracer()
    tracer.install()
    a = catalog.get("TP2")
    try:
        assert axioms.check_class(a, "transposed-hom-poisson").passed
    finally:
        tracer.uninstall()
    ops = [a.op("dot"), a.op("bracket")]
    cells = [sum(map(len, op.rows.values())) for op in ops]
    assert cells == [3, 2]
    assert tracer.counts["eval_bilinear_calls"] == sum(cells) == 5
    assert tracer.counts["entries_visited"] == sum(
        c * len(op.entries) for c, op in zip(cells, ops)) == 3 * 3 + 2 * 2 == 13
