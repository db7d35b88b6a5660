"""Top-level calls of each workload and the checks on their outputs.

A call is one check, one CLI invocation or one construction.  ``Call.run``
times only the call into homstruct; ``Call.verify`` then compares the output
with the outcome the generator fixed in the manifest, using the benchmark's
own evaluator.  An output identical to one already verified for the same
call is accepted without evaluating it again.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from fractions import Fraction

import gen
import oracle

# Calls go through the module attributes, so that the tracer's rebinding
# of them is seen.
from homstruct import (
    axioms,
    cli,
    constructions,
    core,
    duality,
    matched_pairs,
    operators,
    representations,
)

PARSERS = {"algebra": "parse_algebra", "rep": "parse_representation",
           "operator": "parse_o_operator"}


class Mismatch(Exception):
    """An output differs from the expected outcome."""


def load_inputs(root, manifest):
    """Parse every input file with homstruct, as set-up does."""
    out = {}
    for f in manifest["files"]:
        with open(os.path.join(root, f["file"])) as fh:
            out[f["file"]] = getattr(core, PARSERS[f["kind"]])(fh.read())
    return out


def read(root, name):
    with open(os.path.join(root, name)) as fh:
        return fh.read()


def fingerprint(value):
    """A hashable summary of an output, for recognising repeated outputs."""
    if hasattr(value, "witnesses"):
        return ("report", value.passed, value.checked, value.failures,
                tuple(value.all_witnesses()))
    if hasattr(value, "ops"):
        return ("algebra", value.dim,
                tuple((n, op.entries) for n, op in sorted(value.ops.items())),
                value.maps["alpha"].m)
    if isinstance(value, dict):
        return ("equivalence", value["verdict"])
    if isinstance(value, list):
        return ("derivations", tuple(d.m for d in value))
    return ("other", value)


class Call:
    def __init__(self, spec, root, inputs):
        self.spec = spec
        self.root = root
        self.inputs = inputs
        self.verified = set()
        self.bytes_out = 0
        self.fn = getattr(self, "_call_" + spec["kind"])

    def run(self):
        """Time one call; return (seconds, output, exception)."""
        t0 = time.perf_counter()
        try:
            out, err = self.fn(), None
        except Exception as exc:  # every exception is an outcome to check
            out, err = None, exc
        return time.perf_counter() - t0, out, err

    def verify(self, out, err):
        """Raise Mismatch unless the outcome is the expected one."""
        expect = self.spec["expect"]
        raises = expect.get("raises") if isinstance(expect, dict) else None
        if err is not None:
            if raises and type(err).__name__ == raises:
                return
            raise Mismatch("%s raised %s: %s" % (self.spec["id"], type(err).__name__, err))
        if raises:
            raise Mismatch("%s did not raise %s" % (self.spec["id"], raises))
        key = fingerprint(out)
        if key in self.verified:
            return
        getattr(self, "_verify_" + self.spec["kind"], self._verify_built)(out)
        self.verified.add(key)

    # -- calls

    def _alg(self, idx=0):
        return self.inputs[self.spec["files"][idx]]

    def _call_check(self):
        return axioms.check_class(self.inputs[self.spec["file"]], self.spec["cls"])

    def _call_cli(self):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(self.spec["argv"]))
        text = stdout.getvalue()
        self.bytes_out += len(text.encode())
        return code, text

    def _call_tensor_product(self):
        return constructions.tensor_product(self._alg(0), self._alg(1), self.spec["cls"])

    def _call_semidirect_product(self):
        a, cls = self._alg(), self.spec["cls"]
        reg = representations.regular_representation(a, cls)
        return representations.semidirect_product(a, reg, cls)

    def _call_check_rep(self):
        a, cls = self._alg(), self.spec["cls"]
        return representations.check_rep(a, representations.regular_representation(a, cls), cls)

    def _call_check_matched_pair(self):
        a, cls = self._alg(), self.spec["cls"]
        reg = representations.regular_representation(a, cls)
        mp = matched_pairs.matched_pair_from_representation(a, reg, cls)
        return matched_pairs.check_matched_pair(mp, cls)

    def _call_check_manin_triple(self):
        a = self._alg()
        return duality.check_manin_triple(a, duality.trivial_dual(a))

    def _call_equivalence_report(self):
        a = self._alg()
        return duality.equivalence_report(a, duality.trivial_dual(a))

    def _call_derivation_space(self):
        return operators.derivation_space(self._alg(), self.spec["op"])

    # -- checks

    def _own(self):
        return gen.load_algebra(read(self.root, self.spec["file"]))

    def _verify_check(self, report):
        expect_pass = self.spec["expect"] == "pass"
        if report.passed != expect_pass:
            raise Mismatch("%s: verdict %s, expected %s"
                           % (self.spec["id"], report.passed, self.spec["expect"]))
        witnesses = report.all_witnesses()
        if expect_pass:
            if witnesses:
                raise Mismatch("%s: passing report carries witnesses" % self.spec["id"])
            return
        if not witnesses:
            raise Mismatch("%s: failing report has no witness" % self.spec["id"])
        self._check_witnesses(self._own(), witnesses)

    def _check_witnesses(self, A, witnesses):
        for ident, tup, res in witnesses:
            own = oracle.basis_residual(A, ident, tup)
            if not any(own) or list(res) != own:
                raise Mismatch("%s: witness %s %s residual %s, own evaluator %s"
                               % (self.spec["id"], ident, tup, list(res), own))

    def _verify_cli(self, out):
        code, text = out
        expect = self.spec["expect"]
        if code != expect["exit"]:
            raise Mismatch("%s: exit %s, expected %s" % (self.spec["id"], code, expect["exit"]))
        argv = self.spec["argv"]
        if code not in (0, 1) or text == "":
            return
        doc = json.loads(text) if "--json" in argv else None
        if expect.get("verdict"):
            verdict = doc["verdict"] if doc is not None else _text_verdict(text)
            if verdict != expect["verdict"]:
                raise Mismatch("%s: verdict %s, expected %s"
                               % (self.spec["id"], verdict, expect["verdict"]))
            if argv[0] == "check" and verdict == "fail" and doc is not None:
                A = gen.load_algebra(read(self.root, argv[1]), _binding(self.spec["binding"]))
                self._check_witnesses(A, _json_witnesses(doc))
        if "cls" in expect or "algebra_class" in expect:
            A = gen.load_algebra(text)
            cls = expect.get("cls") or expect["algebra_class"]
            want = expect.get("algebra_verdict", "pass") == "pass"
            if oracle.in_class(A, cls) != want:
                raise Mismatch("%s: output algebra verdict differs" % self.spec["id"])
        if "derivations" in expect:
            A = gen.load_algebra(read(self.root, argv[1]), _binding(self.spec["binding"]))
            mats = [[[Fraction(c) for c in row] for row in d] for d in doc["basis"]]
            self._check_derivations(A, argv[argv.index("--op") + 1], mats)
        if "names" in expect:
            names = ([d["name"] for d in doc] if doc is not None
                     else [line.split()[0] for line in text.splitlines()])
            if names != expect["names"]:
                raise Mismatch("%s: catalog names %s" % (self.spec["id"], names))

    def _check_derivations(self, A, op, mats):
        want = self.spec["expect"]["derivations"]
        if len(mats) != want or oracle.rank([sum(m, []) for m in mats]) != want:
            raise Mismatch("%s: %d derivations, expected %d independent ones"
                           % (self.spec["id"], len(mats), want))
        for m in mats:
            if not oracle.is_derivation(A, op, m):
                raise Mismatch("%s: returned map is not a derivation" % self.spec["id"])

    def _verify_built(self, out):
        A = oracle.Algebra.of(out)
        cls = self.spec["expect"]["cls"]
        ok = (oracle.in_class(A, cls) if A.dim <= 4
              else oracle.random_in_class(A, cls, self.spec["id"]))
        if not ok:
            raise Mismatch("%s: constructed algebra fails the oracle" % self.spec["id"])

    def _verify_verdict(self, report):
        if report.passed != self.spec["expect"]["verdict"]:
            raise Mismatch("%s: verdict %s, expected %s"
                           % (self.spec["id"], report.passed, self.spec["expect"]["verdict"]))

    _verify_check_rep = _verify_check_matched_pair = _verify_check_manin_triple = _verify_verdict

    def _verify_equivalence_report(self, result):
        if result["verdict"] != self.spec["expect"]["verdict"]:
            raise Mismatch("%s: shared verdict %s" % (self.spec["id"], result["verdict"]))

    def _verify_derivation_space(self, mats):
        A = gen.load_algebra(read(self.root, self.spec["files"][0]))
        self._check_derivations(A, self.spec["op"], [list(map(list, d.m)) for d in mats])


def _text_verdict(text):
    for line in text.splitlines():
        if line.startswith("verdict:"):
            return line.split()[1]
    raise Mismatch("no verdict line in output")


def _json_witnesses(doc):
    out = [(w["identity"], tuple(w["tuple"]), [Fraction(c) for c in w["residual"]])
           for w in doc["witnesses"]]
    for sub in doc["sub_reports"].values():
        out += _json_witnesses(sub)
    return out


def _binding(text):
    return {k: Fraction(v) for k, v in (item.split("=") for item in text.split(",") if item)}


def make_calls(root, manifest, inputs):
    return [Call(spec, root, inputs) for spec in manifest["calls"]]
