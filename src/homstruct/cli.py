"""Command-line front end.

Exit codes: 0 pass/success, 1 check failed, 2 usage or format error,
3 precondition failure.  Reports are deterministic; --json emits the
structured schema {command, inputs, verdict, witnesses, sub_reports, notes}.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import replace
from fractions import Fraction

from homstruct.axioms import (
    check_class,
    resolve_class,
)
from homstruct.core import (
    RATIONAL_RE,
    ConstructionError,
    DimensionError,
    FormatError,
    MissingOperationError,
    PreconditionError,
    UnboundParameterError,
    coefficient_str,
    parse_algebra,
    parse_comultiplications,
    parse_o_operator,
    parse_representation,
    serialize_algebra,
    serialize_representation,
    substitute_params,
)

PASS, FAIL, USAGE, PRECONDITION = 0, 1, 2, 3


class _UsageError(Exception):
    pass


def _parse_params(text):
    binding = {}
    if not text:
        return binding
    for item in text.split(","):
        if "=" not in item:
            raise _UsageError("bad --params item %r (expected k=v)" % item)
        k, v = item.split("=", 1)
        k = k.strip()
        if not RATIONAL_RE.fullmatch(v.strip()):
            raise _UsageError("bad rational %r in --params" % v)
        if k in binding:
            raise _UsageError("duplicate parameter %r in --params" % k)
        binding[k] = Fraction(v.strip())
    return binding


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError("cannot read %s: %s" % (path, exc))


def _load(parse, path, binding):
    """The document at path, with its parameters bound."""
    p = parse(_read(path))
    if binding or p.params:
        p = substitute_params(p, binding)
    return p


def _load_algebra(path, binding):
    return _load(parse_algebra, path, binding)


def _load_rep(path, binding):
    return _load(parse_representation, path, binding)


_VEC_TERM = re.compile(r"^(?:(-?[0-9]+(?:/[0-9]+)?)\*?)?e([1-9][0-9]*)$")


def _parse_vector(text, dim):
    """Vector specs: "e1", "e1+e2", "2*e1+1/2*e2", or comma rationals "1,0"."""
    text = text.strip()
    if "e" not in text:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != dim:
            raise _UsageError("vector %r has wrong length (need %d)" % (text, dim))
        if not all(RATIONAL_RE.fullmatch(p) for p in parts):
            raise _UsageError("bad rational in vector %r" % text)
        return tuple(Fraction(p) for p in parts)
    out = [Fraction(0)] * dim
    for term in text.replace("-", "+-").split("+"):
        term = term.strip()
        if not term:
            continue
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        m = _VEC_TERM.match(term)
        if not m:
            raise _UsageError("bad vector term %r" % term)
        if m.group(1) and not RATIONAL_RE.fullmatch(m.group(1)):
            raise _UsageError("bad rational in vector %r" % text)
        coef = Fraction(m.group(1) or 1)
        idx = int(m.group(2)) - 1
        if idx >= dim:
            raise _UsageError("basis index out of range in %r" % term)
        out[idx] += -coef if neg else coef
    return tuple(out)


def _report_doc(report):
    return {
        "verdict": "pass" if report.passed else "fail",
        "checked": report.checked,
        "failures": report.failures,
        "witnesses": [{"identity": ident,
                       "tuple": list(tup),
                       "residual": [coefficient_str(c) for c in res]}
                      for (ident, tup, res) in report.witnesses],
        "sub_reports": {name: _report_doc(sub)
                        for name, sub in sorted(report.sub_reports.items())},
        "notes": list(report.notes),
    }


def _print_report_text(doc, out, indent=""):
    out.write("%sverdict: %s (checked %d, failures %d)\n"
              % (indent, doc["verdict"], doc["checked"], doc["failures"]))
    for w in doc["witnesses"]:
        out.write("%s  witness %s %s residual [%s]\n"
                  % (indent, w["identity"], tuple(w["tuple"]),
                     ", ".join(w["residual"])))
    for note in doc["notes"]:
        out.write("%s  note: %s\n" % (indent, note))
    for name, sub in doc["sub_reports"].items():
        out.write("%s  sub-report %s:\n" % (indent, name))
        _print_report_text(sub, out, indent + "  ")


def _emit(args, text):
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(args, command, inputs, report):
    doc = {"command": command, "inputs": inputs}
    doc.update(_report_doc(report))
    if args.json:
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        import io
        buf = io.StringIO()
        buf.write("command: %s\n" % command)
        _print_report_text(doc, buf)
        _emit(args, buf.getvalue())
    return PASS if report.passed else FAIL


def _emit_algebra(args, a):
    _emit(args, serialize_algebra(a))
    return PASS


# ---------------------------------------------------------------------------
# subcommands

def _cmd_check(args, binding):
    a = _load_algebra(args.file, binding)
    report = check_class(a, args.class_name, args.max_witnesses)
    return _emit_report(args, "check", [args.file], report)


def _cmd_twist(args, binding):
    from homstruct import constructions
    for flag, value in (("--yau", args.yau), ("--compose", args.compose),
                        ("--derived", args.derived)):
        if value is not None and args.class_name is None:
            raise _UsageError("twist %s needs --class" % flag)
    if args.alpha_h is not None and args.class_name is not None:
        raise _UsageError("twist --alpha-h takes no --class")
    if args.type is not None and args.derived is None:
        raise _UsageError("twist --type needs --derived")
    a = _load_algebra(args.file, binding)
    if args.alpha_h is not None:
        out = constructions.alpha_h_twist(a, _parse_vector(args.alpha_h, a.dim))
    elif args.yau is not None:
        out = constructions.yau_twist(a, a.map(args.yau), args.class_name)
    elif args.compose is not None:
        out = constructions.compose_twist(a, a.map(args.compose), args.class_name)
    elif args.derived is not None:
        out = constructions.derived_algebra(a, args.derived, args.class_name,
                                            kind=args.type or 1)
    else:
        raise _UsageError(
            "twist needs one of --alpha-h, --yau, --compose, --derived")
    return _emit_algebra(args, out)


def _cmd_tensor(args, binding):
    from homstruct.constructions import tensor_product
    a1 = _load_algebra(args.file1, binding)
    a2 = _load_algebra(args.file2, binding)
    return _emit_algebra(args, tensor_product(a1, a2, args.class_name))


def _cmd_subadjacent(args, binding):
    from homstruct.constructions import sub_adjacent
    return _emit_algebra(args, sub_adjacent(_load_algebra(args.file, binding)))


def _cmd_bracketd(args, binding):
    from homstruct import constructions
    a = _load_algebra(args.file, binding)
    if args.map2 is not None:
        out = constructions.bracket_from_two_derivations(
            a, a.map(args.map), a.map(args.map2))
    else:
        out = constructions.bracket_from_derivation(a, a.map(args.map))
    return _emit_algebra(args, out)


def _cmd_semidirect(args, binding):
    from homstruct.representations import semidirect_product
    a = _load_algebra(args.algebra, binding)
    rep = _load_rep(args.rep, binding)
    return _emit_algebra(args, semidirect_product(a, rep, args.class_name))


def _cmd_checkrep(args, binding):
    from homstruct.representations import check_rep
    a = _load_algebra(args.algebra, binding)
    rep = _load_rep(args.rep, binding)
    report = check_rep(a, rep, args.class_name, args.max_witnesses)
    return _emit_report(args, "checkrep", [args.algebra, args.rep], report)


def _cmd_dualrep(args, binding):
    from homstruct.representations import dual_representation
    a = _load_algebra(args.algebra, binding)
    rep = _load_rep(args.rep, binding)
    dual, hyp = dual_representation(a, rep, args.max_witnesses)
    code = _emit_report(args, "dualrep", [args.algebra, args.rep], hyp)
    if args.rep_output:
        with open(args.rep_output, "w") as fh:
            fh.write(serialize_representation(dual))
    return code


def _load_matched(args, binding):
    from homstruct.matched_pairs import MatchedPairData
    return MatchedPairData(_load_algebra(args.algebra_a, binding),
                           _load_algebra(args.algebra_b, binding),
                           _load_rep(args.actions_ab, binding),
                           _load_rep(args.actions_ba, binding))


def _cmd_matched(args, binding):
    from homstruct.matched_pairs import build_double, check_matched_pair
    mp = _load_matched(args, binding)
    if args.action == "double":
        return _emit_algebra(args, build_double(mp, args.class_name))
    report = check_matched_pair(mp, args.class_name, args.max_witnesses)
    return _emit_report(args, "matched check",
                        [args.algebra_a, args.algebra_b,
                         args.actions_ab, args.actions_ba], report)


def _cmd_manin(args, binding):
    from homstruct.duality import check_manin_triple
    a = _load_algebra(args.algebra, binding)
    a_star = _load_algebra(args.dual, binding)
    report = check_manin_triple(a, a_star, args.max_witnesses)
    return _emit_report(args, "manin", [args.algebra, args.dual], report)


def _cmd_bialgebra(args, binding):
    from homstruct.duality import check_bialgebra_conditions, trivial_dual
    a = _load_algebra(args.algebra, binding)
    coalgebra = _load(parse_comultiplications, args.coops, binding)
    if coalgebra.dim != a.dim:
        raise DimensionError("comultiplication dimension mismatch")
    # A*: the comultiplications' dual products with trivial_dual's twist
    report = check_bialgebra_conditions(a, replace(trivial_dual(a), ops=coalgebra.ops),
                                        args.max_witnesses)
    return _emit_report(args, "bialgebra", [args.algebra, args.coops], report)


def _cmd_equivalence(args, binding):
    from homstruct.duality import equivalence_report
    a = _load_algebra(args.algebra, binding)
    a_star = _load_algebra(args.dual, binding)
    result = equivalence_report(a, a_star, args.max_witnesses)
    doc = {"command": "equivalence",
           "inputs": [args.algebra, args.dual],
           "verdict": "pass" if result["verdict"] else "fail",
           "bialgebra": _report_doc(result["bialgebra"]),
           "matched_pair": _report_doc(result["matched_pair"]),
           "manin": _report_doc(result["manin"])}
    if args.json:
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        import io
        buf = io.StringIO()
        buf.write("command: equivalence\nshared verdict: %s\n" % doc["verdict"])
        for key in ("bialgebra", "matched_pair", "manin"):
            buf.write("%s:\n" % key)
            _print_report_text(doc[key], buf, "  ")
        _emit(args, buf.getvalue())
    return PASS if result["verdict"] else FAIL


def _cmd_oop(args, binding):
    from homstruct.operators import check_o_operator, induced_products
    a = _load_algebra(args.algebra, binding)
    rep = _load_rep(args.rep, binding)
    T = parse_o_operator(_read(args.operator))
    if args.action == "induce":
        return _emit_algebra(args,
                             induced_products(a, rep, T, args.class_name))
    report = check_o_operator(a, rep, T, args.class_name, args.max_witnesses)
    return _emit_report(args, "oop check",
                        [args.algebra, args.rep, args.operator], report)


def _cmd_rb(args, binding):
    from homstruct.operators import check_rota_baxter, rota_baxter_induced
    a = _load_algebra(args.algebra, binding)
    R = parse_o_operator(_read(args.operator))
    if args.action == "induce":
        return _emit_algebra(args, rota_baxter_induced(a, R))
    report = check_rota_baxter(a, R, args.class_name, args.max_witnesses)
    return _emit_report(args, "rb check", [args.algebra, args.operator], report)


def _cmd_derivations(args, binding):
    from homstruct.operators import derivation_space
    a = _load_algebra(args.algebra, binding)
    commuting = None if args.commuting_with == "none" else args.commuting_with
    basis = derivation_space(a, args.op, commuting)
    doc = {"command": "derivations", "inputs": [args.algebra],
           "op": args.op, "dimension": len(basis),
           "basis": [[[coefficient_str(c) for c in row] for row in d.m]
                     for d in basis]}
    if args.json:
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        lines = ["command: derivations", "dimension: %d" % len(basis)]
        for idx, d in enumerate(basis):
            lines.append("D%d:" % (idx + 1))
            for row in d.m:
                lines.append("  [%s]" % ", ".join(coefficient_str(c) for c in row))
        _emit(args, "\n".join(lines) + "\n")
    return PASS


def _cmd_catalog(args, binding):
    from homstruct import catalog
    if args.action == "list":
        if args.json:
            doc = [catalog.describe(name) for name in catalog.names()]
            _emit(args, json.dumps(doc, indent=2) + "\n")
        else:
            lines = []
            for name in catalog.names():
                d = catalog.describe(name)
                lines.append("%s  class=%s dim=%d params=%s"
                             % (name, d["class"], d["dim"],
                                ",".join(d["params"]) or "-"))
            _emit(args, "\n".join(lines) + "\n")
        return PASS
    if args.name not in catalog.names():
        raise _UsageError("unknown catalog entry %r" % args.name)
    a = catalog.get(args.name, binding or None)
    return _emit_algebra(args, a)


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def non_negative_int(text):
    """An option value that must be a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("%r is negative" % text)
    return value


@functools.cache
def _build_parser():
    """The argument parser, built once per process (parse_args keeps no state in it)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--params", default="", help="k=v,... parameter binding")
    common.add_argument("--json", action="store_true")
    common.add_argument("--max-witnesses", type=non_negative_int, default=32)
    common.add_argument("-o", dest="output", default=None, metavar="FILE")

    def with_class(p, required=True):
        p.add_argument("--class", dest="class_name", required=required,
                       type=resolve_class, metavar="CLASS")

    top = _Parser(prog="homstruct")
    sub = top.add_subparsers(dest="command", metavar="SUBCOMMAND")

    p = sub.add_parser("check", parents=[common])
    with_class(p)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("twist", parents=[common])
    with_class(p, required=False)
    how = p.add_mutually_exclusive_group()
    how.add_argument("--alpha-h", dest="alpha_h", default=None, metavar="VEC")
    how.add_argument("--yau", default=None, metavar="MAP")
    how.add_argument("--compose", default=None, metavar="MAP")
    how.add_argument("--derived", type=int, default=None, metavar="N")
    p.add_argument("--type", type=int, choices=(1, 2), default=None)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_twist)

    p = sub.add_parser("tensor", parents=[common])
    with_class(p)
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(fn=_cmd_tensor)

    p = sub.add_parser("subadjacent", parents=[common])
    p.add_argument("file")
    p.set_defaults(fn=_cmd_subadjacent)

    p = sub.add_parser("bracketd", parents=[common])
    p.add_argument("--map", required=True)
    p.add_argument("--map2", default=None)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_bracketd)

    p = sub.add_parser("semidirect", parents=[common])
    with_class(p)
    p.add_argument("algebra")
    p.add_argument("rep")
    p.set_defaults(fn=_cmd_semidirect)

    p = sub.add_parser("checkrep", parents=[common])
    with_class(p)
    p.add_argument("algebra")
    p.add_argument("rep")
    p.set_defaults(fn=_cmd_checkrep)

    p = sub.add_parser("dualrep", parents=[common])
    p.add_argument("--rep-output", default=None, metavar="FILE")
    p.add_argument("algebra")
    p.add_argument("rep")
    p.set_defaults(fn=_cmd_dualrep)

    p = sub.add_parser("matched", parents=[common])
    p.add_argument("action", choices=("check", "double"))
    with_class(p)
    p.add_argument("algebra_a")
    p.add_argument("algebra_b")
    p.add_argument("actions_ab")
    p.add_argument("actions_ba")
    p.set_defaults(fn=_cmd_matched)

    p = sub.add_parser("manin", parents=[common])
    p.add_argument("algebra")
    p.add_argument("dual")
    p.set_defaults(fn=_cmd_manin)

    p = sub.add_parser("bialgebra", parents=[common])
    p.add_argument("algebra")
    p.add_argument("coops")
    p.set_defaults(fn=_cmd_bialgebra)

    p = sub.add_parser("equivalence", parents=[common])
    p.add_argument("algebra")
    p.add_argument("dual")
    p.set_defaults(fn=_cmd_equivalence)

    p = sub.add_parser("oop", parents=[common])
    p.add_argument("action", choices=("check", "induce"))
    with_class(p)
    p.add_argument("algebra")
    p.add_argument("rep")
    p.add_argument("operator")
    p.set_defaults(fn=_cmd_oop)

    p = sub.add_parser("rb", parents=[common])
    p.add_argument("action", choices=("check", "induce"))
    p.add_argument("--class", dest="class_name", type=resolve_class,
                   default="transposed-hom-poisson", metavar="CLASS")
    p.add_argument("algebra")
    p.add_argument("operator")
    p.set_defaults(fn=_cmd_rb)

    p = sub.add_parser("derivations", parents=[common])
    p.add_argument("--op", default="dot")
    p.add_argument("--commuting-with", dest="commuting_with", default="alpha")
    p.add_argument("algebra")
    p.set_defaults(fn=_cmd_derivations)

    p = sub.add_parser("catalog", parents=[common])
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(fn=_cmd_catalog)

    return top


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "fn", None):
            raise _UsageError("a subcommand is required")
        if args.command == "catalog" and args.action == "show" and not args.name:
            raise _UsageError("catalog show needs an entry name")
        if args.command == "catalog" and args.action == "list" and args.name is not None:
            raise _UsageError("catalog list takes no entry name")
        binding = _parse_params(args.params)
        return args.fn(args, binding)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return USAGE
    except (PreconditionError, MissingOperationError) as exc:
        # before ValueError, which PreconditionError subclasses
        print("precondition failed: %s" % exc, file=sys.stderr)
        return PRECONDITION
    except (FormatError, UnboundParameterError, DimensionError,
            ValueError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return USAGE
    except ConstructionError as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return FAIL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
