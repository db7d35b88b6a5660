"""Command-line front end.

Exit codes: 0 pass/success, 1 check failed, 2 usage or format error,
3 precondition failure.  Reports are deterministic; --json emits the
structured schema {command, inputs, verdict, witnesses, sub_reports, notes}.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import re
import sys
from collections import namedtuple

from homstruct.axioms import check_class, resolve_class
from homstruct.core import (
    NAME_RE,
    ONE,
    RATIONAL_RE,
    ZERO,
    AlgebraPresentation,
    CheckReport,
    ConstructionError,
    DimensionError,
    MissingOperationError,
    PreconditionError,
    parse_algebra,
    parse_coefficient,
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
        if not NAME_RE.fullmatch(k):
            raise _UsageError("bad parameter name %r in --params" % k)
        if not RATIONAL_RE.fullmatch(v.strip()):
            raise _UsageError("bad rational %r in --params" % v)
        if k in binding:
            raise _UsageError("duplicate parameter %r in --params" % k)
        binding[k] = parse_coefficient(v.strip())
    return binding


def _write(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError("cannot write %s: %s" % (path, exc))


# document kind of a positional input -> its parser
_PARSERS = {"algebra": parse_algebra, "rep": parse_representation,
            "coops": parse_comultiplications, "operator": parse_o_operator}


def _load(kind, path, binding):
    """The document at path, with its parameters bound (an operator has none)."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError("cannot read %s: %s" % (path, exc))
    p = _PARSERS[kind](text)
    if kind != "operator" and (binding or p.params):
        p = substitute_params(p, binding)
    return p


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
        return tuple(map(parse_coefficient, parts))
    out = [ZERO] * dim
    for term in text.replace("-", "+-").split("+"):
        term = term.strip()
        if not term:
            continue
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        m = _VEC_TERM.match(term)
        if not m:
            raise _UsageError("bad vector term %r" % (term or "-"))
        if m.group(1) and not RATIONAL_RE.fullmatch(m.group(1)):
            raise _UsageError("bad rational in vector %r" % text)
        coef = parse_coefficient(m.group(1)) if m.group(1) else ONE
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
                       "residual": [str(c) for c in res]}
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


def _head(args):
    """A document's "command", with the action, and "inputs", in positional order."""
    entry = args.entry
    command = "%s %s" % (args.command, args.action) if entry.actions else args.command
    return {"command": command, "inputs": [getattr(args, dest) for dest, _ in entry.inputs]}


def _emit(args, text, json_doc=None):
    """Write json_doc under --json (when given), else text, to -o or stdout."""
    if args.json and json_doc is not None:
        text = json.dumps(json_doc, indent=2) + "\n"
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)


def _emit_report(args, report):
    doc = _head(args)
    doc.update(_report_doc(report))
    buf = io.StringIO()
    if not args.json:
        buf.write("command: %s\n" % doc["command"])
        _print_report_text(doc, buf)
    _emit(args, buf.getvalue(), doc)
    return PASS if report.passed else FAIL


# ---------------------------------------------------------------------------
# subcommands: each handler takes the parsed arguments and the loaded inputs,
# and returns a report or an algebra for main to print, or prints its own
# output and returns the exit code

def _check(args, a):
    return check_class(a, args.class_name, args.max_witnesses)


def _twist_usage(args):
    for flag, value in (("--yau", args.yau), ("--compose", args.compose),
                        ("--derived", args.derived)):
        if value is not None and args.class_name is None:
            raise _UsageError("twist %s needs --class" % flag)
    if args.alpha_h is not None and args.class_name is not None:
        raise _UsageError("twist --alpha-h takes no --class")
    if args.type is not None and args.derived is None:
        raise _UsageError("twist --type needs --derived")


def _twist(args, a):
    from homstruct import constructions
    if args.alpha_h is not None:
        return constructions.alpha_h_twist(a, _parse_vector(args.alpha_h, a.dim))
    if args.yau is not None:
        return constructions.yau_twist(a, a.map(args.yau), args.class_name)
    if args.compose is not None:
        return constructions.compose_twist(a, a.map(args.compose), args.class_name)
    if args.derived is not None:
        return constructions.derived_algebra(a, args.derived, args.class_name,
                                             kind=args.type or 1)
    raise _UsageError("twist needs one of --alpha-h, --yau, --compose, --derived")


def _tensor(args, a1, a2):
    from homstruct.constructions import tensor_product
    return tensor_product(a1, a2, args.class_name)


def _subadjacent(args, a):
    from homstruct.constructions import sub_adjacent
    return sub_adjacent(a)


def _bracketd(args, a):
    from homstruct import constructions
    if args.map2 is not None:
        return constructions.bracket_from_two_derivations(
            a, a.map(args.map), a.map(args.map2))
    return constructions.bracket_from_derivation(a, a.map(args.map))


def _semidirect(args, a, rep):
    from homstruct.representations import semidirect_product
    return semidirect_product(a, rep, args.class_name)


def _checkrep(args, a, rep):
    from homstruct.representations import check_rep
    return check_rep(a, rep, args.class_name, args.max_witnesses)


def _dualrep(args, a, rep):
    from homstruct.representations import dual_representation
    dual, hyp = dual_representation(a, rep, args.max_witnesses)
    if args.rep_output:
        _write(args.rep_output, serialize_representation(dual))
    return hyp


def _matched(args, a, b, actions_ab, actions_ba):
    from homstruct.matched_pairs import MatchedPairData, build_double, check_matched_pair
    mp = MatchedPairData(a, b, actions_ab, actions_ba)
    if args.action == "double":
        return build_double(mp, args.class_name)
    return check_matched_pair(mp, args.class_name, args.max_witnesses)


def _manin(args, a, a_star):
    from homstruct.duality import check_manin_triple
    return check_manin_triple(a, a_star, args.max_witnesses)


def _bialgebra(args, a, coalgebra):
    from homstruct.duality import check_bialgebra_conditions, trivial_dual
    if coalgebra.dim != a.dim:
        raise DimensionError("comultiplication dimension mismatch")
    # A*: the comultiplications' dual products with trivial_dual's twist
    a_star = AlgebraPresentation(a.dim, coalgebra.ops, trivial_dual(a).maps)
    return check_bialgebra_conditions(a, a_star, args.max_witnesses)


def _equivalence(args, a, a_star):
    from homstruct.duality import equivalence_report
    result = equivalence_report(a, a_star, args.max_witnesses)
    doc = _head(args)
    doc["verdict"] = "pass" if result["verdict"] else "fail"
    keys = ("bialgebra", "matched_pair", "manin")
    doc.update((key, _report_doc(result[key])) for key in keys)
    buf = io.StringIO()
    if not args.json:
        buf.write("command: equivalence\nshared verdict: %s\n" % doc["verdict"])
        for key in keys:
            buf.write("%s:\n" % key)
            _print_report_text(doc[key], buf, "  ")
    _emit(args, buf.getvalue(), doc)
    return PASS if result["verdict"] else FAIL


def _oop(args, a, rep, T):
    from homstruct.operators import check_o_operator, induced_products
    if args.action == "induce":
        return induced_products(a, rep, T, args.class_name)
    return check_o_operator(a, rep, T, args.class_name, args.max_witnesses)


def _rb_usage(args):
    if args.action == "induce" and args.class_name != "transposed-hom-poisson":
        raise _UsageError("rb induce takes only --class transposed-hom-poisson")


def _rb(args, a, R):
    from homstruct.operators import check_rota_baxter, rota_baxter_induced
    if args.action == "induce":
        return rota_baxter_induced(a, R)
    return check_rota_baxter(a, R, args.class_name, args.max_witnesses)


def _derivations(args, a):
    from homstruct.operators import derivation_space
    commuting = None if args.commuting_with == "none" else args.commuting_with
    basis = [[[str(c) for c in row] for row in d.m]
             for d in derivation_space(a, args.op, commuting)]
    doc = _head(args)
    doc.update(op=args.op, dimension=len(basis), basis=basis)
    buf = io.StringIO()
    if not args.json:
        buf.write("command: derivations\ndimension: %d\n" % len(basis))
        for idx, d in enumerate(basis):
            buf.write("D%d:\n" % (idx + 1))
            buf.writelines("  [%s]\n" % ", ".join(row) for row in d)
    _emit(args, buf.getvalue(), doc)
    return PASS


def _catalog_usage(args):
    if args.action == "show" and not args.name:
        raise _UsageError("catalog show needs an entry name")
    if args.action == "list" and args.name is not None:
        raise _UsageError("catalog list takes no entry name")


def _catalog(args):
    from homstruct import catalog
    if args.action == "list":
        docs = [catalog.describe(name) for name in catalog.names()]
        text = "" if args.json else "".join(
            "%s  class=%s dim=%d params=%s\n"
            % (d["name"], d["class"], d["dim"], ",".join(d["params"]) or "-") for d in docs)
        _emit(args, text, docs)
        return PASS
    if args.name not in catalog.names():
        raise _UsageError("unknown catalog entry %r" % args.name)
    return catalog.get(args.name, args.params or None)


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def non_negative_int(text):
    """An option value that must be a non-negative integer."""
    return _int_at_least(text, 0, "is negative")


def positive_int(text):
    """An option value that must be a positive integer."""
    return _int_at_least(text, 1, "is not positive")


def _int_at_least(text, low, fault):
    # argparse would name the type function in its own message for a ValueError
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % text) from None
    if value < low:
        raise argparse.ArgumentTypeError("%r %s" % (text, fault))
    return value


def _algebra_class(text):
    # argparse reports only a TypeError, ValueError or ArgumentTypeError
    # from a type function as a usage error; resolve_class raises KeyError
    try:
        return resolve_class(text)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


# One subcommand: its handler; its positional inputs as (name, document kind)
# pairs, loaded in that order; the choices of its leading "action" argument;
# the add_argument keywords of its --class (None: no --class); (flag,
# add_argument keywords) pairs of its mutually exclusive options and of its
# other arguments, added in that order between --class and the inputs; and a
# check of the arguments that runs before any input is read.
_Command = namedtuple("_Command", "run inputs actions cls exclusive options validate",
                      defaults=((), None, (), (), None))
_REQUIRED = {"required": True}

_COMMANDS = {
    "check": _Command(_check, [("file", "algebra")], cls=_REQUIRED),
    "twist": _Command(_twist, [("file", "algebra")], cls={}, exclusive=[
        ("--alpha-h", {"metavar": "VEC"}), ("--yau", {"metavar": "MAP"}),
        ("--compose", {"metavar": "MAP"}), ("--derived", {"type": positive_int, "metavar": "N"})],
        options=[("--type", {"type": int, "choices": (1, 2)})], validate=_twist_usage),
    "tensor": _Command(_tensor, [("file1", "algebra"), ("file2", "algebra")], cls=_REQUIRED),
    "subadjacent": _Command(_subadjacent, [("file", "algebra")]),
    "bracketd": _Command(_bracketd, [("file", "algebra")],
                         options=[("--map", _REQUIRED), ("--map2", {})]),
    "semidirect": _Command(_semidirect, [("algebra", "algebra"), ("rep", "rep")],
                           cls=_REQUIRED),
    "checkrep": _Command(_checkrep, [("algebra", "algebra"), ("rep", "rep")], cls=_REQUIRED),
    "dualrep": _Command(_dualrep, [("algebra", "algebra"), ("rep", "rep")],
                        options=[("--rep-output", {"metavar": "FILE"})]),
    "matched": _Command(_matched, [("algebra_a", "algebra"), ("algebra_b", "algebra"),
                                   ("actions_ab", "rep"), ("actions_ba", "rep")],
                        actions=("check", "double"), cls=_REQUIRED),
    "manin": _Command(_manin, [("algebra", "algebra"), ("dual", "algebra")]),
    "bialgebra": _Command(_bialgebra, [("algebra", "algebra"), ("coops", "coops")]),
    "equivalence": _Command(_equivalence, [("algebra", "algebra"), ("dual", "algebra")]),
    "oop": _Command(_oop, [("algebra", "algebra"), ("rep", "rep"), ("operator", "operator")],
                    actions=("check", "induce"), cls=_REQUIRED),
    "rb": _Command(_rb, [("algebra", "algebra"), ("operator", "operator")],
                   actions=("check", "induce"), cls={"default": "transposed-hom-poisson"},
                   validate=_rb_usage),
    "derivations": _Command(_derivations, [("algebra", "algebra")], options=[
        ("--op", {"default": "dot"}), ("--commuting-with", {"default": "alpha"})]),
    "catalog": _Command(_catalog, [], actions=("list", "show"),
                        options=[("name", {"nargs": "?"})], validate=_catalog_usage),
}


@functools.cache
def _build_parser():
    """The argument parser, built once per process (parse_args keeps no state in it)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--params", default="", help="k=v,... parameter binding")
    common.add_argument("--json", action="store_true")
    common.add_argument("--max-witnesses", type=non_negative_int, default=32)
    common.add_argument("-o", dest="output", default=None, metavar="FILE")

    top = _Parser(prog="homstruct")
    sub = top.add_subparsers(dest="command", metavar="SUBCOMMAND")
    for name, entry in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        if entry.actions:
            p.add_argument("action", choices=entry.actions)
        if entry.cls is not None:
            p.add_argument("--class", dest="class_name", type=_algebra_class,
                           metavar="CLASS", **entry.cls)
        if entry.exclusive:
            group = p.add_mutually_exclusive_group()
            for flag, kwargs in entry.exclusive:
                group.add_argument(flag, **kwargs)
        for flag, kwargs in entry.options:
            p.add_argument(flag, **kwargs)
        for dest, _ in entry.inputs:
            p.add_argument(dest)
        p.set_defaults(entry=entry)
    return top


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        entry = getattr(args, "entry", None)
        if entry is None:
            raise _UsageError("a subcommand is required")
        if entry.validate:
            entry.validate(args)
        # from here on, args.params is the binding
        args.params = _parse_params(args.params)
        inputs = [_load(kind, getattr(args, dest), args.params) for dest, kind in entry.inputs]
        out = entry.run(args, *inputs)
        if isinstance(out, CheckReport):
            return _emit_report(args, out)
        if isinstance(out, AlgebraPresentation):
            _emit(args, serialize_algebra(out))
            return PASS
        return out
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return USAGE
    except (PreconditionError, MissingOperationError) as exc:
        # before ValueError, which PreconditionError subclasses
        print("precondition failed: %s" % exc, file=sys.stderr)
        return PRECONDITION
    except ValueError as exc:
        # FormatError, UnboundParameterError and DimensionError among them
        print("input error: %s" % exc, file=sys.stderr)
        return USAGE
    except ConstructionError as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return FAIL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
