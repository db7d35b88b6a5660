"""Every public function of homstruct, and every public method or property
of a class in `homstruct.core`, is used by the package or listed.

A public module-level function of `homstruct.*` must be referenced from
`src/homstruct` outside its own `def`, or be on `ALLOWED` with its reason.
The references are read from the source's AST: a name loaded in its own
module, a name imported with `from homstruct.<module> import`, or an
attribute of a module imported with `from homstruct import <module>`.  A
method is used when the package reads an attribute of its name outside a
`def` of that name; the class of the object is not known to the AST, so a
name that two classes share counts for both.  An entry of `ALLOWED` that
names nothing public, or a name that the package now uses, fails the test
too, so the list cannot rot.  A name only the tests use is not a reason.
Likewise, a module that imports another module's private name must be on
`PRIVATE_IMPORTS` with its reason, and a listed import that no module makes
fails the test.
"""

import ast
import pathlib

import homstruct

SRC = pathlib.Path(homstruct.__file__).parent

# "module.function" or "core.Class.method" -> why it stays without a caller
# in the package
ALLOWED = {
    "axioms.check_poisson_intersection":
        "paper: both Hom-Poisson and transposed iff the mixed products vanish",
    "axioms.check_transposed_consequences":
        "paper: identities that follow from the transposed Leibniz rule",
    "core.CheckReport.all_witnesses": "bench/workloads.py compares every witness through it",
    "core.parse_form": "bench/tracing.py wraps it as core.parse",
    "core.serialize_comultiplications": "interchange round trip of parse_comultiplications",
    "core.serialize_form": "interchange round trip of parse_form",
    "core.serialize_o_operator": "interchange round trip of parse_o_operator; bench/gen.py",
    "matched_pairs.mp_pre_lie_to_lie":
        "paper: a Hom-pre-Lie matched pair gives a sub-adjacent Hom-Lie one",
    "matched_pairs.swap": "paper: a matched pair with its sides exchanged is one",
    "operators.compatible_pre_lie_from_invertible":
        "paper: an invertible O-operator gives a compatible Hom-pre-Lie Poisson structure",
    "operators.o_operator_is_morphism":
        "paper: an O-operator is a morphism from the induced sub-adjacent structure",
    "representations.bimodule_from_morphism":
        "paper: a morphism f: a -> b makes b a bimodule of a",
}


def _modules():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _public_functions(modules):
    return {"%s.%s" % (mod, node.name)
            for mod, tree in modules.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def _references(mod, tree):
    """"module.name" for each name the module reads, a function's reads of
    its own name left out."""
    aliases, out = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "homstruct":
            aliases.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("homstruct."):
            source = node.module.split(".", 1)[1]
            out.update("%s.%s" % (source, alias.name) for alias in node.names)
    for stmt in tree.body:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add("%s.%s" % (mod, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                found.add("%s.%s" % (aliases[node.value.id], node.attr))
        if isinstance(stmt, ast.FunctionDef):
            found.discard("%s.%s" % (mod, stmt.name))
        out |= found
    return out


def _check_listed(public, used, kind):
    listed = {name for name in ALLOWED if name.count(".") == kind.count(".")}
    assert sorted(public - used - listed) == []
    assert sorted(listed - public) == [], "listed names that are not public"
    assert sorted(listed & used) == [], "listed names that the package now uses"


def test_public_functions_are_used_or_listed():
    modules = _modules()
    used = set().union(*(_references(mod, tree) for mod, tree in modules.items()))
    _check_listed(_public_functions(modules), used, "module.function")


def _attribute_reads(node, enclosing=()):
    """The attribute names read under node, a read inside a def of the same
    name left out."""
    if isinstance(node, ast.FunctionDef):
        enclosing += (node.name,)
    out = set()
    if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr not in enclosing):
        out.add(node.attr)
    for child in ast.iter_child_nodes(node):
        out |= _attribute_reads(child, enclosing)
    return out


def test_public_methods_of_core_are_used_or_listed():
    modules = _modules()
    public = {"core.%s.%s" % (cls.name, node.name)
              for cls in modules["core"].body if isinstance(cls, ast.ClassDef)
              for node in cls.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    reads = set().union(*map(_attribute_reads, modules.values()))
    used = {name for name in public if name.rsplit(".", 1)[1] in reads}
    _check_listed(public, used, "core.Class.method")
    tree = ast.parse("class C:\n    def f(self):\n        return self.f() + self.g\n"
                     "    @property\n    def g(self):\n        return self.h\n")
    assert _attribute_reads(tree) == {"g", "h"}


def test_references_are_read_from_the_ast():
    tree = ast.parse("from homstruct import core\n"
                     "from homstruct.axioms import check_class\n"
                     "def f(n):\n    return f(n - 1) + g(n) + core.parse_form(n)\n"
                     "def g(n):\n    return n\n")
    refs = _references("m", tree)
    assert {"axioms.check_class", "m.g", "core.parse_form"} <= refs
    assert "m.f" not in refs


def _unused_imports(tree):
    """The names a module imports and never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - {node.id for node in ast.walk(tree)
                       if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_modules_read_every_name_they_import():
    # __init__ imports to re-export
    unused = {"%s.%s" % (mod, name) for mod, tree in _modules().items() if mod != "__init__"
              for name in _unused_imports(tree)}
    assert sorted(unused) == []
    tree = ast.parse("from __future__ import annotations\nimport os.path\nimport re as r\n"
                     "from json import dumps, loads\nprint(os.sep, loads)\n")
    assert _unused_imports(tree) == {"r", "dumps"}


# (importing module, "module._name") -> why the importer reads another
# module's private name
PRIVATE_IMPORTS = {
    ("duality", "matched_pairs._matched_pair_report"):
        "equivalence_report wraps the double's class report that it already holds",
    ("matched_pairs", "core._Value"): "MatchedPairData is a value type",
    ("operators", "axioms._derivation_families"):
        "derivation_space solves the rows that check_derivation evaluates",
    ("operators", "representations._report"):
        "check_o_operator's module gate is check_rep's report",
    ("operators", "representations._tensors"):
        "check_o_operator reads its module gate's tensors",
}


def _private_imports(mod, tree):
    """(mod, "module._name") for each private name that mod imports with
    `from homstruct.<module> import`, at any depth."""
    return {(mod, "%s.%s" % (node.module.split(".", 1)[1], alias.name))
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("homstruct.")
            for alias in node.names if alias.name.startswith("_")}


def test_private_imports_across_modules_are_listed():
    found = set().union(*(_private_imports(mod, tree) for mod, tree in _modules().items()))
    assert sorted(found - set(PRIVATE_IMPORTS)) == [], "unlisted private imports"
    assert sorted(set(PRIVATE_IMPORTS) - found) == [], "listed imports that no module makes"
    tree = ast.parse("from homstruct.core import _Value, parse_form\n"
                     "def f():\n    from homstruct.axioms import _x\n")
    assert _private_imports("m", tree) == {("m", "core._Value"), ("m", "axioms._x")}
