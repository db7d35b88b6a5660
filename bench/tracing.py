"""Spans around calls into homstruct's public functions, recorded from outside.

The tracer rebinds module attributes of the loaded ``homstruct`` modules
(including the names one module imported from another, and the checker
tables ``CLASS_CHECKERS`` / ``REP_CHECKERS``) to wrappers that record a span:
name, start, end, parent span and top-level call id.  Spans stay in memory
until the run ends.  ``uninstall`` restores every binding.

``eval_bilinear`` gets a counting wrapper instead of a span: it is called
millions of times, so it only adds to two counters (calls and entries
visited, the kernel's operation count).  Family closures passed to
``run_identity_families`` are timed per identity id the same way.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

CLASS_CHECKERS = {
    "check_comm_hom_assoc": "comm-hom-assoc",
    "check_hom_lie": "hom-lie",
    "check_hom_poisson": "hom-poisson",
    "check_transposed_hom_poisson": "transposed-hom-poisson",
    "check_hom_pre_lie": "hom-pre-lie",
    "check_hom_pre_lie_poisson": "hom-pre-lie-poisson",
}
BUILDERS = ("tensor_product", "sub_adjacent", "alpha_h_twist", "yau_twist",
            "compose_twist", "derived_algebra", "bracket_from_derivation",
            "bracket_from_two_derivations")

# (module, function) -> span name
SPANS = {
    ("core", "parse_algebra"): "core.parse",
    ("core", "parse_representation"): "core.parse",
    ("core", "parse_o_operator"): "core.parse",
    ("core", "parse_form"): "core.parse",
    ("core", "parse_comultiplications"): "core.parse",
    ("core", "substitute_params"): "core.substitute",
    ("core", "serialize_algebra"): "core.serialize",
    ("core", "serialize_representation"): "core.serialize",
    ("core", "run_identity_families"): "core.families",
    ("axioms", "check_class"): "axioms.check_class",
    ("axioms", "check_morphism"): "axioms.check_morphism",
    ("axioms", "check_derivation"): "axioms.check_derivation",
    ("axioms", "check_multiplicative"): "axioms.check_multiplicative",
    ("representations", "check_rep"): "representations.check_rep",
    ("representations", "regular_representation"): "representations.regular",
    ("representations", "semidirect_product"): "representations.semidirect",
    ("representations", "dual_representation"): "representations.dual_rep",
    ("matched_pairs", "build_double"): "matched_pairs.build_double",
    ("matched_pairs", "check_matched_pair"): "matched_pairs.check",
    ("duality", "check_manin_triple"): "duality.manin",
    ("duality", "check_bialgebra_conditions"): "duality.bialgebra",
    ("duality", "equivalence_report"): "duality.equivalence",
    ("operators", "derivation_space"): "operators.derivation_space",
    ("operators", "nullspace_basis"): "operators.nullspace",
    ("operators", "check_rota_baxter"): "operators.rota_baxter",
    ("catalog", "get"): "catalog.get",
    ("catalog", "describe"): "catalog.describe",
    ("cli", "main"): "cli.main",
}
SPANS.update({("axioms", f): "axioms.check.%s" % c for f, c in CLASS_CHECKERS.items()})
SPANS.update({("constructions", f): "constructions.build.%s" % f for f in BUILDERS})


class Tracer:
    """In-memory span recorder.

    A span is a list [name, start, end, parent index, call id, error type].
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.call_id = (0, 0)  # (batch, index of the call in the batch)
        self.family_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.check_inputs = []
        self._undo = []

    # -- recording

    def _span(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        span = [name, 0.0, 0.0, parent, self.call_id, None]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span[5] = type(exc).__name__
            raise
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn):
        tracer = self
        if name == "cli.main":
            def wrapper(argv=None):
                sub = argv[0] if argv else "none"
                return tracer._span("cli.main.%s" % sub, fn, (argv,), {})
        elif name == "core.families":
            def wrapper(dim, families, *args, **kwargs):
                report = tracer._span(name, fn, (dim, tracer._timed(families)) + args, kwargs)
                tracer.counts["tuples"] += report.checked
                tracer.counts["failures"] += report.failures
                tracer.counts["witnesses"] += len(report.witnesses)
                return report
        elif name == "operators.nullspace":
            def wrapper(rows, width):
                tracer.counts["system_cells"] += len(rows) * width
                return tracer._span(name, fn, (rows, width), {})
        elif name.startswith("axioms.check."):
            def wrapper(a, *args, **kwargs):
                tracer.check_inputs.append((tracer.call_id[0], name, a))
                return tracer._span(name, fn, (a,) + args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer._span(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _timed(self, families):
        acc = self.family_s
        clock = time.perf_counter
        out = []
        for (ident, arity, fn) in families:
            def timed(*tup, fn=fn, ident=ident):
                t0 = clock()
                try:
                    return fn(*tup)
                finally:
                    acc[ident] += clock() - t0
            out.append((ident, arity, timed))
        return out

    def _counting_eval(self, fn):
        counts = self.counts

        def eval_bilinear(op, x, y):
            counts["eval_bilinear_calls"] += 1
            counts["entries_visited"] += len(op.entries)
            return fn(op, x, y)
        return eval_bilinear

    # -- installing

    def install(self):
        for mod_name, _ in SPANS:
            importlib.import_module("homstruct." + mod_name)
        modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                   if name.startswith("homstruct.") and mod is not None}
        wrappers = {}
        for (mod_name, fn_name), span in SPANS.items():
            original = getattr(modules[mod_name], fn_name)
            wrappers[id(original)] = (original, self._wrap(span, original))
        core_eval = modules["core"].eval_bilinear
        wrappers[id(core_eval)] = (core_eval, self._counting_eval(core_eval))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit and hit[0] is value:
                    self._rebind(mod, attr, hit[1])
                elif isinstance(value, dict) and attr.isupper():
                    for key, fn in list(value.items()):
                        hit = wrappers.get(id(fn))
                        if hit and hit[0] is fn:
                            self._undo.append((value.__setitem__, key, fn))
                            value[key] = hit[1]

    def _rebind(self, mod, attr, new):
        self._undo.append((lambda k, v, mod=mod: setattr(mod, k, v), attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self):
        for setter, key, value in reversed(self._undo):
            setter(key, value)
        self._undo = []


# ---------------------------------------------------------------------------
# span arithmetic

def self_times(spans):
    """Self time of each span: its duration minus the time its children cover.

    Children of one span run one after another inside it (a single-threaded
    call stack), so the covered time is the union of their intervals,
    clipped to the parent.
    """
    children = defaultdict(list)
    for idx, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(idx)
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cursor = s[1]
        for c in sorted(children[idx], key=lambda k: spans[k][1]):
            start, end = max(spans[c][1], cursor), min(spans[c][2], s[2])
            if end > start:
                covered += end - start
                cursor = end
        out.append((s[2] - s[1]) - covered)
    return out


def outermost(spans, match):
    """Indices of spans whose name matches and that have no matching ancestor."""
    out = []
    for idx, s in enumerate(spans):
        if not match(s[0]):
            continue
        parent = s[3]
        while parent is not None and not match(spans[parent][0]):
            parent = spans[parent][3]
        if parent is None:
            out.append(idx)
    return out


def inclusive(spans, match):
    """Total duration of the outermost spans whose name matches."""
    return sum(spans[i][2] - spans[i][1] for i in outermost(spans, match))


def descendant_time(spans, roots, match):
    """Time inside the roots spent under outermost matching descendants."""
    root_set = set(roots)
    total = 0.0
    for idx, s in enumerate(spans):
        if not match(s[0]):
            continue
        parent, under_match, root = s[3], False, None
        while parent is not None:
            if parent in root_set:
                root = parent
                break
            if match(spans[parent][0]):
                under_match = True
            parent = spans[parent][3]
        if root is not None and not under_match:
            total += s[2] - s[1]
    return total
