"""Checkers for the defining identities of each algebra class.

Every identity is multilinear, so checking it on all basis tuples is both
sound and complete.  Each checker takes a fully bound AlgebraPresentation and
returns a CheckReport whose witnesses are (identity_id, basis_tuple, residual).

The class identities are data (IDENTITIES), evaluated on integer tables: each
op, and alpha, is scaled by the lcm of its denominators.  All terms of one
identity use the same multiset of ops and the same number of alphas, so the
integer residual is the rational residual times one positive scale and its
zero test is exact.  A table counts its failing basis tuples and hands over
that count, the scale and the integer residuals of only the first
max_witnesses failing tuples; core.run_identity_families divides only the
nonzero coordinates of the kept witnesses back into Fractions.
"""

from __future__ import annotations

import math
from itertools import compress, islice

from homstruct.core import (
    CheckReport,
    DimensionError,
    ZERO,
    contraction_family,
    eval_bilinear,
    int_tensor,
    run_identity_families,
)

# op names each class must provide
CLASS_OPS = {
    "comm-hom-assoc": ("dot",),
    "hom-lie": ("bracket",),
    "hom-poisson": ("dot", "bracket"),
    "transposed-hom-poisson": ("dot", "bracket"),
    "hom-pre-lie": ("star",),
    "hom-pre-lie-poisson": ("dot", "star"),
}

CLASS_ALIASES = {"transposed-poisson": "transposed-hom-poisson"}

# identity id -> (arity, terms); p, q, r are positions in the basis tuple.
#   binary term (c, op, p, q):                     c op(e_p, e_q)
#   ternary term (c, outer, inner, side, p, q, r): c outer(a(e_p), inner(e_q, e_r))
#     for side "L", c outer(inner(e_q, e_r), a(e_p)) for side "R"
IDENTITIES = {
    # x.y - y.x
    "commutative": (2, ((1, "dot", 0, 1), (-1, "dot", 1, 0))),
    # (x.y).a(z) - a(x).(y.z)
    "hom-associative": (3, ((1, "dot", "dot", "R", 2, 0, 1),
                            (-1, "dot", "dot", "L", 0, 1, 2))),
    # {x,y} + {y,x}
    "skew-symmetry": (2, ((1, "bracket", 0, 1), (1, "bracket", 1, 0))),
    # {a(x),{y,z}} + {a(y),{z,x}} + {a(z),{x,y}}
    "hom-jacobi": (3, ((1, "bracket", "bracket", "L", 0, 1, 2),
                       (1, "bracket", "bracket", "L", 1, 2, 0),
                       (1, "bracket", "bracket", "L", 2, 0, 1))),
    # {a(x), y.z} - a(y).{x,z} - a(z).{x,y}
    "poisson-leibniz": (3, ((1, "bracket", "dot", "L", 0, 1, 2),
                            (-1, "dot", "bracket", "L", 1, 0, 2),
                            (-1, "dot", "bracket", "L", 2, 0, 1))),
    # 2 a(z).{x,y} - {z.x, a(y)} - {a(x), z.y}
    "transposed-leibniz": (3, ((2, "dot", "bracket", "L", 2, 0, 1),
                               (-1, "bracket", "dot", "R", 1, 2, 0),
                               (-1, "bracket", "dot", "L", 0, 2, 1))),
    # (x*y)*a(z) - a(x)*(y*z) - (y*x)*a(z) + a(y)*(x*z)
    "hom-pre-lie": (3, ((1, "star", "star", "R", 2, 0, 1),
                        (-1, "star", "star", "L", 0, 1, 2),
                        (-1, "star", "star", "R", 2, 1, 0),
                        (1, "star", "star", "L", 1, 0, 2))),
    # (x.y)*a(z) - a(x).(y*z)
    "pre-poisson-1": (3, ((1, "star", "dot", "R", 2, 0, 1),
                          (-1, "dot", "star", "L", 0, 1, 2))),
    # (x*y).a(z) - (y*x).a(z) - a(x)*(y.z) + a(y)*(x.z)
    "pre-poisson-2": (3, ((1, "dot", "star", "R", 2, 0, 1),
                          (-1, "dot", "star", "R", 2, 1, 0),
                          (-1, "star", "dot", "L", 0, 1, 2),
                          (1, "star", "dot", "L", 1, 0, 2))),
    # a(x).{y,z} + a(y).{z,x} + a(z).{x,y}
    "cyclic-sum": (3, ((1, "dot", "bracket", "L", 0, 1, 2),
                       (1, "dot", "bracket", "L", 1, 2, 0),
                       (1, "dot", "bracket", "L", 2, 0, 1))),
    # a(x).{y,z}
    "dot-bracket-vanishes": (3, ((1, "dot", "bracket", "L", 0, 1, 2),)),
    # {x.y, a(z)}
    "bracket-dot-vanishes": (3, ((1, "bracket", "dot", "R", 2, 0, 1),)),
}

# class -> (sub-report classes, own identity ids)
CLASS_FAMILIES = {
    "comm-hom-assoc": ((), ("commutative", "hom-associative")),
    "hom-lie": ((), ("skew-symmetry", "hom-jacobi")),
    "hom-poisson": (("comm-hom-assoc", "hom-lie"), ("poisson-leibniz",)),
    "transposed-hom-poisson": (("comm-hom-assoc", "hom-lie"), ("transposed-leibniz",)),
    "hom-pre-lie": ((), ("hom-pre-lie",)),
    "hom-pre-lie-poisson": (("comm-hom-assoc", "hom-pre-lie"),
                            ("pre-poisson-1", "pre-poisson-2")),
}


def resolve_class(name):
    name = CLASS_ALIASES.get(name, name)
    if name not in CLASS_OPS:
        raise KeyError("unknown algebra class %r" % name)
    return name


# the largest sum of |c| over the terms of one IDENTITIES row (4)
MAX_COEFFICIENT_SUM = max(sum(abs(term[0]) for term in terms)
                          for _, terms in IDENTITIES.values())


class _Tables:
    """Integer tables of one bound presentation, packed into lanes, shared by
    one check's families and by its sub-reports.

    Each op is read through one eval_bilinear call per nonempty cell
    (i, j), at the pair of basis vectors (e_i, e_j); the op's row index says
    which cells exist, and empty cells stay 0 without a call.  It is
    scaled by the lcm of its denominators (scales[name]), alpha by
    alpha_scale, and each nonempty cell is kept as one record (`nonzero`).
    A vector (v_0, ..., v_{n-1}) of integers is packed into the one int
    sum_o v_o << (lane * o).  Packing is linear, so a sum of integer
    multiples of packed vectors is the packed sum, and it unpacks exactly
    (signs included) while every |v_o| < 2 ** (lane - 1).  A coordinate
    of a binary term is at most max|op|, and one of a ternary
    term c outer(a(e_p), inner(e_q, e_r)) sums n ** 2 products (over the
    inner coordinate b and the twist coordinate x) of two op entries and
    one alpha entry.  So every residual coordinate of an identity is at most

        MAX_COEFFICIENT_SUM * max(max|op|, n ** 2 * max|op| ** 2 * max|alpha|)

    over the scaled entries, and lane is that bound's bit_length() + 1.

    All tables are built here, in the order of op_names, so a missing op is
    reported before any identity runs.  A composite class check builds one
    _Tables for its own ops and passes it to its sub-checkers (the `_tables`
    argument), whose ops it contains.
    """

    def __init__(self, a, op_names):
        a.require_bound()
        n = self.dim = a.dim
        t = int_tensor(a.alpha)
        # the nonzero (p, alpha[x][p]) of each row x: alpha(e_p) has e_x coefficient c
        self.alpha = [[] for _ in range(n)]
        for (x, p), c in t.entries.items():
            self.alpha[x].append((p, c))
        self.alpha_scale = t.scale
        ops = {name: a.op(name) for name in op_names}
        e = [[int(b == i) for i in range(n)] for b in range(n)]
        self.scales, cells = {}, {}
        for name, op in ops.items():
            s = self.scales[name] = math.lcm(1, *(c.denominator for *_, c in op.entries))
            # the index lists the nonempty cells in sorted (i, j) order, and at
            # basis vectors each coordinate is a cell coefficient or ZERO itself
            cells[name] = [(i, j, [(b, v.numerator * (s // v.denominator))
                                   for b, v in enumerate(eval_bilinear(op, e[i], e[j]))
                                   if v is not ZERO])
                           for i, row in op.rows.items() for j in row]
        top = max((abs(v) for records in cells.values() for *_, pairs in records
                   for _, v in pairs), default=0)
        twist = max(map(abs, t.entries.values()), default=0)
        bound = MAX_COEFFICIENT_SUM * max(top, n * n * top * top * twist)
        lane = self.lane = bound.bit_length() + 1
        shifts = self._shifts = [lane * o for o in range(n)]
        self._mask, self._half = (1 << lane) - 1, 1 << (lane - 1)
        # every lane raised by half, so that no negative lane borrows from the next
        self._offset = sum(self._half << shift for shift in shifts)
        self._cells = {name: [(i, j, pairs, sum(v << shifts[b] for b, v in pairs))
                              for i, j, pairs in records]
                       for name, records in cells.items()}
        self._twisted = {}

    def nonzero(self, name):
        """The record (i, j, pairs, w) of each op(e_i, e_j) != 0, row-major:
        pairs its (b, coefficient) pairs with coefficient != 0, and w their
        packed vector."""
        return self._cells[name]

    def twisted(self, name, side):
        """For each b, the (x, M[x][b]) with M[x][b] != 0, where M[x][b] is
        op(a(e_x), e_b) for side "L" and op(e_b, a(e_x)) for side "R",
        packed: each a sum over the op's nonzero cells and the nonzero
        entries of alpha's rows."""
        key = (name, side)
        if key not in self._twisted:
            m = [{} for _ in range(self.dim)]
            for i, j, _, w in self._cells[name]:
                y, b = (i, j) if side == "L" else (j, i)
                col = m[b]
                for x, c in self.alpha[y]:
                    col[x] = col.get(x, 0) + c * w
            self._twisted[key] = [[(x, w) for x, w in col.items() if w] for col in m]
        return self._twisted[key]

    def unpack(self, v):
        """The n signed coordinates of a packed vector."""
        v += self._offset
        mask, half = self._mask, self._half
        return [(v >> shift & mask) - half for shift in self._shifts]

    def family(self, ident, limit):
        """The (identity id, arity, table fn) triple of one IDENTITIES row.

        table() returns (scale, rows, failures): failures counts the basis
        tuples with a nonzero residual, and rows maps the first `limit` of
        them, in tuple order, to the integer residual times scale.  The
        residuals come from a sparse join into one packed accumulator per
        basis tuple: a binary term adds its op's nonzero cells, and a
        ternary term adds, for each nonzero inner cell (x_q, x_r) with
        coordinate v at b, c * v * M[x_p][b] for each (x_p, M[x_p][b]) of
        twisted row b, which lists only the nonzero ones.  The accumulators
        are counted by C-level scans (`list.count`), and only the kept ones
        are found (`compress`, whose flat index runs in tuple order) and
        unpacked, so the n ** arity slots cost no Python-level loop.
        """
        arity, terms = IDENTITIES[ident]
        n = self.dim
        if arity == 2:
            scale = self.scales[terms[0][1]]
        else:
            _, outer, inner = terms[0][:3]
            scale = self.scales[outer] * self.scales[inner] * self.alpha_scale
        strides = [n ** (arity - 1 - k) for k in range(arity)]

        def table():
            acc = [0] * n ** arity
            for term in terms:
                c = term[0]
                # the flat-index stride of each argument, by its tuple position
                st = [strides[slot] for slot in term[-arity:]]
                if arity == 2:
                    for x, y, _, w in self.nonzero(term[1]):
                        acc[x * st[0] + y * st[1]] += c * w
                    continue
                rows = [[(xp * st[0], w) for xp, w in row]
                        for row in self.twisted(term[1], term[3])]
                for xq, xr, pairs, _ in self.nonzero(term[2]):
                    base = xq * st[1] + xr * st[2]
                    for b, v in pairs:
                        cv = c * v
                        for off, w in rows[b]:
                            acc[base + off] += cv * w
            # a passing family leaves every slot 0, and one C-level count
            # returns before compress walks a range over all n ** arity slots
            failures = len(acc) - acc.count(0)
            if not failures:
                return scale, {}, 0
            return scale, {tuple(idx // stride % n for stride in strides): self.unpack(acc[idx])
                           for idx in islice(compress(range(len(acc)), acc), limit)}, failures
        return ident, arity, table


def _check(a, cls, max_witnesses, tables):
    """The class report; sub-reports go through CLASS_CHECKERS on the same tables."""
    subs, idents = CLASS_FAMILIES[cls]
    if tables is None:
        tables = _Tables(a, CLASS_OPS[cls])
    return run_identity_families(
        a.dim, [tables.family(ident, max_witnesses) for ident in idents], max_witnesses,
        sub_reports={sub: CLASS_CHECKERS[sub](a, max_witnesses, _tables=tables)
                     for sub in subs})


def check_multiplicative(a, max_witnesses=32):
    """alpha(x # y) = alpha(x) # alpha(y) for every op."""
    a.require_bound()
    _, fams = _morphism_families(a, a, a.alpha, sorted(a.ops), "multiplicative:%s")
    return run_identity_families(a.dim, fams, max_witnesses)


def _morphism_families(a, b, f, names, ident):
    """The tensors, and per op name the family ident % name of
    f(x #_a y) - f(x) #_b f(y)."""
    t = {"f": int_tensor(f)}
    fams = []
    for name in names:
        t["a:" + name], t["b:" + name] = int_tensor(a.op(name)), int_tensor(b.op(name))
        fams.append(contraction_family(ident % name, (2, (
            (1, "ijr,or->ijo", ("a:" + name, "f")),
            (-1, "ai,bj,abo->ijo", ("f", "f", "b:" + name)))), t))
    return t, fams


def check_comm_hom_assoc(a, max_witnesses=32, _tables=None):
    """Commutative Hom-associative: x.y = y.x and (x.y).a(z) = a(x).(y.z)."""
    return _check(a, "comm-hom-assoc", max_witnesses, _tables)


def check_hom_lie(a, max_witnesses=32, _tables=None):
    """Skew-symmetry and the Hom-Jacobi identity for the bracket."""
    return _check(a, "hom-lie", max_witnesses, _tables)


def check_hom_poisson(a, max_witnesses=32, _tables=None):
    """Hom-Poisson: comm Hom-assoc dot, Hom-Lie bracket, Leibniz compatibility.

    Compatibility: {a(x), y.z} = a(y).{x,z} + a(z).{x,y}.
    """
    return _check(a, "hom-poisson", max_witnesses, _tables)


def check_transposed_hom_poisson(a, max_witnesses=32, _tables=None):
    """Transposed Hom-Poisson: 2 a(z).{x,y} = {z.x, a(y)} + {a(x), z.y}."""
    return _check(a, "transposed-hom-poisson", max_witnesses, _tables)


def check_hom_pre_lie(a, max_witnesses=32, _tables=None):
    """Hom-pre-Lie: (x*y)*a(z) - a(x)*(y*z) is symmetric in x, y."""
    return _check(a, "hom-pre-lie", max_witnesses, _tables)


def check_hom_pre_lie_poisson(a, max_witnesses=32, _tables=None):
    """Hom-pre-Lie Poisson: comm Hom-assoc dot, Hom-pre-Lie star, two relations.

    relation-1: (x.y)*a(z) = a(x).(y*z)
    relation-2: (x*y).a(z) - (y*x).a(z) = a(x)*(y.z) - a(y)*(x.z)
    """
    return _check(a, "hom-pre-lie-poisson", max_witnesses, _tables)


CLASS_CHECKERS = {
    "comm-hom-assoc": check_comm_hom_assoc,
    "hom-lie": check_hom_lie,
    "hom-poisson": check_hom_poisson,
    "transposed-hom-poisson": check_transposed_hom_poisson,
    "hom-pre-lie": check_hom_pre_lie,
    "hom-pre-lie-poisson": check_hom_pre_lie_poisson,
}


def check_class(a, class_name, max_witnesses=32):
    return CLASS_CHECKERS[resolve_class(class_name)](a, max_witnesses)


def check_derivation(a, op_name, d, max_witnesses=32):
    """D is a derivation of the named op that commutes with alpha."""
    a.require_bound()
    d.require_bound()
    if d.rows != a.dim or d.cols != a.dim:
        raise DimensionError("derivation matrix must be dim-square")
    t = {"op": int_tensor(a.op(op_name)), "D": int_tensor((d,)), "g": int_tensor(a.alpha)}
    return run_identity_families(a.dim, _derivation_families(op_name, t), max_witnesses)


def _derivation_families(op_name, t):
    """The leibniz:<op> family of D(x op y) - D(x) op y - x op D(y) and, when
    t has a map "g", the commutes-with-twist family g D - D g, over the
    integer tensors t["op"] and t["D"], a family of k matrices D_b: the
    residual coordinate (b, o) is D_b's coordinate o."""
    fams = [contraction_family("leibniz:%s" % op_name, (2, (
        (1, "ijr,bor->ijbo", ("op", "D")),
        (-1, "bri,rjo->ijbo", ("D", "op")),
        (-1, "brj,iro->ijbo", ("D", "op")))), t)]
    if "g" in t:
        fams.append(contraction_family("commutes-with-twist", (1, (
            (1, "bri,or->ibo", ("D", "g")),
            (-1, "ri,bor->ibo", ("g", "D")))), t))
    return fams


def check_morphism(a, b, f, op_names=None, max_witnesses=32):
    """f is an algebra morphism a -> b on the named ops and intertwines twists."""
    a.require_bound()
    b.require_bound()
    f.require_bound()
    if f.rows != b.dim or f.cols != a.dim:
        raise DimensionError("morphism matrix must be (dim b) x (dim a)")
    names = sorted(set(a.ops) & set(b.ops)) if op_names is None else list(op_names)
    t, fams = _morphism_families(a, b, f, names, "morphism:%s")
    t["a:alpha"], t["b:alpha"] = int_tensor(a.alpha), int_tensor(b.alpha)
    fams.append(contraction_family("intertwines-twists", (1, (
        (1, "ri,or->io", ("a:alpha", "f")),
        (-1, "ri,or->io", ("f", "b:alpha")))), t))
    return run_identity_families(a.dim, fams, max_witnesses)


def check_transposed_consequences(a, max_witnesses=32):
    """Derived identities every transposed Hom-Poisson algebra must satisfy:
    the paper's identities that follow from the transposed Leibniz rule.

    cyclic-sum: a(x).{y,z} + a(y).{z,x} + a(z).{x,y} = 0.
    four-variable (only when alpha = id, otherwise skipped with a note):
    {x.z, y.t} + {x.t, y.z} = 2 (z.t).{x,y}.
    """
    fams = [_Tables(a, ("dot", "bracket")).family("cyclic-sum", max_witnesses)]
    notes = []
    if a.alpha.is_identity():
        t = {"dot": int_tensor(a.op("dot")), "br": int_tensor(a.op("bracket"))}
        fams.append(contraction_family("four-variable", (4, (
            (1, "ika,jlb,abo->ijklo", ("dot", "dot", "br")),
            (1, "ila,jkb,abo->ijklo", ("dot", "dot", "br")),
            (-2, "kla,ijb,abo->ijklo", ("dot", "br", "dot")))), t))
    else:
        notes.append("four-variable identity skipped: twist is not the identity")
    return run_identity_families(a.dim, fams, max_witnesses, notes=notes)


def check_poisson_intersection(a, max_witnesses=32):
    """Both Hom-Poisson and transposed hold iff both mixed products vanish:
    the paper's description of the algebras that are both Hom-Poisson and
    transposed Hom-Poisson.

    Carries three verdicts as sub-reports: membership in each of the two
    classes, and the annihilation conditions a(x).{y,z} = 0 and
    {x.y, a(z)} = 0.  When the shared relations hold (commutative
    Hom-associative dot and Hom-Lie bracket), joint membership and
    annihilation are equivalent; tests/test_acceptance.py pins that theorem.
    """
    t = _Tables(a, ("dot", "bracket"))
    annihilation = run_identity_families(
        a.dim, [t.family(ident, max_witnesses)
                for ident in ("dot-bracket-vanishes", "bracket-dot-vanishes")],
        max_witnesses)
    hp = check_hom_poisson(a, max_witnesses, _tables=t)
    tp = check_transposed_hom_poisson(a, max_witnesses, _tables=t)
    return CheckReport(
        checked=annihilation.checked + hp.checked + tp.checked,
        sub_reports={"hom-poisson": hp, "transposed": tp,
                     "annihilation": annihilation},
        notes=("annihilation: %s" % ("pass" if annihilation.passed else "fail"),))
