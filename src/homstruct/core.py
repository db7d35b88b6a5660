"""Exact scalars, bilinear maps, linear maps, presentations and the file format.

Everything downstream works with coefficient vectors over exact rationals
(``fractions.Fraction``).  A coefficient may also be an unbound parameter,
stored as its name (optionally prefixed with "-"); all checkers and builders
require fully bound presentations and raise UnboundParameterError otherwise.

Conventions:
  * BilinearMap entry (i, j, k, c) means op(e_i, e_j) has e_k-coefficient c.
  * LinearMap matrix m is column-convention: f(e_c) = sum_r m[r][c] e_r.
  * Indices are 0-based internally; basis names ("e1", ...) are 1-based labels.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter, mul

RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?$")
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")

ZERO = Fraction(0)
ONE = Fraction(1)

# The largest dim, algebra_dim or module_dim a document may declare.  A
# declared dim sizes the basis names and the dense dim^3 tables before any
# entry is read; at 64 an op's table has 262,144 cells.
MAX_DIM = 64


class FormatError(ValueError):
    """A document does not conform to the interchange format."""


class DimensionError(ValueError):
    """Shapes of the supplied objects do not match."""


class UnboundParameterError(ValueError):
    """A parametric presentation was used where concrete scalars are required."""


class MissingOperationError(KeyError):
    """A required op or map is absent from the presentation."""


class PreconditionError(ValueError):
    """A builder's gate check failed; carries the offending report when present."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConstructionError(AssertionError):
    """A construction's asserted closure property failed to verify."""


# ---------------------------------------------------------------------------
# coefficients

def parse_coefficient(s, params=()):
    """Parse a coefficient token: rational string, parameter name or -name."""
    if not isinstance(s, str):
        raise FormatError("coefficient must be a string, got %r" % (s,))
    if RATIONAL_RE.match(s):
        return Fraction(s)
    if s in params:
        return s
    if s.startswith("-") and s[1:] in params:
        return s
    raise FormatError("bad coefficient %r (not a rational or declared parameter)" % s)


def coefficient_str(c):
    return c if isinstance(c, str) else str(c)


def substitute_coefficient(c, binding):
    if isinstance(c, Fraction):
        return c
    if c.startswith("-"):
        name, sign = c[1:], -1
    else:
        name, sign = c, 1
    if name not in binding:
        raise UnboundParameterError("parameter %r is unbound" % name)
    return sign * binding[name]


def require_bound(c, what="coefficient"):
    if not isinstance(c, Fraction):
        raise UnboundParameterError("unbound parameter %r in %s" % (c, what))
    return c


# ---------------------------------------------------------------------------
# vectors

def basis_vec(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


# ---------------------------------------------------------------------------
# bilinear maps

@dataclass(frozen=True)
class BilinearMap:
    """Sparse rank-3 structure-constant tensor on a dim-dimensional space."""

    dim: int
    entries: tuple = ()

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError("dim must be positive")
        seen = set()
        cleaned = []
        for e in self.entries:
            i, j, k, c = e
            if not (0 <= i < self.dim and 0 <= j < self.dim and 0 <= k < self.dim):
                raise FormatError("entry index out of range: %r (dim %d)" % (e, self.dim))
            if (i, j, k) in seen:
                raise FormatError("duplicate entry for (%d,%d,%d)" % (i, j, k))
            seen.add((i, j, k))
            if isinstance(c, Fraction) and c == 0:
                continue
            cleaned.append((i, j, k, c))
        cleaned.sort(key=lambda e: (e[0], e[1], e[2]))
        object.__setattr__(self, "entries", tuple(cleaned))

    @property
    def is_zero(self):
        return not self.entries

    def is_bound(self):
        return all(isinstance(c, Fraction) for (_, _, _, c) in self.entries)


def eval_bilinear(op, x, y):
    """Evaluate op at coefficient vectors x, y (bilinear extension)."""
    if len(x) != op.dim or len(y) != op.dim:
        raise DimensionError("vector length does not match op dim %d" % op.dim)
    res = [ZERO] * op.dim
    for (i, j, k, c) in op.entries:
        t = x[i] * y[j]
        if t:
            res[k] += t * require_bound(c)
    return tuple(res)


# ---------------------------------------------------------------------------
# linear maps

@dataclass(frozen=True)
class LinearMap:
    """Matrix with column convention f(e_c) = sum_r m[r][c] e_r."""

    rows: int
    cols: int
    m: tuple = ()

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DimensionError("matrix shape must be positive")
        if len(self.m) != self.rows or any(len(r) != self.cols for r in self.m):
            raise FormatError("matrix shape mismatch")
        object.__setattr__(self, "m", tuple(tuple(r) for r in self.m))

    @staticmethod
    def from_rows(rows):
        rows = [tuple(r) for r in rows]
        return LinearMap(len(rows), len(rows[0]), tuple(rows))

    @staticmethod
    def identity(n):
        return LinearMap.from_rows(
            [[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows, cols=None):
        cols = rows if cols is None else cols
        return LinearMap.from_rows([[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def diagonal(values):
        values = list(values)
        n = len(values)
        return LinearMap.from_rows(
            [[values[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(cols):
        cols = [tuple(c) for c in cols]
        return LinearMap.from_rows(
            [[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

    def is_bound(self):
        return all(isinstance(c, Fraction) for row in self.m for c in row)

    def require_bound(self):
        for row in self.m:
            for c in row:
                require_bound(c, "linear map")
        return self

    @property
    def is_square(self):
        return self.rows == self.cols

    def is_identity(self):
        return self.is_square and self == LinearMap.identity(self.rows)

    def is_zero(self):
        return all(c == 0 for row in self.m for c in row)

    def column(self, c):
        return tuple(self.m[r][c] for r in range(self.rows))

    def transpose(self):
        return LinearMap.from_rows(
            [[self.m[r][c] for r in range(self.rows)] for c in range(self.cols)])

    def flat(self):
        return tuple(c for row in self.m for c in row)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise DimensionError("matrix product shape mismatch")
        self.require_bound()
        other.require_bound()
        return LinearMap.from_rows(
            [[sum((self.m[r][t] * other.m[t][c] for t in range(self.cols)), ZERO)
              for c in range(other.cols)] for r in range(self.rows)])

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix sum shape mismatch")
        return LinearMap.from_rows(
            [[require_bound(a) + require_bound(b) for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.m, other.m)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LinearMap.from_rows([[-require_bound(c) for c in row] for row in self.m])

    def scale(self, s):
        return LinearMap.from_rows([[s * require_bound(c) for c in row] for row in self.m])

    def power(self, n):
        if not self.is_square:
            raise DimensionError("power of a non-square map")
        out = LinearMap.identity(self.rows)
        for _ in range(n):
            out = out @ self
        return out

    def det(self):
        if not self.is_square:
            raise DimensionError("determinant of a non-square map")
        self.require_bound()
        reduced, pivots, ratio = fraction_free_rref(self.m, self.cols)
        if len(pivots) < self.rows:
            return ZERO
        return ratio * math.prod(row[p] for row, p in zip(reduced, pivots))

    def inverse(self):
        if not self.is_square:
            raise DimensionError("inverse of a non-square map")
        self.require_bound()
        n = self.rows
        # [M | I] reduces to [P | P M^-1], P the diagonal of pivot entries
        reduced, pivots, _ = fraction_free_rref(
            [row + tuple(int(c == r) for c in range(n)) for r, row in enumerate(self.m)],
            2 * n)
        if pivots != list(range(n)):
            raise DimensionError("map is singular")
        return LinearMap.from_rows([[Fraction(x, row[p]) for x in row[n:]]
                                    for row, p in zip(reduced, pivots)])


def block_diag(f, g):
    n, p = f.rows, g.rows
    rows = []
    for r in range(n):
        rows.append(list(f.m[r]) + [ZERO] * g.cols)
    for r in range(p):
        rows.append([ZERO] * f.cols + list(g.m[r]))
    return LinearMap.from_rows(rows)


def linear_combination(mats, x):
    """sum_i x_i * mats[i] for a coefficient vector x over the algebra."""
    if len(mats) != len(x):
        raise DimensionError("family size does not match vector length")
    out = LinearMap.zero(mats[0].rows, mats[0].cols)
    for c, mat in zip(x, mats):
        if c != 0:
            out = out + mat.scale(c)
    return out


def fraction_free_rref(rows, width):
    """Reduced row echelon form by fraction-free Gauss-Jordan elimination.

    Each row (of ints or Fractions) is scaled to integers by the lcm of its
    denominators.  Pivots are taken in column order; every other row r with
    entry f != 0 in the pivot column becomes (p r - f q) / g, for q the pivot
    row, p its pivot entry and g the gcd of the result, so entries stay
    small and no Fraction is formed.  Zero rows are dropped.

    Returns (reduced, pivots, ratio).  reduced[t] is an integer row whose
    entry at pivots[t] is nonzero and whose entries at the other pivot
    columns are 0: divided by its pivot entry it is row t of the (unique)
    reduced row echelon form.  For a square input of full rank, det(rows) is
    ratio times the product of the pivot entries (ratio collects -1 per row
    swap, g / p per row operation and 1 / lcm per input row).
    """
    num, den = 1, 1
    ints = []
    for row in rows:
        s = math.lcm(*[x.denominator for x in row])
        den *= s
        row = [x.numerator * (s // x.denominator) for x in row]
        if any(row):
            ints.append(row)
    pivots = []
    for col in range(width):
        rank = len(pivots)
        at = next((t for t in range(rank, len(ints)) if ints[t][col]), None)
        if at is None:
            continue
        if at != rank:
            ints[rank], ints[at] = ints[at], ints[rank]
            num = -num
        q = ints[rank]
        p = q[col]
        kept = []
        for t, r in enumerate(ints):
            f = r[col]
            if f and t != rank:
                r = [p * x - f * y for x, y in zip(r, q)]
                g = math.gcd(*r)
                if not g:
                    continue
                num, den = num * g, den * p
                if g > 1:
                    r = [x // g for x in r]
            kept.append(r)
        ints = kept
        pivots.append(col)
    return ints[:len(pivots)], pivots, Fraction(num, den)


# ---------------------------------------------------------------------------
# presentations

def default_basis(n):
    return tuple("e%d" % (i + 1) for i in range(n))


@dataclass(frozen=True)
class AlgebraPresentation:
    """Dimension + named bilinear ops + named linear maps + free parameters.

    Canonical op names: "dot", "bracket", "star"; canonical map name "alpha"
    (others hold derivations or auxiliary twist data).
    """

    dim: int
    ops: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    basis: tuple = ()
    params: tuple = ()

    def __post_init__(self):
        if not self.basis:
            object.__setattr__(self, "basis", default_basis(self.dim))
        if len(self.basis) != self.dim:
            raise FormatError("basis names do not match dim")
        for name, op in self.ops.items():
            if op.dim != self.dim:
                raise DimensionError("op %r has dim %d, expected %d" % (name, op.dim, self.dim))
        for name, f in self.maps.items():
            if f.is_square and f.rows != self.dim:
                raise DimensionError("map %r has dim %d, expected %d" % (name, f.rows, self.dim))

    def op(self, name):
        if name not in self.ops:
            raise MissingOperationError("op %r is missing" % name)
        return self.ops[name]

    def map(self, name):
        if name not in self.maps:
            raise MissingOperationError("map %r is missing" % name)
        return self.maps[name]

    @property
    def alpha(self):
        return self.map("alpha")

    def is_bound(self):
        return (all(op.is_bound() for op in self.ops.values())
                and all(f.is_bound() for f in self.maps.values()))

    def require_bound(self):
        if self.params or not self.is_bound():
            raise UnboundParameterError(
                "presentation has unbound parameters %r" % (self.params,))
        return self


@dataclass(frozen=True)
class RepresentationPresentation:
    """Action matrix families on a module plus the module twist beta.

    Canonical action names: "s", "rho", "l", "r"; each family has one
    module_dim-square matrix per algebra basis element.
    """

    algebra_dim: int
    module_dim: int
    actions: dict = field(default_factory=dict)
    beta: LinearMap = None
    params: tuple = ()

    def __post_init__(self):
        if self.beta is None:
            object.__setattr__(self, "beta", LinearMap.identity(self.module_dim))
        if self.beta.rows != self.module_dim or self.beta.cols != self.module_dim:
            raise DimensionError("beta must be module_dim-square")
        for name, fam in self.actions.items():
            fam = tuple(fam)
            if len(fam) != self.algebra_dim:
                raise DimensionError("action %r must have %d members" % (name, self.algebra_dim))
            for mat in fam:
                if mat.rows != self.module_dim or mat.cols != self.module_dim:
                    raise DimensionError("action %r matrices must be module_dim-square" % name)
            self.actions[name] = fam

    def action(self, name):
        if name not in self.actions:
            raise MissingOperationError("action %r is missing" % name)
        return self.actions[name]

    def of(self, name, x):
        """Action matrix of the algebra element with coefficient vector x."""
        return linear_combination(self.action(name), x)

    def is_bound(self):
        return (self.beta.is_bound()
                and all(m.is_bound() for fam in self.actions.values() for m in fam))

    def require_bound(self):
        if self.params or not self.is_bound():
            raise UnboundParameterError("representation has unbound parameters")
        return self


@dataclass(frozen=True)
class BilinearFormPresentation:
    dim: int
    B: LinearMap = None

    def __post_init__(self):
        if self.B is None:
            object.__setattr__(self, "B", LinearMap.zero(self.dim))
        if self.B.rows != self.dim or self.B.cols != self.dim:
            raise DimensionError("form matrix must be dim-square")

    def value(self, x, y):
        return sum(
            (require_bound(self.B.m[i][j]) * x[i] * y[j]
             for i in range(self.dim) for j in range(self.dim)
             if x[i] and y[j]), ZERO)

    def is_symmetric(self):
        return self.B == self.B.transpose()

    def is_nondegenerate(self):
        return self.B.det() != 0


# ---------------------------------------------------------------------------
# check reports

@dataclass
class CheckReport:
    """Verdict plus violation witnesses (identity id, basis tuple, residual)."""

    witnesses: list = field(default_factory=list)
    checked: int = 0
    failures: int = 0
    sub_reports: dict = field(default_factory=dict)
    notes: tuple = ()

    @property
    def passed(self):
        return (self.failures == 0 and not self.witnesses
                and all(r.passed for r in self.sub_reports.values()))

    def all_witnesses(self):
        out = list(self.witnesses)
        for name, sub in sorted(self.sub_reports.items()):
            out.extend(sub.all_witnesses())
        return out


def require_passed(report, message):
    """A hypothesis gate: PreconditionError(message, report) unless it passed."""
    if not report.passed:
        raise PreconditionError(message, report)


def require_closure(report, message):
    """The check of an output whose closure a theorem guarantees:
    ConstructionError naming the first witnesses unless it passed."""
    if not report.passed:
        raise ConstructionError("%s; first witnesses %r" % (message, report.all_witnesses()[:4]))


def run_identity_families(dim, families, max_witnesses=32, sub_reports=None, notes=()):
    """Evaluate each family's residual table once; collect sorted witnesses.

    families: iterable of (identity_id, arity, table) where table() returns
    {basis index tuple: residual coefficient vector} for the tuples whose
    residual may be nonzero; the identity holds on every tuple it leaves out,
    and an all-zero residual is not a witness.  Each family counts all
    dim ** arity basis tuples as checked.  At most max_witnesses (>= 0)
    witnesses are kept.
    """
    if max_witnesses < 0:
        raise ValueError("max_witnesses must be >= 0, got %d" % max_witnesses)
    witnesses = []
    checked = 0
    for (ident, arity, table) in families:
        checked += dim ** arity
        witnesses += [(ident, tup, tuple(res)) for tup, res in table().items() if any(res)]
    witnesses.sort(key=lambda w: (w[0], w[1]))
    return CheckReport(
        witnesses=witnesses[:max_witnesses],
        checked=checked,
        failures=len(witnesses),
        sub_reports=dict(sub_reports or {}),
        notes=tuple(notes))


# ---------------------------------------------------------------------------
# integer tensors and contraction rows

class IntTensor:
    """A bound tensor scattered into integers: entries maps the index tuple
    of each nonzero coefficient to it times scale, the lcm of the denominators."""

    def __init__(self, shape, entries):
        entries = [(e[:-1], require_bound(e[-1])) for e in entries]
        self.shape = tuple(shape)
        self.scale = math.lcm(1, *(c.denominator for _, c in entries))
        self.entries = {tuple(idx): c.numerator * (self.scale // c.denominator)
                        for idx, c in entries if c}

    def dense(self):
        """The tensor as nested int lists."""
        strides = [math.prod(self.shape[n + 1:]) for n in range(len(self.shape))]
        out = [0] * math.prod(self.shape)
        for idx, v in self.entries.items():
            out[sum(map(mul, idx, strides))] = v
        for size in reversed(self.shape[1:]):
            out = [out[p:p + size] for p in range(0, len(out), size)]
        return out


def int_tensor(x):
    """The IntTensor of a BilinearMap (i, j, k), a LinearMap (row, col) or a
    family of LinearMaps (member, row, col)."""
    if isinstance(x, BilinearMap):
        return IntTensor((x.dim,) * 3, x.entries)
    if isinstance(x, LinearMap):
        return IntTensor((x.rows, x.cols), ((r, c, v) for r, row in enumerate(x.m)
                                            for c, v in enumerate(row)))
    return IntTensor((len(x), x[0].rows, x[0].cols),
                     ((p, r, c, v) for p, f in enumerate(x) for r, row in enumerate(f.m)
                      for c, v in enumerate(row)))


def contract(shape, terms, tensors):
    """The exact sum of terms (c, spec, names) as {index: Fraction}, nonzero
    entries only.

    A term is c times the contraction of the named IntTensors by an
    einsum-like spec such as "ijr,kr->ijk": the output letters index the
    result, of the given shape, and every other letter is summed (no letter
    repeats within an operand).  Each term is multiplied by L / s_t, s_t the
    product of its tensors' scales and L their lcm over the terms, so the
    integer sum is L times the rational one.  A spec that does not fit its
    tensors' shapes or the output shape raises DimensionError.
    """
    return _exact_sum(_compile(shape, terms, tensors))


def _compile(shape, terms, tensors):
    """The terms as (c, s_t, operand letters, output letters, operand entries),
    their shapes checked."""
    compiled = []
    for c, spec, names in terms:
        ins, out = spec.split("->")
        ins, ts = ins.split(","), [tensors[name] for name in names]
        sizes = dict(zip(out, shape))
        if len(out) != len(shape) or any(
                len(letters) != len(t.shape) or any(
                    sizes.setdefault(x, size) != size for x, size in zip(letters, t.shape))
                for letters, t in zip(ins, ts)):
            raise DimensionError("%r does not fit shapes %r with output shape %r"
                                 % (spec, [t.shape for t in ts], tuple(shape)))
        compiled.append((c, math.prod(t.scale for t in ts), ins, out, [t.entries for t in ts]))
    return compiled


def _exact_sum(compiled):
    scale = math.lcm(*(term[1] for term in compiled))
    acc = {}
    for c, s, ins, out, operands in compiled:
        k = c * (scale // s)
        for idx, v in _contract(ins, out, operands).items():
            acc[idx] = acc.get(idx, 0) + k * v
    return {idx: Fraction(v, scale) for idx, v in acc.items() if v}


def bilinear_from_terms(dim, terms, tensors):
    """The BilinearMap whose (i, j, k) constant is the contracted sum."""
    return BilinearMap(dim, tuple(
        idx + (c,) for idx, c in contract((dim,) * 3, terms, tensors).items()))


def maps_from_terms(shape, terms, tensors):
    """The contracted sum as a LinearMap of shape (rows, cols), or as a family
    of LinearMaps for shape (members, rows, cols)."""
    sums = contract(shape, terms, tensors)
    *members, rows, cols = shape

    def matrix(*p):
        return LinearMap.from_rows([[sums.get(p + (r, c), ZERO) for c in range(cols)]
                                    for r in range(rows)])
    return tuple(matrix(p) for p in range(members[0])) if members else matrix()


TUPLE_LETTERS = "ijkl"


def contraction_family(ident, row, tensors, dim):
    """The (ident, arity, table) triple of a row (arity, out_shape, terms).

    The terms are contract's, with i, j, k, l the basis-tuple positions and
    the other output letters the residual's coordinates in row-major order.
    table() is contract's exact sum grouped by basis tuple, nonzero tuples
    only, so its zero test is exact.  Shapes are checked here.
    """
    arity, out_shape, terms = row
    positions = TUPLE_LETTERS[:arity]
    canonical = []
    for c, spec, names in terms:
        ins, out = spec.split("->")
        coords = "".join(x for x in out if x not in TUPLE_LETTERS)
        if sorted(set(out) - set(coords)) != list(positions):
            raise DimensionError("%s: %r does not give shape %r" % (ident, spec, out_shape))
        canonical.append((c, "%s->%s%s" % (ins, positions, coords), names))
    try:
        compiled = _compile((dim,) * arity + tuple(out_shape), canonical, tensors)
    except DimensionError as exc:
        raise DimensionError("%s: %s" % (ident, exc)) from None
    strides = [math.prod(out_shape[n + 1:]) for n in range(len(out_shape))]
    size = math.prod(out_shape)

    def table():
        out = {}
        for idx, v in _exact_sum(compiled).items():
            out.setdefault(idx[:arity], [ZERO] * size)[sum(map(mul, idx[arity:], strides))] = v
        return out

    return ident, arity, table


def _getter(positions):
    """idx -> the tuple of idx's entries at positions."""
    if len(positions) == 1:
        p = positions[0]
        return lambda idx: (idx[p],)
    return itemgetter(*positions) if positions else lambda idx: ()


@functools.cache
def _plan(ins, out):
    """The steps of a contraction of operands with letters ins (a tuple) into
    out: (operand, key_b, ext_b, key_a, head_a) per step, and the final getter.

    Operands are taken pairwise, each next one sharing an index with the
    running result if any remaining one does, which avoids outer products.
    The plan depends on the letters only, so it is built once per spec.
    """
    order, left, seen = [0], list(range(1, len(ins))), set(ins[0])
    while left:
        order.append(next((q for q in left if seen & set(ins[q])), left[0]))
        left.remove(order[-1])
        seen |= set(ins[order[-1]])
    steps, letters = [], ""
    for step, p in enumerate(order):
        keep = set(out).union(*(ins[q] for q in order[step + 1:]))
        shared = [x for x in ins[p] if x in letters]
        head = [x for x in letters if x in keep]
        new = [x for x in ins[p] if x not in letters and x in keep]
        key_b, ext_b = (_getter([ins[p].index(x) for x in xs]) for xs in (shared, new))
        key_a, head_a = (_getter([letters.index(x) for x in xs]) for xs in (shared, head))
        steps.append((p, key_b, ext_b, key_a, head_a))
        letters = "".join(head + new)
    return tuple(steps), _getter([letters.index(x) for x in out])


def _contract(ins, out, operands):
    """The sparse contraction of the operand dicts, as out-index -> int."""
    steps, final = _plan(tuple(ins), out)
    acc = {(): 1}
    for p, key_b, ext_b, key_a, head_a in steps:
        groups = {}
        for idx, w in operands[p].items():
            groups.setdefault(key_b(idx), []).append((ext_b(idx), w))
        nxt = {}
        for idx, v in acc.items():
            group = groups.get(key_a(idx))
            if group:
                h = head_a(idx)
                for e, w in group:
                    nxt[h + e] = nxt.get(h + e, 0) + v * w
        acc = nxt
    return {final(idx): v for idx, v in acc.items()}


# ---------------------------------------------------------------------------
# parameter substitution

def substitute_params(p, binding):
    """Return a parameter-free copy of an algebra or representation presentation."""
    binding = {k: Fraction(v) for k, v in binding.items()}
    if isinstance(p, AlgebraPresentation):
        missing = [name for name in p.params if name not in binding]
        if missing:
            raise UnboundParameterError("missing bindings for %r" % (missing,))
        ops = {name: BilinearMap(op.dim, tuple(
                   (i, j, k, substitute_coefficient(c, binding))
                   for (i, j, k, c) in op.entries))
               for name, op in p.ops.items()}
        maps = {name: LinearMap.from_rows(
                    [[substitute_coefficient(c, binding) for c in row] for row in f.m])
                for name, f in p.maps.items()}
        return AlgebraPresentation(p.dim, ops, maps, p.basis, ())
    if isinstance(p, RepresentationPresentation):
        missing = [name for name in p.params if name not in binding]
        if missing:
            raise UnboundParameterError("missing bindings for %r" % (missing,))
        sub = lambda f: LinearMap.from_rows(
            [[substitute_coefficient(c, binding) for c in row] for row in f.m])
        actions = {name: tuple(sub(mat) for mat in fam) for name, fam in p.actions.items()}
        return RepresentationPresentation(
            p.algebra_dim, p.module_dim, actions, sub(p.beta), ())
    raise TypeError("cannot substitute into %r" % type(p).__name__)


# ---------------------------------------------------------------------------
# interchange format

def _coeff_out(c):
    return coefficient_str(c)


def _matrix_out(f):
    return [[_coeff_out(c) for c in row] for row in f.m]


def _matrix_in(doc, params, what, rows=None, cols=None):
    if (not isinstance(doc, list) or not doc
            or any(not isinstance(r, list) for r in doc)):
        raise FormatError("%s: matrix must be a non-empty array of rows" % what)
    try:
        f = LinearMap.from_rows([[parse_coefficient(c, params) for c in row] for row in doc])
    except DimensionError as exc:
        raise FormatError(str(exc)) from None
    if rows is not None and (f.rows, f.cols) != (rows, cols):
        raise FormatError("%s: expected %dx%d matrix, got %dx%d"
                          % (what, rows, cols, f.rows, f.cols))
    return f


def _entries_in(doc, dim, params, what):
    if not isinstance(doc, list):
        raise FormatError("%s: entries must be an array" % what)
    entries = []
    for pos, e in enumerate(doc):
        if not isinstance(e, dict) or set(e) != {"i", "j", "k", "c"}:
            raise FormatError('%s entry %d: expected {"i","j","k","c"}' % (what, pos))
        i, j, k = e["i"], e["j"], e["k"]
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (i, j, k)):
            raise FormatError("%s entry %d: indices must be integers" % (what, pos))
        if not all(0 <= v < dim for v in (i, j, k)):
            raise FormatError("%s entry %d: index out of range for dim %d" % (what, pos, dim))
        entries.append((i, j, k, parse_coefficient(e["c"], params)))
    return entries


def _entries_out(entries):
    return [{"i": i, "j": j, "k": k, "c": _coeff_out(c)} for (i, j, k, c) in entries]


def _load(text, keys):
    """The top-level object of a document whose keys are among keys."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("syntax error at line %d column %d: %s"
                          % (exc.lineno, exc.colno, exc.msg)) from None
    if not isinstance(doc, dict):
        raise FormatError("top-level value must be an object")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise FormatError("unknown top-level key(s) %s" % ", ".join(map(repr, unknown)))
    return doc


def _object(doc, key):
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise FormatError('"%s" must be an object' % key)
    return value


def _positive_int(key, value):
    """A dimension read from a document: a positive integer up to MAX_DIM."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise FormatError('"%s" must be a positive integer' % key)
    if value > MAX_DIM:
        raise FormatError('"%s" must be at most %d' % (key, MAX_DIM))
    return value


def _params(doc):
    params = doc.get("params", [])
    if not isinstance(params, list) or not all(isinstance(n, str) for n in params):
        raise FormatError('"params" must be an array of names')
    for name in params:
        if not NAME_RE.match(name):
            raise FormatError("bad parameter name %r" % name)
    if len(set(params)) != len(params):
        raise FormatError("duplicate parameter name in %r" % (params,))
    return tuple(params)


def _common_header(doc):
    dim = _positive_int("dim", doc.get("dim"))
    params = _params(doc)
    if "basis" not in doc:
        return dim, default_basis(dim), params
    basis = doc["basis"]
    if (not isinstance(basis, list) or not all(isinstance(b, str) for b in basis)
            or len(set(basis)) != len(basis)):
        raise FormatError('"basis" must be an array of distinct names')
    return dim, tuple(basis), params


def parse_algebra(text):
    doc = _load(text, ("dim", "params", "basis", "ops", "maps"))
    dim, basis, params = _common_header(doc)
    ops = {name: BilinearMap(dim, tuple(_entries_in(raw, dim, params, "op %r" % name)))
           for name, raw in _object(doc, "ops").items()}
    maps = {name: _matrix_in(raw, params, "map %r" % name, dim, dim)
            for name, raw in _object(doc, "maps").items()}
    return AlgebraPresentation(dim, ops, maps, basis, params)


def serialize_algebra(p):
    doc = {"dim": p.dim, "basis": list(p.basis)}
    if p.params:
        doc["params"] = list(p.params)
    doc["ops"] = {name: _entries_out(p.ops[name].entries) for name in sorted(p.ops)}
    doc["maps"] = {name: _matrix_out(p.maps[name]) for name in sorted(p.maps)}
    return json.dumps(doc, indent=2) + "\n"


def parse_representation(text):
    doc = _load(text, ("algebra_dim", "dim", "module_dim", "params", "actions", "beta"))
    adim = _positive_int("algebra_dim", doc.get("algebra_dim", doc.get("dim")))
    mdim = _positive_int("module_dim", doc.get("module_dim"))
    params = _params(doc)
    actions = {}
    for name, fam in _object(doc, "actions").items():
        if not isinstance(fam, list) or len(fam) != adim:
            raise FormatError("action %r must list %d matrices" % (name, adim))
        actions[name] = tuple(
            _matrix_in(mat, params, "action %r[%d]" % (name, idx), mdim, mdim)
            for idx, mat in enumerate(fam))
    if "beta" not in doc:
        raise FormatError('"beta" is required')
    beta = _matrix_in(doc["beta"], params, "beta", mdim, mdim)
    return RepresentationPresentation(adim, mdim, actions, beta, params)


def serialize_representation(rep):
    doc = {"algebra_dim": rep.algebra_dim, "module_dim": rep.module_dim}
    if rep.params:
        doc["params"] = list(rep.params)
    doc["actions"] = {name: [_matrix_out(m) for m in rep.actions[name]]
                      for name in sorted(rep.actions)}
    doc["beta"] = _matrix_out(rep.beta)
    return json.dumps(doc, indent=2) + "\n"


def parse_form(text):
    doc = _load(text, ("dim", "params", "basis", "B"))
    dim, _, params = _common_header(doc)
    if "B" not in doc:
        raise FormatError('"B" is required')
    return BilinearFormPresentation(dim, _matrix_in(doc["B"], params, "B", dim, dim))


def serialize_form(form):
    doc = {"dim": form.dim, "B": _matrix_out(form.B)}
    return json.dumps(doc, indent=2) + "\n"


def parse_o_operator(text):
    """Parse a file holding an O-operator matrix T (rows = dim A, cols = dim V)."""
    doc = _load(text, ("T",))
    if "T" not in doc:
        raise FormatError('"T" is required')
    return _matrix_in(doc["T"], (), "T")


def serialize_o_operator(T):
    return json.dumps({"T": _matrix_out(T)}, indent=2) + "\n"


def parse_comultiplications(text):
    """Parse comultiplication entries stored under the "coops" key.

    Returns (dim, {name: entries}) with entry (i, j, k, c) meaning the image
    of e_i has e_j (x) e_k coefficient c.
    """
    doc = _load(text, ("dim", "params", "basis", "coops"))
    dim, _, params = _common_header(doc)
    coops = {}
    for name, raw in _object(doc, "coops").items():
        coops[name] = tuple(_entries_in(raw, dim, params, "coop %r" % name))
    return dim, coops


def serialize_comultiplications(dim, coops):
    doc = {"dim": dim,
           "coops": {name: _entries_out(sorted(coops[name])) for name in sorted(coops)}}
    return json.dumps(doc, indent=2) + "\n"
