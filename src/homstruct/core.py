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
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter, itemgetter, mul

RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

ZERO = Fraction(0)
ONE = Fraction(1)

# The largest dim, algebra_dim or module_dim a document may declare, and the
# largest dim of an algebra that a builder makes (a tensor product or a
# double).  A dim sizes the default basis names and the dim ** arity
# accumulators of axioms._Tables: 262,144 slots per ternary family at 64.
MAX_DIM = 64

# The most digits an integer in a document or a --params value may have: a
# rational's numerator and denominator each.  It is CPython's default
# int_max_str_digits, so int() reads every integer within the cap.  Results
# may grow past it, and exact_str writes them at any size.
MAX_DIGITS = 4300

# The largest power of alpha a derived algebra may take as its twist.  Kind 2
# of derived level n takes alpha^(2^n), whose entries can grow with the
# exponent, so without a bound a small --derived value would already ask for
# numbers too large to hold.
MAX_TWIST_EXPONENT = 1024


class FormatError(ValueError):
    """A document does not conform to the interchange format."""


class DimensionError(ValueError):
    """Shapes of the supplied objects do not match."""


class UnboundParameterError(ValueError):
    """A parametric presentation was used where concrete scalars are required."""


class MissingOperationError(KeyError):
    """A required op or map is absent from the presentation."""

    # KeyError's str is the repr of its key; this error's is its message
    __str__ = Exception.__str__


class PreconditionError(ValueError):
    """A builder's gate check failed; carries the offending report when present."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConstructionError(AssertionError):
    """A construction's asserted closure property failed to verify."""


# ---------------------------------------------------------------------------
# coefficients

_TOO_LONG = "a number has more than %d digits" % MAX_DIGITS


def parse_coefficient(s, params=()):
    """Parse a coefficient token: rational string, parameter name or -name."""
    if not isinstance(s, str):
        raise FormatError("coefficient must be a string, got %r" % (s,))
    if RATIONAL_RE.fullmatch(s):
        # the string is already checked, so Fraction need not parse it again
        num, _, den = s.partition("/")
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    if s in params:
        return s
    if s.startswith("-") and s[1:] in params:
        return s
    raise FormatError("bad coefficient %r (not a rational or declared parameter)" % s)


def read_coefficient(s, params=()):
    """parse_coefficient for a token read from a document or an option.

    A rational whose numerator or denominator has more than MAX_DIGITS
    digits raises FormatError, where parse_coefficient gives int()'s error.
    """
    if (isinstance(s, str) and len(s) > MAX_DIGITS and RATIONAL_RE.fullmatch(s)
            and max(map(len, s.lstrip("-").split("/"))) > MAX_DIGITS):
        raise FormatError(_TOO_LONG)
    return parse_coefficient(s, params)


def exact_str(c):
    """str(c) for a coefficient, a Fraction or a parameter name, at any size.

    str of an int past the interpreter's int_max_str_digits raises
    ValueError; decimal renders every int exactly.
    """
    try:
        return str(c)
    except ValueError:
        from decimal import Decimal
        num = str(Decimal(c.numerator))
        return num if c.denominator == 1 else "%s/%s" % (num, Decimal(c.denominator))


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
# value types

class _Value:
    """A value type.  ==, hash and repr read _values, the tuple of the
    attributes named in _fields in that order; other attributes, such as a
    kept index, are unseen by them.  A subclass's __init__ passes one value
    per field, in _fields order, to _Value.__init__, which sets each field and
    stores them once as _values, so that == is one tuple compare.  No
    attribute may be set or deleted after __init__."""

    def __init__(self, *values):
        self.__dict__.update(zip(self._fields, values, strict=True), _values=values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(self._fields, self._values)))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


# ---------------------------------------------------------------------------
# bilinear maps

class BilinearMap(_Value):
    """Sparse rank-3 structure-constant tensor on a dim-dimensional space.

    Besides the sorted entries, construction builds the row index that
    eval_bilinear walks: rows[i] = {j: [(k, c), ...]} in entry order, for
    each i with an entry.  It is a plain attribute, not a field, so ==, hash
    and repr see only dim and entries."""

    _fields = ("dim", "entries")

    def __init__(self, dim, entries=()):
        if dim < 1:
            raise DimensionError("dim must be positive")
        seen = set()
        cleaned = []
        for e in entries:
            i, j, k, c = e
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise FormatError("entry index out of range: %r (dim %d)" % (e, dim))
            if (i, j, k) in seen:
                raise FormatError("duplicate entry for (%d,%d,%d)" % (i, j, k))
            seen.add((i, j, k))
            if isinstance(c, Fraction) and not c:
                continue
            cleaned.append((i, j, k, c))
        # the (i, j, k) are distinct, so the sort never compares coefficients
        cleaned.sort()
        rows, last_i, last_j = {}, None, None
        for (i, j, k, c) in cleaned:
            if i != last_i:
                row = rows[i] = {}
                last_i, last_j = i, None
            if j != last_j:
                cells = row[j] = []
                last_j = j
            cells.append((k, c))
        super().__init__(dim, tuple(cleaned))
        object.__setattr__(self, "rows", rows)

    def is_bound(self):
        return all(isinstance(c, Fraction) for (_, _, _, c) in self.entries)


def eval_bilinear(op, x, y):
    """Evaluate op at coefficient vectors x, y (bilinear extension).

    Only the rows i with an entry and x_i != 0 are walked, and in them only
    the cells with y_j != 0 are read: a call costs the op's nonempty rows,
    the distinct j of the rows it walks and the cells it hits, never more
    than the op's entries; at a pair of basis vectors, one row.  A factor
    x_i y_j of 1 multiplies nothing, and each coordinate's first term is
    stored as it is."""
    n = op.dim
    if len(x) != n or len(y) != n:
        raise DimensionError("vector length does not match op dim %d" % n)
    res = [ZERO] * n
    for i, row in op.rows.items():
        xi = x[i]
        if not xi:
            continue
        for j, cells in row.items():
            yj = y[j]
            if not yj:
                continue
            t = xi * yj
            for k, c in cells:
                if not isinstance(c, Fraction):
                    require_bound(c)
                term = c if t == 1 else t * c
                # ZERO marks a coordinate with no term yet: no cell is 0,
                # and a sum is a new Fraction
                v = res[k]
                res[k] = term if v is ZERO else v + term
    return tuple(res)


# ---------------------------------------------------------------------------
# linear maps

class LinearMap(_Value):
    """Matrix with column convention f(e_c) = sum_r m[r][c] e_r."""

    _fields = ("rows", "cols", "m")

    def __init__(self, rows, cols, m):
        if rows < 1 or cols < 1:
            raise DimensionError("matrix shape must be positive")
        if len(m) != rows or any(len(r) != cols for r in m):
            raise FormatError("matrix shape mismatch")
        super().__init__(rows, cols, tuple(tuple(r) for r in m))

    @staticmethod
    def from_rows(rows):
        rows = tuple(map(tuple, rows))
        return LinearMap(len(rows), len(rows[0]) if rows else 0, rows)

    @staticmethod
    def identity(n):
        return LinearMap.diagonal([ONE] * n)

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
        return LinearMap.from_rows(cols).transpose()

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

    def transpose(self):
        return LinearMap.from_rows(zip(*self.m))

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
        """self^n by repeated squaring, about 2 log2(n) products."""
        if not self.is_square:
            raise DimensionError("power of a non-square map")
        if n < 0:
            raise ValueError("power of a map needs n >= 0, got %d" % n)
        out, base = LinearMap.identity(self.rows), self
        while n > 0:
            if n & 1:
                out = out @ base
            n >>= 1
            if n:
                base = base @ base
        return out

    def inverse(self):
        if not self.is_square:
            raise DimensionError("inverse of a non-square map")
        self.require_bound()
        n = self.rows
        # [M | I] reduces to [P | P M^-1], P the diagonal of pivot entries
        reduced, pivots = fraction_free_rref(
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


def fraction_free_rref(rows, width):
    """Reduced row echelon form by fraction-free Gauss-Jordan elimination.

    Each row (of ints or Fractions) is scaled to integers by the lcm of its
    denominators.  Pivots are taken in column order; every other row r with
    entry f != 0 in the pivot column becomes (p r - f q) / g, for q the pivot
    row, p its pivot entry and g the gcd of the result, so entries stay
    small and no Fraction is formed.  Zero rows are dropped.

    Returns (reduced, pivots).  reduced[t] is an integer row whose entry at
    pivots[t] is nonzero and whose entries at the other pivot columns are 0:
    divided by its pivot entry it is row t of the (unique) reduced row
    echelon form.
    """
    ints = []
    for row in rows:
        s = math.lcm(*[x.denominator for x in row])
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
                if g > 1:
                    r = [x // g for x in r]
            kept.append(r)
        ints = kept
        pivots.append(col)
    return ints[:len(pivots)], pivots


# ---------------------------------------------------------------------------
# presentations

def default_basis(n):
    return tuple("e%d" % (i + 1) for i in range(n))


def _named(table, kind, name):
    """table[name]; MissingOperationError naming the kind when it is absent."""
    if name not in table:
        raise MissingOperationError("%s %r is missing" % (kind, name))
    return table[name]


class AlgebraPresentation(_Value):
    """Dimension + named bilinear ops + named linear maps + free parameters.

    Canonical op names: "dot", "bracket", "star"; canonical map name "alpha"
    (others hold derivations or auxiliary twist data).
    """

    _fields = ("dim", "ops", "maps", "basis", "params")

    def __init__(self, dim, ops=(), maps=(), basis=(), params=()):
        # new dicts, so that a later write to the caller's cannot change the algebra
        ops, maps = dict(ops), dict(maps)
        if not basis:
            basis = default_basis(dim)
        if len(basis) != dim:
            raise FormatError("basis names do not match dim")
        for name, op in ops.items():
            if op.dim != dim:
                raise DimensionError("op %r has dim %d, expected %d" % (name, op.dim, dim))
        for name, f in maps.items():
            if (f.rows, f.cols) != (dim, dim):
                raise DimensionError("map %r is %dx%d, expected %dx%d"
                                     % (name, f.rows, f.cols, dim, dim))
        super().__init__(dim, ops, maps, basis, params)

    def op(self, name):
        return _named(self.ops, "op", name)

    def map(self, name):
        return _named(self.maps, "map", name)

    @property
    def alpha(self):
        return self.map("alpha")

    def require_bound(self):
        values = (*self.ops.values(), *self.maps.values())
        if self.params or not all(v.is_bound() for v in values):
            raise UnboundParameterError(
                "presentation has unbound parameters %r" % (self.params,))
        return self


class RepresentationPresentation(_Value):
    """Action matrix families on a module plus the module twist beta.

    Canonical action names: "s", "rho", "l", "r"; each family has one
    module_dim-square matrix per algebra basis element.
    """

    _fields = ("algebra_dim", "module_dim", "actions", "beta", "params")

    def __init__(self, algebra_dim, module_dim, actions=(), beta=None, params=()):
        if beta is None:
            beta = LinearMap.identity(module_dim)
        if beta.rows != module_dim or beta.cols != module_dim:
            raise DimensionError("beta must be module_dim-square")
        # a new dict, so that the caller's keeps its own families
        actions = {name: tuple(fam) for name, fam in dict(actions).items()}
        for name, fam in actions.items():
            if len(fam) != algebra_dim:
                raise DimensionError("action %r must have %d members" % (name, algebra_dim))
            for mat in fam:
                if mat.rows != module_dim or mat.cols != module_dim:
                    raise DimensionError("action %r matrices must be module_dim-square" % name)
        super().__init__(algebra_dim, module_dim, actions, beta, params)

    def action(self, name):
        return _named(self.actions, "action", name)

    def require_bound(self):
        maps = (self.beta, *(m for fam in self.actions.values() for m in fam))
        if self.params or not all(f.is_bound() for f in maps):
            raise UnboundParameterError("representation has unbound parameters")
        return self


# ---------------------------------------------------------------------------
# check reports

class CheckReport(_Value):
    """Verdict plus violation witnesses (identity id, basis tuple, residual).
    Unlike the other value types it is mutable, and so unhashable."""

    _fields = ("witnesses", "checked", "failures", "sub_reports", "notes")
    _values = property(attrgetter(*_fields))
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, witnesses=None, checked=0, failures=0, sub_reports=None, notes=()):
        self.witnesses = [] if witnesses is None else witnesses
        self.checked = checked
        self.failures = failures
        self.sub_reports = {} if sub_reports is None else sub_reports
        self.notes = notes

    @property
    def passed(self):
        return self.failures == 0 and all(r.passed for r in self.sub_reports.values())

    def all_witnesses(self):
        out = list(self.witnesses)
        for name, sub in sorted(self.sub_reports.items()):
            out.extend(sub.all_witnesses())
        return out


def require_passed(report, message):
    """A hypothesis gate: PreconditionError(message, report) unless it passed."""
    if not report.passed:
        raise PreconditionError(message, report)


def run_identity_families(dim, families, max_witnesses=32, sub_reports=None, notes=()):
    """Evaluate each family's residual table once; collect sorted witnesses.

    families: iterable of (identity_id, arity, table).  table() returns
    (scale, rows) or (scale, rows, failures); rows maps a basis index tuple
    to its residual coefficient vector times the positive scale.
    - In (scale, rows), rows holds every tuple whose residual may be
      nonzero, in any order; the identity holds on every tuple it leaves
      out, and an all-zero residual is not a witness.
    - In (scale, rows, failures), failures counts the tuples with a nonzero
      residual, and rows holds the first at most max_witnesses of them in
      tuple order, each residual nonzero.
    Each family counts all dim ** arity basis tuples as checked.  The rows
    handed over are sorted; only the at most max_witnesses (>= 0) kept are
    divided by their scale into Fraction residuals, and only at their
    nonzero coordinates: a zero coordinate is ZERO.
    """
    if max_witnesses < 0:
        raise ValueError("max_witnesses must be >= 0, got %d" % max_witnesses)
    failing = []
    checked = failures = 0
    for (ident, arity, table) in families:
        checked += dim ** arity
        scale, rows, *counted = table()
        found = [(ident, tup, scale, res) for tup, res in rows.items() if counted or any(res)]
        failures += counted[0] if counted else len(found)
        failing += found
    failing.sort(key=itemgetter(0, 1))
    return CheckReport(
        witnesses=[(ident, tup, tuple(Fraction(x, scale) if x else ZERO for x in res))
                   for ident, tup, scale, res in failing[:max_witnesses]],
        checked=checked,
        failures=failures,
        sub_reports=dict(sub_reports or {}),
        notes=tuple(notes))


# ---------------------------------------------------------------------------
# integer tensors and contraction rows

class IntTensor:
    """A bound tensor scattered into integers: entries maps the index tuple
    of each nonzero coefficient to it times scale, the lcm of the denominators.
    It keeps each grouping of the entries that _contract asks for, so a tensor
    contracted again is not regrouped.  The entries and groupings are
    read-only: no caller may mutate them."""

    def __init__(self, shape, entries):
        self.shape = tuple(shape)
        nonzero = []
        for e in entries:
            c = e[-1]
            if c is not ZERO and require_bound(c):
                nonzero.append((tuple(e[:-1]), c.numerator, c.denominator))
        self.scale = math.lcm(1, *(d for _, _, d in nonzero))
        self.entries = {idx: v * (self.scale // d) for idx, v, d in nonzero}
        self._groups = {}

    def grouped(self, key, ext):
        """{key(idx): [(ext(idx), v), ...]} over the entries, or for key None
        {ext(idx): sum of v}, built once per pair of getters.  _getter is
        cached, so there is one grouping per step shape of the specs met."""
        g = self._groups.get((key, ext))
        if g is None:
            g = self._groups[key, ext] = {}
            if key is None:
                for idx, w in self.entries.items():
                    k = ext(idx)
                    g[k] = g.get(k, 0) + w
            else:
                for idx, w in self.entries.items():
                    g.setdefault(key(idx), []).append((ext(idx), w))
        return g


def int_tensor(x):
    """The IntTensor of a BilinearMap (i, j, k), a LinearMap (row, col) or a
    family of LinearMaps (member, row, col).  A map's tensor is kept on it as
    a plain attribute like BilinearMap.rows, unseen by ==, hash and repr, and
    lives as long as the map; an unbound map raises every time and keeps
    nothing.  A family, a sequence, is converted on every call."""
    t = getattr(x, "_int_tensor", None)
    if t is not None:
        return t
    if isinstance(x, BilinearMap):
        t = IntTensor((x.dim,) * 3, x.entries)
    elif isinstance(x, LinearMap):
        t = IntTensor((x.rows, x.cols), ((r, c, v) for r, row in enumerate(x.m)
                                         for c, v in enumerate(row)))
    else:
        return IntTensor((len(x), x[0].rows, x[0].cols),
                         ((p, r, c, v) for p, f in enumerate(x) for r, row in enumerate(f.m)
                          for c, v in enumerate(row)))
    object.__setattr__(x, "_int_tensor", t)
    return t


def contract(terms, tensors):
    """The exact sum of terms (c, spec, names) as {index: Fraction}, nonzero
    entries only.

    A term is c times the contraction of the named IntTensors by an
    einsum-like spec such as "ijr,kr->ijk": the output letters index the
    result and every other letter is summed (no letter repeats within an
    operand).  Each output letter has the size of the operand axes it
    labels, so the operands fix the result's shape.  Each term is multiplied
    by L / s_t, s_t the product of its tensors' scales and L their lcm over
    the terms, so the integer sum is L times the rational one.  A spec that
    does not fit its tensors' shapes, or terms of two shapes, raise
    DimensionError.
    """
    scale, sums = _exact_sum(_compile(terms, tensors)[1])
    return {idx: Fraction(v, scale) for idx, v in sums.items()}


def _term_shape(term, tensors):
    """The output shape of one term, read by the cached _shape."""
    _, spec, names = term
    return _shape(spec, tuple(tensors[name].shape for name in names))


def _compile(terms, tensors):
    """(the output shape, the terms as (c, s_t, spec, operand tensors))."""
    shapes = {_term_shape(term, tensors) for term in terms}
    if len(shapes) != 1:
        raise DimensionError("the terms give shapes %s" % sorted(shapes))
    return shapes.pop(), [(c, math.prod(tensors[name].scale for name in names), spec,
                           [tensors[name] for name in names]) for c, spec, names in terms]


@functools.cache
def _shape(spec, shapes):
    """The output shape of spec on operands of the given shapes: each output
    letter has the size of the operand axes it labels.  DimensionError
    unless every operand has one letter per axis and each letter one size;
    a raise is not cached.  The specs are the package's rows and every size
    is at most MAX_DIM or a product of two, so the cache is small."""
    ins, out = spec.split("->")
    ins, sizes = ins.split(","), {}
    misfit = "%r does not fit shapes %r: " % (spec, list(shapes))
    if tuple(map(len, ins)) != tuple(map(len, shapes)):
        raise DimensionError(misfit + "the ranks differ")
    for xs, shape in zip(ins, shapes):
        for x, n in zip(xs, shape):
            if sizes.setdefault(x, n) != n:
                raise DimensionError(misfit + "letter %r has sizes %d and %d" % (x, sizes[x], n))
    return tuple(sizes[x] for x in out)


def _exact_sum(compiled):
    """(L, {index: integer sum}), nonzero entries only: the sum is L times
    the rational one."""
    scale = math.lcm(*(term[1] for term in compiled))
    acc = {}
    for c, s, spec, operands in compiled:
        k = c * (scale // s)
        for idx, v in _contract(spec, operands).items():
            acc[idx] = acc.get(idx, 0) + k * v
    return scale, {idx: v for idx, v in acc.items() if v}


def bilinear_from_terms(terms, tensors):
    """The BilinearMap whose (i, j, k) constant is the contracted sum, on
    the space its operands give the output letters."""
    dim = _term_shape(terms[0], tensors)[0]
    return BilinearMap(dim, tuple(idx + (c,) for idx, c in contract(terms, tensors).items()))


def maps_from_terms(terms, tensors):
    """The contracted sum as a LinearMap for a rank-2 sum (row, col), or as
    a family of LinearMaps for a rank-3 one (member, row, col)."""
    sums = contract(terms, tensors)
    *members, rows, cols = _term_shape(terms[0], tensors)

    def matrix(*p):
        return LinearMap.from_rows([[sums.get(p + (r, c), ZERO) for c in range(cols)]
                                    for r in range(rows)])
    return tuple(matrix(p) for p in range(members[0])) if members else matrix()


TUPLE_LETTERS = "ijkl"


def contraction_family(ident, row, tensors):
    """The (ident, arity, table) triple of a row (arity, terms).

    The terms are contract's.  Each output starts with the first arity
    letters of TUPLE_LETTERS, the basis-tuple positions, and its other
    letters are the residual's coordinates in row-major order.  table() is
    (L, rows): rows is contract's integer sum, L times the rational one,
    grouped by basis tuple, nonzero tuples only, so its zero test is exact.
    Shapes are read and checked here.
    """
    arity, terms = row
    try:
        for _, spec, _ in terms:
            _tuple_letters_first(spec, arity)
        shape, compiled = _compile(terms, tensors)
    except DimensionError as exc:
        raise DimensionError("%s: %s" % (ident, exc)) from None
    coords = shape[arity:]
    strides = [math.prod(coords[n + 1:]) for n in range(len(coords))]
    size = math.prod(coords)

    def table():
        scale, sums = _exact_sum(compiled)
        out = {}
        for idx, v in sums.items():
            key = idx[:arity]
            vec = out.get(key)
            if vec is None:
                vec = out[key] = [0] * size
            vec[sum(map(mul, idx[arity:], strides))] = v
        return scale, out

    return ident, arity, table


@functools.cache
def _tuple_letters_first(spec, arity):
    """DimensionError unless spec's output starts with the first arity
    letters of TUPLE_LETTERS and holds no other of them; a raise is not
    cached."""
    out = spec.split("->")[1]
    tuple_letters = TUPLE_LETTERS[:arity]
    if out[:arity] != tuple_letters or set(out[arity:]) & set(TUPLE_LETTERS):
        raise DimensionError("%r must start its output with %r and hold no other letter of %r"
                             % (spec, tuple_letters, TUPLE_LETTERS))


@functools.cache
def _getter(positions):
    """idx -> the tuple of idx's entries at positions (a tuple), one getter
    per positions, so that equal positions give the same getter."""
    if len(positions) == 1:
        p = positions[0]
        return lambda idx: (idx[p],)
    return itemgetter(*positions) if positions else lambda idx: ()


@functools.cache
def _plan(spec):
    """The steps of a contraction by spec: (operand, key_b, ext_b, key_a,
    head_a) per step, and the final getter (None when the last step's letters
    are already the output's).  The first step's key_b is None: it shares no
    letter with the empty running result.

    Operands are taken pairwise, each next one sharing an index with the
    running result if any remaining one does, which avoids outer products.
    The plan depends on the letters only, so it is built once per spec.
    """
    ins, out = spec.split("->")
    ins = ins.split(",")
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
        key_b, ext_b = (_getter(tuple(ins[p].index(x) for x in xs)) for xs in (shared, new))
        key_a, head_a = (_getter(tuple(letters.index(x) for x in xs)) for xs in (shared, head))
        steps.append((p, key_b if step else None, ext_b, key_a, head_a))
        letters = "".join(head + new)
    return tuple(steps), None if letters == out else _getter(tuple(letters.index(x) for x in out))


def _contract(spec, operands):
    """The sparse contraction of the operand IntTensors, as out-index -> int.
    Each operand is read through its kept grouping for the step, and the
    result may be one: read-only."""
    steps, final = _plan(spec)
    (p, key_b, ext_b, _, _), *steps = steps
    acc = operands[p].grouped(key_b, ext_b)
    for p, key_b, ext_b, key_a, head_a in steps:
        groups = operands[p].grouped(key_b, ext_b)
        nxt = {}
        for idx, v in acc.items():
            group = groups.get(key_a(idx))
            if group:
                h = head_a(idx)
                for e, w in group:
                    k = h + e
                    nxt[k] = nxt.get(k, 0) + v * w
        acc = nxt
    return acc if final is None else {final(idx): v for idx, v in acc.items()}


# ---------------------------------------------------------------------------
# parameter substitution

def substitute_params(p, binding):
    """Return a parameter-free copy of an algebra or representation presentation."""
    binding = {k: Fraction(v) for k, v in binding.items()}
    if not isinstance(p, (AlgebraPresentation, RepresentationPresentation)):
        raise TypeError("cannot substitute into %r" % type(p).__name__)
    missing = [name for name in p.params if name not in binding]
    if missing:
        raise UnboundParameterError("missing bindings for %r" % (missing,))

    def sub(f):
        return LinearMap.from_rows([[substitute_coefficient(c, binding) for c in row]
                                    for row in f.m])
    if isinstance(p, RepresentationPresentation):
        actions = {name: tuple(map(sub, fam)) for name, fam in p.actions.items()}
        return RepresentationPresentation(
            p.algebra_dim, p.module_dim, actions, sub(p.beta), ())
    ops = {name: BilinearMap(op.dim, tuple(
               (i, j, k, substitute_coefficient(c, binding)) for (i, j, k, c) in op.entries))
           for name, op in p.ops.items()}
    maps = {name: sub(f) for name, f in p.maps.items()}
    return AlgebraPresentation(p.dim, ops, maps, p.basis, ())


# ---------------------------------------------------------------------------
# interchange format

def to_json(value, pad="\n"):
    """json.dumps(value, indent=2) for what the package writes: dicts with
    str keys, lists, tuples, str, int, bool and None.

    pad is the line break and indent before the closing bracket of value.
    json's C encoder runs only without an indent; this one pass quotes
    strings with its C-level quoting and writes leaf strings and ints inline.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join([
            _quote(k) + ": " + (_quote(v) if type(v) is str else repr(v) if type(v) is int
                                else to_json(v, inner))
            for k, v in value.items()]) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([
            _quote(v) if type(v) is str else repr(v) if type(v) is int else to_json(v, inner)
            for v in value]) + pad + "]"
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return int.__repr__(value)


def _matrix_out(f):
    return [list(map(exact_str, row)) for row in f.m]


def _matrix_in(doc, params, what, rows=None, cols=None):
    if (not isinstance(doc, list) or not doc
            or any(not isinstance(r, list) for r in doc)):
        raise FormatError("%s: matrix must be a non-empty array of rows" % what)
    try:
        f = LinearMap.from_rows([[read_coefficient(c, params) for c in row] for row in doc])
    except DimensionError as exc:
        raise FormatError(str(exc)) from None
    if rows is not None and (f.rows, f.cols) != (rows, cols):
        raise FormatError("%s: expected %dx%d matrix, got %dx%d"
                          % (what, rows, cols, f.rows, f.cols))
    return f


_ENTRY_KEYS = frozenset("ijkc")


def _entries_in(doc, dim, params, what):
    if not isinstance(doc, list):
        raise FormatError("%s: entries must be an array" % what)
    entries = []
    for pos, e in enumerate(doc):
        if not isinstance(e, dict) or e.keys() != _ENTRY_KEYS:
            raise FormatError('%s entry %d: expected {"i","j","k","c"}' % (what, pos))
        i, j, k = e["i"], e["j"], e["k"]
        # JSON gives ints, floats and bools; type(True) is bool, not int
        if not (type(i) is int and type(j) is int and type(k) is int):
            raise FormatError("%s entry %d: indices must be integers" % (what, pos))
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise FormatError("%s entry %d: index out of range for dim %d" % (what, pos, dim))
        entries.append((i, j, k, read_coefficient(e["c"], params)))
    return entries


def _entries_out(entries):
    return [{"i": i, "j": j, "k": k, "c": exact_str(c)} for (i, j, k, c) in entries]


def _load(text, keys):
    """The top-level object of a document whose keys are among keys."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("syntax error at line %d column %d: %s"
                          % (exc.lineno, exc.colno, exc.msg)) from None
    except RecursionError:
        # the decoder recurses once per nested array or object
        raise FormatError("document nested too deeply") from None
    except ValueError:
        # json's one other error: an integer literal past int_max_str_digits
        raise FormatError(_TOO_LONG) from None
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
        if not NAME_RE.fullmatch(name):
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
    return to_json(doc) + "\n"


def parse_representation(text):
    doc = _load(text, ("algebra_dim", "module_dim", "params", "actions", "beta"))
    adim = _positive_int("algebra_dim", doc.get("algebra_dim"))
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
    return to_json(doc) + "\n"


def parse_form(text):
    """The Gram matrix B of a form, B[r][c] = <e_r, e_c>."""
    doc = _load(text, ("dim", "params", "B"))
    dim, _, params = _common_header(doc)
    if "B" not in doc:
        raise FormatError('"B" is required')
    return _matrix_in(doc["B"], params, "B", dim, dim)


def serialize_form(B):
    """The form's document; "params" lists the parameters its matrix uses."""
    doc = {"dim": B.rows}
    params = sorted({c.lstrip("-") for row in B.m for c in row if isinstance(c, str)})
    if params:
        doc["params"] = params
    doc["B"] = _matrix_out(B)
    return to_json(doc) + "\n"


def parse_o_operator(text):
    """Parse a file holding an O-operator matrix T (rows = dim A, cols = dim V)."""
    doc = _load(text, ("T",))
    if "T" not in doc:
        raise FormatError('"T" is required')
    return _matrix_in(doc["T"], (), "T")


def serialize_o_operator(T):
    return to_json({"T": _matrix_out(T)}) + "\n"


def parse_comultiplications(text):
    """The comultiplications stored under the "coops" key, read as the
    products they define on the dual space.

    A coop entry (i, j, k, c) means the image of e_i has e_j (x) e_k
    coefficient c; it is the dual product entry (j, k, i, c), as the
    comultiplication is the transpose of that product.  The result has no
    maps and the default basis.
    """
    doc = _load(text, ("dim", "params", "coops"))
    dim, _, params = _common_header(doc)
    ops = {}
    for name, raw in _object(doc, "coops").items():
        coop = BilinearMap(dim, tuple(_entries_in(raw, dim, params, "coop %r" % name)))
        ops[name] = BilinearMap(dim, tuple((j, k, i, c) for (i, j, k, c) in coop.entries))
    return AlgebraPresentation(dim, ops, params=params)


def serialize_comultiplications(coalgebra):
    """The document of `parse_comultiplications`' result: the declared
    params and each coop's entries in coop order, sorted."""
    doc = {"dim": coalgebra.dim}
    if coalgebra.params:
        doc["params"] = list(coalgebra.params)
    doc["coops"] = {name: _entries_out(sorted((i, j, k, c) for (j, k, i, c)
                                              in coalgebra.ops[name].entries))
                    for name in sorted(coalgebra.ops)}
    return to_json(doc) + "\n"
