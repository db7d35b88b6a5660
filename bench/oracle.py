"""The benchmark's own exact evaluator, independent of homstruct's checkers.

It reads presentations only as data (structure constants, twist and action
matrices) and re-implements the class identities, the module axioms of the
s/rho classes, the dual-module hypotheses, the Rota-Baxter equations, the
coadjoint double with its pairing, and the derivation system.  Expected
verdicts and all output checks of the benchmark come from here; homstruct's
own checkers are never used to decide what a call should return.

Conventions follow homstruct's file format: entry (i, j, k, c) means
e_i op e_j has e_k-coefficient c, and matrices act on columns.
"""

from __future__ import annotations

import random
from fractions import Fraction

F = Fraction

# class -> ids of its identities, named as in homstruct's witnesses
CLASS_IDENTITIES = {
    "comm-hom-assoc": ("commutative", "hom-associative"),
    "hom-lie": ("skew-symmetry", "hom-jacobi"),
    "hom-poisson": ("commutative", "hom-associative", "skew-symmetry",
                    "hom-jacobi", "poisson-leibniz"),
    "transposed-hom-poisson": ("commutative", "hom-associative",
                               "skew-symmetry", "hom-jacobi",
                               "transposed-leibniz"),
    "hom-pre-lie": ("hom-pre-lie",),
    "hom-pre-lie-poisson": ("commutative", "hom-associative", "hom-pre-lie",
                            "pre-poisson-1", "pre-poisson-2"),
}
ARITY = {"commutative": 2, "skew-symmetry": 2}  # every other identity is ternary


class Algebra:
    """Dense copy of a bound presentation: table[op][i][j] = [(k, c), ...]."""

    def __init__(self, dim, ops, alpha):
        self.dim = dim
        self.tables = {}
        for name, entries in ops.items():
            t = [[[] for _ in range(dim)] for _ in range(dim)]
            for (i, j, k, c) in entries:
                if c:
                    t[i][j].append((k, F(c)))
            self.tables[name] = t
        self.alpha = [[F(c) for c in row] for row in alpha]

    @classmethod
    def of(cls, p):
        return cls(p.dim, {name: op.entries for name, op in p.ops.items()},
                   p.maps["alpha"].m)

    def entries(self, name):
        return [(i, j, k, c) for i, row in enumerate(self.tables[name])
                for j, cell in enumerate(row) for (k, c) in cell]

    def mul(self, name, x, y):
        out = [F(0)] * self.dim
        t = self.tables[name]
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        s = xi * yj
                        for (k, c) in t[i][j]:
                            out[k] += s * c
        return out

    def al(self, x):
        return mat_vec(self.alpha, x)


def mat_vec(m, x):
    return [sum((row[c] * x[c] for c in range(len(x)) if x[c]), F(0)) for row in m]


def _sub(x, y):
    return [a - b for a, b in zip(x, y)]


def _add(x, y):
    return [a + b for a, b in zip(x, y)]


def basis(n, i):
    return [F(1) if j == i else F(0) for j in range(n)]


def residual(A, ident, x, y, z=None):
    """Residual of one class identity at vectors x, y (, z)."""
    m, al = A.mul, A.al
    if ident == "commutative":
        return _sub(m("dot", x, y), m("dot", y, x))
    if ident == "skew-symmetry":
        return _add(m("bracket", x, y), m("bracket", y, x))
    if ident == "hom-associative":
        return _sub(m("dot", m("dot", x, y), al(z)), m("dot", al(x), m("dot", y, z)))
    if ident == "hom-jacobi":
        b = lambda u, v: m("bracket", u, v)
        return _add(_add(b(al(x), b(y, z)), b(al(y), b(z, x))), b(al(z), b(x, y)))
    if ident == "poisson-leibniz":
        return _sub(m("bracket", al(x), m("dot", y, z)),
                    _add(m("dot", al(y), m("bracket", x, z)),
                         m("dot", al(z), m("bracket", x, y))))
    if ident == "transposed-leibniz":
        lhs = [2 * c for c in m("dot", al(z), m("bracket", x, y))]
        return _sub(lhs, _add(m("bracket", m("dot", z, x), al(y)),
                              m("bracket", al(x), m("dot", z, y))))
    if ident == "hom-pre-lie":
        def aso(u, v, w):
            return _sub(m("star", m("star", u, v), al(w)), m("star", al(u), m("star", v, w)))
        return _sub(aso(x, y, z), aso(y, x, z))
    if ident == "pre-poisson-1":
        return _sub(m("star", m("dot", x, y), al(z)), m("dot", al(x), m("star", y, z)))
    if ident == "pre-poisson-2":
        return _sub(_sub(m("dot", m("star", x, y), al(z)), m("dot", m("star", y, x), al(z))),
                    _sub(m("star", al(x), m("dot", y, z)), m("star", al(y), m("dot", x, z))))
    raise KeyError(ident)


def basis_residual(A, ident, tup):
    n = A.dim
    return residual(A, ident, *(basis(n, i) for i in tup))


def in_class(A, class_name):
    """Exact verdict: every identity vanishes on every basis tuple."""
    n = A.dim
    for ident in CLASS_IDENTITIES[class_name]:
        ar = ARITY.get(ident, 3)
        for t in range(n ** ar):
            tup = tuple((t // n ** p) % n for p in reversed(range(ar)))
            if any(basis_residual(A, ident, tup)):
                return False
    return True


def random_vector(rng, n):
    return [F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3))) for _ in range(n)]


def random_class_failure(A, class_name, rng, trials=3):
    """Evaluate the identities at random dense vectors.

    Returns the first identity with a nonzero residual (a proof that the
    algebra is not in the class), or None when every trial vanished.
    """
    for _ in range(trials):
        x, y, z = (random_vector(rng, A.dim) for _ in range(3))
        for ident in CLASS_IDENTITIES[class_name]:
            if any(residual(A, ident, x, y, z)):
                return ident
    return None


def random_in_class(A, class_name, seed):
    return random_class_failure(A, class_name, random.Random(seed)) is None


# ---------------------------------------------------------------------------
# matrices and representations

def mat(rows):
    return [[F(c) for c in row] for row in rows]


def mm(a, b):
    return [[sum((a[r][t] * b[t][c] for t in range(len(b)) if a[r][t]), F(0))
             for c in range(len(b[0]))] for r in range(len(a))]


def madd(a, b, sign=1):
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mscale(s, a):
    return [[s * x for x in row] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def zeros(r, c=None):
    return [[F(0)] * (r if c is None else c) for _ in range(r)]


def is_zero(m):
    return all(not c for row in m for c in row)


class Rep:
    """Action families (one matrix per algebra basis element) and twist beta."""

    def __init__(self, actions, beta):
        self.actions = {name: [mat(m) for m in fam] for name, fam in actions.items()}
        self.beta = mat(beta)

    def act(self, name, x):
        fam = self.actions[name]
        out = zeros(len(self.beta))
        for c, m in zip(x, fam):
            if c:
                out = madd(out, mscale(c, m))
        return out


def left_matrices(A, name):
    """Matrix of op(e_i, -) for each basis element e_i."""
    n = A.dim
    return [transpose([A.mul(name, basis(n, i), basis(n, m)) for m in range(n)])
            for i in range(n)]


def regular_rep(A, names=("s", "rho")):
    ops = {"s": "dot", "rho": "bracket"}
    return Rep({nm: left_matrices(A, ops[nm]) for nm in names}, A.alpha)


def rep_failures(A, R, class_name):
    """Module-axiom families that fail, for the s/rho classes."""
    n = A.dim
    e = [basis(n, i) for i in range(n)]
    av = [A.al(v) for v in e]
    of, beta = R.act, R.beta
    fams = {}
    if class_name in ("comm-hom-assoc", "transposed-hom-poisson"):
        fams["assoc-action"] = lambda i, j: madd(
            mm(of("s", A.mul("dot", e[i], e[j])), beta), mm(of("s", av[i]), of("s", e[j])), -1)
        fams["twist-intertwine:s"] = lambda i, j: madd(
            mm(beta, of("s", e[i])), mm(of("s", av[i]), beta), -1)
    if class_name in ("hom-lie", "transposed-hom-poisson"):
        fams["bracket-action"] = lambda i, j: madd(
            mm(of("rho", A.mul("bracket", e[i], e[j])), beta),
            madd(mm(of("rho", av[i]), of("rho", e[j])),
                 mm(of("rho", av[j]), of("rho", e[i])), -1), -1)
        fams["twist-intertwine:rho"] = lambda i, j: madd(
            mm(beta, of("rho", e[i])), mm(of("rho", av[i]), beta), -1)
    if class_name == "transposed-hom-poisson":
        fams["mixed-1"] = lambda i, j: madd(
            mscale(2, mm(of("s", A.mul("bracket", e[i], e[j])), beta)),
            madd(mm(of("rho", av[i]), of("s", e[j])),
                 mm(of("rho", av[j]), of("s", e[i])), -1), -1)
        fams["mixed-2"] = lambda i, j: madd(
            mscale(2, mm(of("s", av[i]), of("rho", e[j]))),
            madd(mm(of("rho", A.mul("dot", e[i], e[j])), beta),
                 mm(of("rho", av[j]), of("s", e[i]))), -1)
    return _failing(fams, n)


def _failing(fams, n):
    out = []
    for ident, fn in fams.items():
        if any(not is_zero(fn(i, j)) for i in range(n) for j in range(n)):
            out.append(ident)
    return out


def dual_hypotheses_failures(A, R):
    """The six sufficient-hypothesis families of the dual module."""
    n = A.dim
    e = [basis(n, i) for i in range(n)]
    av = [A.al(v) for v in e]
    of, beta = R.act, R.beta
    fams = {
        "hyp-mixed-1": lambda i, j: madd(
            mm(mscale(2, of("s", A.mul("bracket", e[i], e[j]))), beta),
            madd(mm(of("s", e[j]), of("rho", av[i])), mm(of("s", e[i]), of("rho", av[j])), -1),
            -1),
        "hyp-mixed-2": lambda i, j: madd(
            mscale(2, mm(of("rho", e[j]), of("s", av[i]))),
            madd(mm(of("rho", A.mul("dot", e[i], e[j])), beta), mm(of("s", e[i]), of("rho", av[j]))),
            -1),
        "hyp-strict-commute:s": lambda i, j: madd(
            mm(beta, of("s", e[i])), mm(of("s", e[i]), beta), -1),
        "hyp-strict-commute:rho": lambda i, j: madd(
            mm(beta, of("rho", av[i])), mm(of("rho", e[i]), beta), -1),
        "hyp-sym-commute:s": lambda i, j: madd(
            mm(beta, of("s", e[i])), mm(of("s", av[i]), beta), -1),
        "hyp-sym-commute:rho": lambda i, j: madd(
            mm(beta, of("rho", e[i])), mm(of("rho", av[i]), beta), -1),
    }
    return _failing(fams, n)


def dual_rep(R):
    return Rep({"s": [transpose(m) for m in R.actions["s"]],
                "rho": [mscale(-1, transpose(m)) for m in R.actions["rho"]]},
               transpose(R.beta))


def semidirect(A, R, ops):
    """A (+) V with x.u = s(x)u, u.y = s(y)u, [x,u] = rho(x)u, [u,y] = -rho(y)u."""
    n, m = A.dim, len(R.beta)
    dim = n + m
    out = {}
    for name, act, sign in (("dot", "s", 1), ("bracket", "rho", -1)):
        if name not in ops:
            continue
        entries = [(i, j, k, c) for (i, j, k, c) in A.entries(name)]
        for i in range(n):
            M = R.act(act, basis(n, i))
            for v in range(m):
                for r in range(m):
                    c = M[r][v]
                    if c:
                        entries.append((i, n + v, n + r, c))
                        entries.append((n + v, i, n + r, sign * c))
        out[name] = entries
    alpha = zeros(dim)
    for r in range(n):
        alpha[r][:n] = A.alpha[r]
    for r in range(m):
        alpha[n + r][n:] = R.beta[r]
    return Algebra(dim, out, alpha)


def coadjoint_rep(A):
    """Actions of A on A* entering the coadjoint double: S(x)^T and ad(x)^T."""
    return Rep({"s": [transpose(M) for M in left_matrices(A, "dot")],
                "rho": [transpose(M) for M in left_matrices(A, "bracket")]},
               transpose(A.alpha))


def manin_failures(A):
    """Failing parts of the Manin-triple check against the zero dual."""
    n = A.dim
    double = semidirect(A, coadjoint_rep(A), ("dot", "bracket"))
    out = []
    if not in_class(double, "transposed-hom-poisson"):
        out.append("double-transposed")
    # standard pairing <x + f, y + g> = f(y) + g(x)
    def form(x, y):
        return sum((x[i] * y[n + i] + x[n + i] * y[i] for i in range(n)), F(0))
    d = 2 * n
    e = [basis(d, i) for i in range(d)]
    al = [double.al(v) for v in e]
    for name in ("dot", "bracket"):
        if any(form(double.mul(name, e[i], e[j]), al[k]) != form(al[i], double.mul(name, e[j], e[k]))
               for i in range(d) for j in range(d) for k in range(d)):
            out.append("invariance:%s" % name)
    return out


def equivalence_verdicts(A):
    """(bialgebra, matched pair, Manin) verdicts of A against the zero dual."""
    bial = in_class(A, "transposed-hom-poisson")
    double_ok = "double-transposed" not in manin_failures(A)
    mp = double_ok and not rep_failures(A, coadjoint_rep(A), "transposed-hom-poisson")
    manin = not manin_failures(A)
    return bial, mp, manin


def rota_baxter_failures(A, R):
    """O-operator equations of R against the regular representation."""
    n = A.dim
    e = [basis(n, i) for i in range(n)]
    Re = [mat_vec(R, v) for v in e]
    fams = {
        "twist-intertwine": lambda i, j: [madd(mm(A.alpha, R), mm(R, A.alpha), -1)[r][i]
                                          for r in range(n)],
        "o-equation:dot": lambda i, j: _sub(
            A.mul("dot", Re[i], Re[j]),
            mat_vec(R, _add(A.mul("dot", Re[i], e[j]), A.mul("dot", Re[j], e[i])))),
        "o-equation:bracket": lambda i, j: _sub(
            A.mul("bracket", Re[i], Re[j]),
            mat_vec(R, _sub(A.mul("bracket", Re[i], e[j]), A.mul("bracket", Re[j], e[i])))),
    }
    return [ident for ident, fn in fams.items()
            if any(any(fn(i, j)) for i in range(n) for j in range(n))]


# ---------------------------------------------------------------------------
# derivations

def is_derivation(A, name, D, alpha_commute=True):
    n = A.dim
    e = [basis(n, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = mat_vec(D, A.mul(name, e[i], e[j]))
            rhs = _add(A.mul(name, mat_vec(D, e[i]), e[j]), A.mul(name, e[i], mat_vec(D, e[j])))
            if lhs != rhs:
                return False
    return not alpha_commute or mm(A.alpha, D) == mm(D, A.alpha)


def rank(rows):
    rows = [list(r) for r in rows if any(r)]
    r = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        piv = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for k in range(r + 1, len(rows)):
            if rows[k][c]:
                f = rows[k][c] / rows[r][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        r += 1
    return r


def derivation_dimension(A, name, alpha_commute=True):
    """Dimension of the derivation space, from the rank of the system whose
    columns are the images of the elementary matrices E_rc."""
    n = A.dim
    cols = []
    for r in range(n):
        for c in range(n):
            D = zeros(n)
            D[r][c] = F(1)
            col = []
            for i in range(n):
                for j in range(n):
                    ei, ej = basis(n, i), basis(n, j)
                    col += _sub(mat_vec(D, A.mul(name, ei, ej)),
                                _add(A.mul(name, mat_vec(D, ei), ej), A.mul(name, ei, mat_vec(D, ej))))
            if alpha_commute:
                col += [x for row in madd(mm(A.alpha, D), mm(D, A.alpha), -1) for x in row]
            cols.append(col)
    return n * n - rank(cols)
