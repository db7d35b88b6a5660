"""Seeded input generator for the benchmark workloads.

Every input is written as a file in homstruct's interchange format, together
with a manifest of the calls to make and the outcome each call must have.
Expected outcomes come from how an input was built or from the benchmark's
own evaluator (``oracle``): a basis change of an algebra in a class stays in
the class, a perturbed copy is shown to fail by a nonzero residual at random
vectors, and everything else is computed by ``oracle``.  homstruct's
checkers are never consulted here.  The same (workload, seed) pair always
writes byte-identical files.
"""

from __future__ import annotations

import json
import os
import random

import oracle
from oracle import F, Algebra, Rep

from homstruct import catalog
from homstruct.core import (
    AlgebraPresentation,
    BilinearMap,
    LinearMap,
    RepresentationPresentation,
    serialize_algebra,
    serialize_o_operator,
    serialize_representation,
)

T = "transposed-hom-poisson"
PLP = "hom-pre-lie-poisson"
COMM = "comm-hom-assoc"

DENSE_DIM = 4
# passing inputs per class, each with a perturbed copy; unequal counts keep
# the median and p75 call latencies inside one class's cluster
DENSE_BASES = {T: 5, PLP: 3}
MIN_DENSITY = 0.98
# cap on numerators and denominators, so that no seed draws a costlier input
MAX_HEIGHT = 1000
# catalog entry -> class it is checked against in the CLI fixtures
CATALOG = {
    "CA2a": COMM, "CA2b": COMM, "CA3a": COMM, "CA3b": COMM,
    "HP3": "hom-poisson", "THP2": T, "TP2": T, "PLP2": PLP,
    "THP2-as-hom-poisson": "hom-poisson",
}


# ---------------------------------------------------------------------------
# own reading of the interchange format (independent of homstruct.core)

def _coeff(text, binding):
    if text.lstrip("-").replace("/", "").isdigit():
        return F(text)
    if text.startswith("-"):
        return -binding[text[1:]]
    return binding[text]


def load_algebra(text, binding=None):
    doc = json.loads(text)
    binding = binding or {}
    ops = {name: [(e["i"], e["j"], e["k"], _coeff(e["c"], binding)) for e in raw]
           for name, raw in doc["ops"].items()}
    alpha = [[_coeff(c, binding) for c in row] for row in doc["maps"]["alpha"]]
    return Algebra(doc["dim"], ops, alpha)


# ---------------------------------------------------------------------------
# building algebras

def presentation(A):
    ops = {name: BilinearMap(A.dim, tuple(A.entries(name))) for name in A.tables}
    return AlgebraPresentation(A.dim, ops, {"alpha": LinearMap.from_rows(A.alpha)})


def rep_presentation(R, algebra_dim):
    return RepresentationPresentation(
        algebra_dim, len(R.beta),
        {name: tuple(LinearMap.from_rows(m) for m in fam) for name, fam in R.actions.items()},
        LinearMap.from_rows(R.beta))


def bound_catalog(name, binding):
    """Own substitution of a catalog entry's parameters."""
    return load_algebra(serialize_algebra(catalog.get(name)), binding)


def random_nonzero(rng):
    return F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))


def catalog_binding(name, rng):
    """A random binding under which the entry lies in its class.

    Values are small nonzero integers: the cost of a check depends on the
    size of the fractions it meets, and a seed should not change the cost.
    """
    def pick():
        return F(rng.choice((-3, -2, -1, 1, 2, 3)))

    if name in ("THP2", "THP2-as-hom-poisson"):
        return {"lam": pick()}
    if name == "PLP2":
        return {"a": pick()}
    if name == "CA3b":
        return {p: pick() for p in ("p1", "p2", "p3")}
    if name == "HP3":
        # the constraints in the entry's description, solved with c = d = 0
        b = {k: F(0) for k in ("c", "d", "l1", "l3", "l5")}
        b.update({k: pick() for k in ("a", "b", "l2", "l4", "l6")})
        return b
    return {}


def binding_arg(binding):
    return ",".join("%s=%s" % (k, binding[k]) for k in sorted(binding))


def kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def tensor(A1, A2, class_name):
    """Tensor product on the basis e_i (x) f_j -> i*dim2 + j (homstruct's rule)."""
    n2 = A2.dim
    dim = A1.dim * n2

    def product(o1, o2):
        return {(i1 * n2 + i2, j1 * n2 + j2, k1 * n2 + k2): c1 * c2
                for (i1, j1, k1, c1) in A1.entries(o1)
                for (i2, j2, k2, c2) in A2.entries(o2)}

    def plus(p, q):
        out = dict(p)
        for key, c in q.items():
            out[key] = out.get(key, F(0)) + c
        return [(i, j, k, c) for (i, j, k), c in sorted(out.items()) if c]

    ops = {"dot": plus(product("dot", "dot"), {})}
    if class_name == T:
        ops["bracket"] = plus(product("bracket", "dot"), product("dot", "bracket"))
    if class_name == PLP:
        ops["star"] = plus(product("star", "dot"), product("dot", "star"))
    return Algebra(dim, ops, kron(A1.alpha, A2.alpha))


def direct_sum_rep(reps):
    out = {}
    for name in reps[0].actions:
        fam = []
        for i in range(len(reps[0].actions[name])):
            fam.append(block_diag([r.actions[name][i] for r in reps]))
        out[name] = fam
    return Rep(out, block_diag([r.beta for r in reps]))


def block_diag(blocks):
    size = sum(len(b) for b in blocks)
    out = oracle.zeros(size)
    off = 0
    for b in blocks:
        for r, row in enumerate(b):
            out[off + r][off:off + len(row)] = row
        off += len(b)
    return out


def pad(A, m, rng):
    """A (+) V with V of dim m: zero products, random invertible twist on V."""
    dim = A.dim + m
    beta = [[random_nonzero(rng) if r == c else F(0) for c in range(m)] for r in range(m)]
    alpha = block_diag([A.alpha, beta])
    return Algebra(dim, {name: A.entries(name) for name in A.tables}, alpha)


def dense_base(class_name, dim, rng):
    """A sparse algebra of the class at the given dim (dim >= 2).

    transposed: THP2 semidirect the sum of regular representations, padded.
    pre-Lie Poisson: PLP2 (x) PLP2 (PLP2 below dim 4), padded.
    """
    if class_name == T:
        thp = bound_catalog("THP2", catalog_binding("THP2", rng))
        q = (dim - 2) // 2
        base = thp
        if q:
            base = oracle.semidirect(thp, direct_sum_rep([oracle.regular_rep(thp)] * q),
                                     ("dot", "bracket"))
        return pad(base, dim - base.dim, rng) if dim > base.dim else base
    plp = [bound_catalog("PLP2", catalog_binding("PLP2", rng)) for _ in range(2)]
    base = tensor(plp[0], plp[1], PLP) if dim >= 4 else plp[0]
    return pad(base, dim - base.dim, rng) if dim > base.dim else base


def transvection(rng, n):
    """Dense basis change P = I + u v^T with v.u = 0, so P^-1 = I - u v^T."""
    while True:
        u = [F(rng.choice((-2, -1, 1, 2))) for _ in range(n - 1)] + [F(rng.choice((-1, 1)))]
        v = [F(rng.choice((-2, -1, 1, 2))) for _ in range(n - 1)]
        last = -sum(a * b for a, b in zip(u, v)) / u[-1]
        if last and abs(last) <= 3:
            v.append(last)
            break
    P = [[(1 if i == j else 0) + u[i] * v[j] for j in range(n)] for i in range(n)]
    Q = [[(1 if i == j else 0) - u[i] * v[j] for j in range(n)] for i in range(n)]
    return P, Q


def conjugate(A, P, Q):
    """The same algebra in the basis f_a = sum_i P[i][a] e_i."""
    n = A.dim
    ops = {}
    for name in A.tables:
        ents = []
        for x in range(n):
            for y in range(n):
                v = A.mul(name, [P[i][x] for i in range(n)], [P[j][y] for j in range(n)])
                w = oracle.mat_vec(Q, v)
                ents += [(x, y, z, w[z]) for z in range(n) if w[z]]
        ops[name] = ents
    return Algebra(n, ops, oracle.mm(oracle.mm(Q, A.alpha), P))


def density(A):
    """Nonzero constants over those not forced to zero by skew-symmetry."""
    n = A.dim
    nnz = sum(len(A.entries(name)) for name in A.tables)
    free = sum(n ** 3 - (n * n if name == "bracket" else 0) for name in A.tables)
    return nnz / free


def max_height(A):
    return max(max(abs(c.numerator), c.denominator)
               for name in A.tables for (_, _, _, c) in A.entries(name))


def perturb(A, class_name, rng):
    """Copy of A with one structure constant changed, proven to leave the class."""
    n = A.dim
    while True:
        name = rng.choice(sorted(A.tables))
        i, j, k = (rng.randrange(n) for _ in range(3))
        delta = random_nonzero(rng)
        ops = {o: A.entries(o) for o in A.tables}
        table = {(a, b, c): v for (a, b, c, v) in ops[name]}
        table[(i, j, k)] = table.get((i, j, k), F(0)) + delta
        ops[name] = [(a, b, c, v) for (a, b, c), v in sorted(table.items()) if v]
        out = Algebra(n, ops, A.alpha)
        if oracle.random_class_failure(out, class_name, rng) is not None:
            return out


# ---------------------------------------------------------------------------
# workloads

class Writer:
    """Writes input files into a directory and collects the call manifest."""

    def __init__(self, root):
        self.root = root
        self.files = []
        self.calls = []
        os.makedirs(root, exist_ok=True)

    def write(self, name, text, kind):
        with open(os.path.join(self.root, name), "w") as fh:
            fh.write(text)
        self.files.append({"file": name, "kind": kind})
        return name

    def algebra(self, name, A):
        return self.write(name, serialize_algebra(presentation(A)), "algebra")

    def call(self, **spec):
        spec["id"] = "%s#%d" % (spec["kind"], len(self.calls))
        self.calls.append(spec)

    def finish(self):
        doc = {"files": self.files, "calls": self.calls}
        with open(os.path.join(self.root, "manifest.json"), "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        return doc


def gen_check_dense(w, rng):
    """Basis changes of passing algebras at DENSE_DIM, each with a perturbed copy."""
    for class_name, tag in ((T, "thp"), (PLP, "plp")):
        for idx in range(DENSE_BASES[class_name]):
            base = dense_base(class_name, DENSE_DIM, rng)
            while True:
                (P1, Q1), (P2, Q2) = transvection(rng, DENSE_DIM), transvection(rng, DENSE_DIM)
                A = conjugate(base, oracle.mm(P1, P2), oracle.mm(Q2, Q1))
                if density(A) >= MIN_DENSITY and max_height(A) <= MAX_HEIGHT:
                    break
            f = w.algebra("%s-conj%d.json" % (tag, idx), A)
            w.call(kind="check", file=f, cls=class_name, expect="pass")
            f = w.algebra("%s-pert%d.json" % (tag, idx), perturb(A, class_name, rng))
            w.call(kind="check", file=f, cls=class_name, expect="fail")


def gen_check_sparse(w, rng):
    """Tensor products of catalog entries as built: dim 8, under 5% dense.

    Four transposed products of equal cost and one pre-Lie Poisson product,
    so that the median and p75 call latencies fall well inside the
    transposed cluster.
    """
    def cat(name):
        return bound_catalog(name, catalog_binding(name, rng))

    products = [
        ("tp-thp-tp-a", T, [cat("TP2"), cat("THP2"), cat("TP2")]),
        ("tp-thp-tp-b", T, [cat("TP2"), cat("THP2"), cat("TP2")]),
        ("tp-tp-thp-a", T, [cat("TP2"), cat("TP2"), cat("THP2")]),
        ("tp-tp-thp-b", T, [cat("TP2"), cat("TP2"), cat("THP2")]),
        ("plp3", PLP, [cat("PLP2") for _ in range(3)]),
    ]
    for tag, class_name, factors in products:
        A = factors[0]
        for B in factors[1:]:
            A = tensor(A, B, class_name)
        f = w.algebra("%s.json" % tag, A)
        w.call(kind="check", file=f, cls=class_name, expect="pass")


def gen_cli_fixtures(w, rng):
    """Every catalog entry and subcommand at dims 2-4, on files written up front."""
    bindings = {name: catalog_binding(name, rng) for name in CATALOG}
    files = {}
    for name, cls in CATALOG.items():
        files[name] = w.write("cat-%s.json" % name, serialize_algebra(catalog.get(name)),
                              "algebra")
        A = bound_catalog(name, bindings[name])
        params = ["--params", binding_arg(bindings[name])] if bindings[name] else []
        verdict = "pass" if oracle.in_class(A, cls) else "fail"
        for json_flag in ([], ["--json"]):
            w.call(kind="cli", argv=["check", files[name], "--class", cls] + params + json_flag,
                   expect={"exit": 0 if verdict == "pass" else 1, "verdict": verdict},
                   binding=binding_arg(bindings[name]))
        w.call(kind="cli", argv=["catalog", "show", name] + params,
               expect={"exit": 0, "algebra_class": cls,
                       "algebra_verdict": verdict})
        for op in sorted(A.tables):
            w.call(kind="cli", argv=["derivations", files[name], "--op", op, "--json"] + params,
                   expect={"exit": 0,
                           "derivations": oracle.derivation_dimension(A, op)},
                   binding=binding_arg(bindings[name]))
    for json_flag in ([], ["--json"]):
        w.call(kind="cli", argv=["catalog", "list"] + json_flag,
               expect={"exit": 0, "names": sorted(CATALOG)})

    def params(*names):
        b = {}
        for name in names:
            b.update(bindings[name])
        return ["--params", binding_arg(b)] if b else []

    built = {"exit": 0}
    h = ",".join(str(random_nonzero(rng)) for _ in range(2))
    w.call(kind="cli", argv=["twist", files["TP2"], "--alpha-h=" + h], expect=dict(built, cls=T))
    w.call(kind="cli", argv=["twist", files["THP2"], "--derived", "1", "--class", T]
           + params("THP2"), expect=dict(built, cls=T))
    w.call(kind="cli", argv=["tensor", files["TP2"], files["THP2"], "--class", T]
           + params("THP2"), expect=dict(built, cls=T))
    w.call(kind="cli", argv=["tensor", files["CA2a"], files["CA2b"], "--class", COMM],
           expect=dict(built, cls=COMM))
    w.call(kind="cli", argv=["subadjacent", files["PLP2"]] + params("PLP2"),
           expect=dict(built, cls=T))
    w.call(kind="cli", argv=["bracketd", files["THP2"], "--map", "D"] + params("THP2"),
           expect=dict(built, cls=T))

    for name in ("THP2", "TP2"):
        A = bound_catalog(name, bindings[name])
        p = params(name)
        reg = oracle.regular_rep(A)
        rep = w.write("reg-%s.json" % name, serialize_representation(rep_presentation(reg, 2)),
                      "rep")
        bad = perturb_rep(reg, rng)
        bad_rep = w.write("badrep-%s.json" % name,
                          serialize_representation(rep_presentation(bad, 2)), "rep")
        reg_ok = not oracle.rep_failures(A, reg, T)
        w.call(kind="cli", argv=["semidirect", files[name], rep, "--class", T] + p,
               expect=dict(built, cls=T) if reg_ok else {"exit": 3})
        for r, R in ((rep, reg), (bad_rep, bad)):
            v = "fail" if oracle.rep_failures(A, R, T) else "pass"
            w.call(kind="cli", argv=["checkrep", files[name], r, "--class", T, "--json"] + p,
                   expect={"exit": 0 if v == "pass" else 1, "verdict": v})
        hyp = oracle.dual_hypotheses_failures(A, reg)
        strict = not any(h.startswith(("hyp-mixed", "hyp-strict")) for h in hyp)
        broken = strict and oracle.rep_failures(A, oracle.dual_rep(reg), T)
        v = "pass" if not hyp and not broken else "fail"
        w.call(kind="cli", argv=["dualrep", files[name], rep, "--json"] + p,
               expect={"exit": 0 if v == "pass" else 1,
                       "verdict": None if broken else v})
        zero_b = Algebra(2, {"dot": [], "bracket": []}, A.alpha)
        zb = w.algebra("zero-%s.json" % name, zero_b)
        zero_rep = Rep({k: [oracle.zeros(2)] * 2 for k in ("s", "rho")}, A.alpha)
        zr = w.write("zerorep-%s.json" % name,
                     serialize_representation(rep_presentation(zero_rep, 2)), "rep")
        double = oracle.semidirect(A, reg, ("dot", "bracket"))
        v = "pass" if reg_ok and oracle.in_class(double, T) else "fail"
        w.call(kind="cli", argv=["matched", "check", files[name], zb, rep, zr, "--class", T,
                                 "--json"] + p,
               expect={"exit": 0 if v == "pass" else 1, "verdict": v})
        dual = w.algebra("dual-%s.json" % name,
                         Algebra(2, {"dot": [], "bracket": []}, oracle.transpose(A.alpha)))
        v = "fail" if oracle.manin_failures(A) else "pass"
        w.call(kind="cli", argv=["manin", files[name], dual, "--json"] + p,
               expect={"exit": 0 if v == "pass" else 1, "verdict": v})
        for tag, R in (("zero", oracle.zeros(2)),
                       ("rand", [[random_nonzero(rng) for _ in range(2)] for _ in range(2)])):
            f = w.write("R%s-%s.json" % (tag, name),
                        serialize_o_operator(LinearMap.from_rows(R)), "operator")
            if not reg_ok:
                exp = {"exit": 3}
            else:
                v = "fail" if oracle.rota_baxter_failures(A, R) else "pass"
                exp = {"exit": 0 if v == "pass" else 1, "verdict": v}
            w.call(kind="cli", argv=["rb", "check", files[name], f, "--json"] + p, expect=exp)


def perturb_rep(R, rng):
    actions = {k: [[list(row) for row in m] for m in fam] for k, fam in R.actions.items()}
    name = rng.choice(sorted(actions))
    m = actions[name][rng.randrange(len(actions[name]))]
    m[rng.randrange(len(m))][rng.randrange(len(m))] += random_nonzero(rng)
    return Rep(actions, R.beta)


def gen_constructions(w, rng):
    """Inputs for the library builders and the representation/duality layers.

    The doubling calls (semidirect product, matched pair, Manin triple,
    equivalence) take the dim-2 and dim-3 inputs; the dim-4 product only
    goes to check_rep and derivation_space, so that one batch stays short.
    derivation_space runs on the dim-3 and dim-4 inputs only: on dim 2 it
    takes a millisecond, and five such calls would pull the median call
    into the gap below the 30-55 ms cluster of builders.
    """
    def cat(name):
        return bound_catalog(name, catalog_binding(name, rng))

    thp, tp = cat("THP2"), cat("TP2")
    algebras = {
        "THP2": (thp, T), "TP2": (tp, T),
        "THP2xTP2": (tensor(thp, tp, T), T),
        "CA2a": (cat("CA2a"), COMM), "CA3a": (cat("CA3a"), COMM),
    }
    plp = [cat("PLP2") for _ in range(2)]
    extra = {"PLP2a": (plp[0], PLP), "PLP2b": (plp[1], PLP)}
    files = {}
    for name, (A, cls) in list(algebras.items()) + list(extra.items()):
        files[name] = w.algebra("%s.json" % name, A)
    for left, right, cls in (("THP2", "TP2", T), ("TP2", "TP2", T),
                             ("CA2a", "CA3a", COMM), ("PLP2a", "PLP2b", PLP)):
        w.call(kind="tensor_product", files=[files[left], files[right]], cls=cls,
               expect={"cls": cls})
    for name, (A, cls) in algebras.items():
        names = ("s", "rho") if cls == T else ("s",)
        reg = oracle.regular_rep(A, names)
        rep_ok = not oracle.rep_failures(A, reg, cls)
        f = [files[name]]
        w.call(kind="check_rep", files=f, cls=cls, expect={"verdict": rep_ok})
        if A.dim > 2:
            for op in sorted(A.tables):
                w.call(kind="derivation_space", files=f, op=op,
                       expect={"derivations": oracle.derivation_dimension(A, op)})
        if A.dim > 3:
            continue
        w.call(kind="semidirect_product", files=f, cls=cls,
               expect={"cls": cls} if rep_ok else {"raises": "PreconditionError"})
        ops = ("dot", "bracket") if cls == T else ("dot",)
        double_ok = rep_ok and oracle.in_class(oracle.semidirect(A, reg, ops), cls)
        w.call(kind="check_matched_pair", files=f, cls=cls, expect={"verdict": double_ok})
        if cls == T:
            manin = not oracle.manin_failures(A)
            w.call(kind="check_manin_triple", files=f, expect={"verdict": manin})
            verdicts = oracle.equivalence_verdicts(A)
            w.call(kind="equivalence_report", files=f,
                   expect={"raises": "ConstructionError"} if len(set(verdicts)) > 1
                   else {"verdict": verdicts[0]})


GENERATORS = {
    "check-dense": gen_check_dense,
    "check-sparse": gen_check_sparse,
    "cli-fixtures": gen_cli_fixtures,
    "constructions": gen_constructions,
}


def generate(workload, seed, root):
    """Write the workload's inputs and manifest under root; return the manifest."""
    rng = random.Random("%s:%d" % (workload, seed))
    w = Writer(root)
    GENERATORS[workload](w, rng)
    return w.finish()
