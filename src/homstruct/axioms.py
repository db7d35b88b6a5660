"""Checkers for the defining identities of each algebra class.

Every identity is multilinear, so checking it on all basis tuples is both
sound and complete.  Each checker takes a fully bound AlgebraPresentation and
returns a CheckReport whose witnesses are (identity_id, basis_tuple, residual).
"""

from __future__ import annotations

from homstruct.core import (
    AlgebraPresentation,
    CheckReport,
    LinearMap,
    MissingOperationError,
    apply_map,
    basis_vec,
    eval_bilinear,
    run_identity_families,
    vec_add,
    vec_scale,
    vec_sub,
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


def resolve_class(name):
    name = CLASS_ALIASES.get(name, name)
    if name not in CLASS_OPS:
        raise KeyError("unknown algebra class %r" % name)
    return name


def _ctx(a, *op_names):
    """Return (basis vector fn, alpha-on-basis fn, op evaluators)."""
    a.require_bound()
    n = a.dim
    alpha = a.alpha
    e = [basis_vec(n, i) for i in range(n)]
    av = [alpha.column(i) for i in range(n)]
    ops = [a.op(name) for name in op_names]
    return e, av, ops


def check_multiplicative(a, op_name="all", max_witnesses=32):
    """alpha(x # y) = alpha(x) # alpha(y) for the named op (or every op)."""
    a.require_bound()
    names = sorted(a.ops) if op_name == "all" else [op_name]
    alpha = a.alpha
    e = [basis_vec(a.dim, i) for i in range(a.dim)]
    av = [alpha.column(i) for i in range(a.dim)]
    fams = []
    for name in names:
        op = a.op(name)
        fams.append((
            "multiplicative:%s" % name, 2,
            lambda i, j, op=op: vec_sub(
                apply_map(alpha, eval_bilinear(op, e[i], e[j])),
                eval_bilinear(op, av[i], av[j]))))
    return run_identity_families(a.dim, fams, max_witnesses)


def check_comm_hom_assoc(a, max_witnesses=32):
    """Commutative Hom-associative: x.y = y.x and (x.y).a(z) = a(x).(y.z)."""
    e, av, (dot,) = _ctx(a, "dot")
    fams = [
        ("commutative", 2,
         lambda i, j: vec_sub(eval_bilinear(dot, e[i], e[j]),
                              eval_bilinear(dot, e[j], e[i]))),
        ("hom-associative", 3,
         lambda i, j, k: vec_sub(
             eval_bilinear(dot, eval_bilinear(dot, e[i], e[j]), av[k]),
             eval_bilinear(dot, av[i], eval_bilinear(dot, e[j], e[k])))),
    ]
    return run_identity_families(a.dim, fams, max_witnesses)


def check_hom_lie(a, max_witnesses=32):
    """Skew-symmetry and the Hom-Jacobi identity for the bracket."""
    e, av, (br,) = _ctx(a, "bracket")
    fams = [
        ("skew-symmetry", 2,
         lambda i, j: vec_add(eval_bilinear(br, e[i], e[j]),
                              eval_bilinear(br, e[j], e[i]))),
        ("hom-jacobi", 3,
         lambda i, j, k: vec_add(
             eval_bilinear(br, av[i], eval_bilinear(br, e[j], e[k])),
             vec_add(
                 eval_bilinear(br, av[j], eval_bilinear(br, e[k], e[i])),
                 eval_bilinear(br, av[k], eval_bilinear(br, e[i], e[j]))))),
    ]
    return run_identity_families(a.dim, fams, max_witnesses)


def check_hom_poisson(a, max_witnesses=32):
    """Hom-Poisson: comm Hom-assoc dot, Hom-Lie bracket, Leibniz compatibility.

    Compatibility: {a(x), y.z} = a(y).{x,z} + a(z).{x,y}.
    """
    e, av, (dot, br) = _ctx(a, "dot", "bracket")
    fams = [
        ("poisson-leibniz", 3,
         lambda i, j, k: vec_sub(
             eval_bilinear(br, av[i], eval_bilinear(dot, e[j], e[k])),
             vec_add(
                 eval_bilinear(dot, av[j], eval_bilinear(br, e[i], e[k])),
                 eval_bilinear(dot, av[k], eval_bilinear(br, e[i], e[j]))))),
    ]
    return run_identity_families(
        a.dim, fams, max_witnesses,
        sub_reports={"comm-hom-assoc": check_comm_hom_assoc(a, max_witnesses),
                     "hom-lie": check_hom_lie(a, max_witnesses)})


def check_transposed_hom_poisson(a, max_witnesses=32):
    """Transposed Hom-Poisson: 2 a(z).{x,y} = {z.x, a(y)} + {a(x), z.y}."""
    e, av, (dot, br) = _ctx(a, "dot", "bracket")
    two = vec_scale  # readability below
    fams = [
        ("transposed-leibniz", 3,
         lambda i, j, k: vec_sub(
             two(2, eval_bilinear(dot, av[k], eval_bilinear(br, e[i], e[j]))),
             vec_add(
                 eval_bilinear(br, eval_bilinear(dot, e[k], e[i]), av[j]),
                 eval_bilinear(br, av[i], eval_bilinear(dot, e[k], e[j]))))),
    ]
    return run_identity_families(
        a.dim, fams, max_witnesses,
        sub_reports={"comm-hom-assoc": check_comm_hom_assoc(a, max_witnesses),
                     "hom-lie": check_hom_lie(a, max_witnesses)})


def check_hom_pre_lie(a, max_witnesses=32):
    """Hom-pre-Lie: (x*y)*a(z) - a(x)*(y*z) is symmetric in x, y."""
    e, av, (st,) = _ctx(a, "star")

    def assoc(i, j, k):
        return vec_sub(
            eval_bilinear(st, eval_bilinear(st, e[i], e[j]), av[k]),
            eval_bilinear(st, av[i], eval_bilinear(st, e[j], e[k])))

    fams = [("hom-pre-lie", 3, lambda i, j, k: vec_sub(assoc(i, j, k), assoc(j, i, k)))]
    return run_identity_families(a.dim, fams, max_witnesses)


def check_hom_pre_lie_poisson(a, max_witnesses=32):
    """Hom-pre-Lie Poisson: comm Hom-assoc dot, Hom-pre-Lie star, two relations.

    relation-1: (x.y)*a(z) = a(x).(y*z)
    relation-2: (x*y).a(z) - (y*x).a(z) = a(x)*(y.z) - a(y)*(x.z)
    """
    e, av, (dot, st) = _ctx(a, "dot", "star")
    fams = [
        ("pre-poisson-1", 3,
         lambda i, j, k: vec_sub(
             eval_bilinear(st, eval_bilinear(dot, e[i], e[j]), av[k]),
             eval_bilinear(dot, av[i], eval_bilinear(st, e[j], e[k])))),
        ("pre-poisson-2", 3,
         lambda i, j, k: vec_sub(
             vec_sub(eval_bilinear(dot, eval_bilinear(st, e[i], e[j]), av[k]),
                     eval_bilinear(dot, eval_bilinear(st, e[j], e[i]), av[k])),
             vec_sub(eval_bilinear(st, av[i], eval_bilinear(dot, e[j], e[k])),
                     eval_bilinear(st, av[j], eval_bilinear(dot, e[i], e[k]))))),
    ]
    return run_identity_families(
        a.dim, fams, max_witnesses,
        sub_reports={"comm-hom-assoc": check_comm_hom_assoc(a, max_witnesses),
                     "hom-pre-lie": check_hom_pre_lie(a, max_witnesses)})


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


def check_derivation(a, op_name, d, commuting_with_alpha=True, max_witnesses=32):
    """D is a derivation of the named op; optionally D must commute with alpha."""
    a.require_bound()
    d.require_bound()
    if d.rows != a.dim or d.cols != a.dim:
        raise ValueError("derivation matrix must be dim-square")
    op = a.op(op_name)
    n = a.dim
    e = [basis_vec(n, i) for i in range(n)]
    fams = [
        ("leibniz:%s" % op_name, 2,
         lambda i, j: vec_sub(
             apply_map(d, eval_bilinear(op, e[i], e[j])),
             vec_add(eval_bilinear(op, apply_map(d, e[i]), e[j]),
                     eval_bilinear(op, e[i], apply_map(d, e[j]))))),
    ]
    if commuting_with_alpha:
        alpha = a.alpha
        fams.append((
            "commutes-with-twist", 1,
            lambda i: vec_sub(apply_map(alpha, apply_map(d, e[i])),
                              apply_map(d, apply_map(alpha, e[i])))))
    return run_identity_families(n, fams, max_witnesses)


def check_morphism(a, b, f, op_names=None, max_witnesses=32):
    """f is an algebra morphism a -> b on the named ops and intertwines twists."""
    a.require_bound()
    b.require_bound()
    f.require_bound()
    if f.rows != b.dim or f.cols != a.dim:
        raise ValueError("morphism matrix must be (dim b) x (dim a)")
    names = sorted(set(a.ops) & set(b.ops)) if op_names is None else list(op_names)
    n = a.dim
    e = [basis_vec(n, i) for i in range(n)]
    fams = []
    for name in names:
        op_a, op_b = a.op(name), b.op(name)
        fams.append((
            "morphism:%s" % name, 2,
            lambda i, j, op_a=op_a, op_b=op_b: vec_sub(
                apply_map(f, eval_bilinear(op_a, e[i], e[j])),
                eval_bilinear(op_b, apply_map(f, e[i]), apply_map(f, e[j])))))
    fams.append((
        "intertwines-twists", 1,
        lambda i: vec_sub(apply_map(f, apply_map(a.alpha, e[i])),
                          apply_map(b.alpha, apply_map(f, e[i])))))
    return run_identity_families(n, fams, max_witnesses)


def check_transposed_consequences(a, max_witnesses=32):
    """Derived identities every transposed Hom-Poisson algebra must satisfy.

    cyclic-sum: a(x).{y,z} + a(y).{z,x} + a(z).{x,y} = 0.
    four-variable (only when alpha = id, otherwise skipped with a note):
    {x.z, y.t} + {x.t, y.z} = 2 (z.t).{x,y}.
    """
    e, av, (dot, br) = _ctx(a, "dot", "bracket")
    fams = [
        ("cyclic-sum", 3,
         lambda i, j, k: vec_add(
             eval_bilinear(dot, av[i], eval_bilinear(br, e[j], e[k])),
             vec_add(
                 eval_bilinear(dot, av[j], eval_bilinear(br, e[k], e[i])),
                 eval_bilinear(dot, av[k], eval_bilinear(br, e[i], e[j]))))),
    ]
    notes = []
    if a.alpha.is_identity():
        fams.append((
            "four-variable", 4,
            lambda i, j, k, l: vec_sub(
                vec_add(
                    eval_bilinear(br, eval_bilinear(dot, e[i], e[k]),
                                  eval_bilinear(dot, e[j], e[l])),
                    eval_bilinear(br, eval_bilinear(dot, e[i], e[l]),
                                  eval_bilinear(dot, e[j], e[k]))),
                vec_scale(2, eval_bilinear(dot, eval_bilinear(dot, e[k], e[l]),
                                           eval_bilinear(br, e[i], e[j]))))))
    else:
        notes.append("four-variable identity skipped: twist is not the identity")
    return run_identity_families(a.dim, fams, max_witnesses, notes=notes)


def check_poisson_intersection(a, max_witnesses=32):
    """Both Hom-Poisson and transposed hold iff both mixed products vanish.

    Carries three verdicts as sub-reports: membership in each of the two
    classes, and the annihilation conditions a(x).{y,z} = 0 and
    {x.y, a(z)} = 0.  When the shared relations hold (commutative
    Hom-associative dot and Hom-Lie bracket), joint membership and
    annihilation are equivalent; that biconditional is asserted.
    """
    e, av, (dot, br) = _ctx(a, "dot", "bracket")
    fams = [
        ("dot-bracket-vanishes", 3,
         lambda i, j, k: eval_bilinear(dot, av[i], eval_bilinear(br, e[j], e[k]))),
        ("bracket-dot-vanishes", 3,
         lambda i, j, k: eval_bilinear(br, eval_bilinear(dot, e[i], e[j]), av[k])),
    ]
    annihilation = run_identity_families(a.dim, fams, max_witnesses)
    hp = check_hom_poisson(a, max_witnesses)
    tp = check_transposed_hom_poisson(a, max_witnesses)
    shared = (hp.sub_reports["comm-hom-assoc"].passed
              and hp.sub_reports["hom-lie"].passed)
    notes = ["annihilation: %s" % ("pass" if annihilation.passed else "fail")]
    if shared:
        both = hp.passed and tp.passed
        assert both == annihilation.passed, \
            "intersection biconditional violated on valid shared relations"
        notes.append("biconditional verified under the shared relations")
    else:
        notes.append("shared relations fail; biconditional not applicable")
    return CheckReport(
        checked=annihilation.checked + hp.checked + tp.checked,
        sub_reports={"hom-poisson": hp, "transposed": tp,
                     "annihilation": annihilation},
        notes=tuple(notes))
