"""Seeded, stratified input generators for the three workloads.

Pure Python over ``fractions``: nothing here imports ``polygroth``, so every
expected answer and exit code the oracles use comes from construction, not
from the program under test.

A workload is a fixed cycle of strata (a stratum is one input shape, such
as "dimension 2, 6 hyperplanes").  Op ``i`` belongs to stratum
``i`` modulo the workload's cycle and draws its input from its own RNG,
seeded by (workload, seed, i).  So the seed changes the draws but never the
mix, and any prefix of the op stream holds the strata in fixed proportions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

# ---------------------------------------------------------------------------
# small exact helpers, independent of polygroth


def primitive(a):
    g = 0
    for c in a:
        g = gcd(g, abs(c))
    return tuple(c // g for c in a), g


def hyperplane_key(a, b):
    """{x : a·x = b} with a primitive normal whose first nonzero entry is
    positive: one key per hyperplane, whatever the orientation."""
    p, g = primitive(a)
    b = Fraction(b) / g
    if next(c for c in p if c != 0) < 0:
        p, b = tuple(-c for c in p), -b
    return p, b


def dot(a, x):
    return sum(Fraction(c) * v for c, v in zip(a, x))


def rank(rows, n):
    """Rank of an integer or rational matrix with n columns."""
    m = [[Fraction(c) for c in r] for r in rows]
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col] / m[r][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def fmt_rat(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _rand_rat(rng, lo, hi, dens=(1, 1, 2)):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def _rand_normal(rng, n, span=2):
    while True:
        a = tuple(rng.randint(-span, span) for _ in range(n))
        if any(a):
            return primitive(a)[0]


# ---------------------------------------------------------------------------
# Boolean expressions over half-space atoms
#
# A tree is ("atom", a, b, strict) for a·x >= b (> b when strict), or
# ("and", l, r), ("or", l, r), ("not", e).


def atom_pool(rng, n, size):
    """``size`` atoms on pairwise distinct hyperplanes; orientation and
    strictness vary."""
    seen = set()
    pool = []
    while len(pool) < size:
        a = _rand_normal(rng, n)
        b = _rand_rat(rng, -2, 2)
        key = hyperplane_key(a, b)
        if key in seen:
            continue
        seen.add(key)
        pool.append(("atom", a, b, rng.random() < 0.4))
    return pool


def expr_over(rng, pool, budget):
    """Random tree using every pool atom at least once and up to ``budget``
    atom occurrences in all."""
    leaves = list(pool)
    for _ in range(rng.randint(0, max(0, budget - len(pool)))):
        _, a, b, strict = pool[rng.randrange(len(pool))]
        if rng.random() < 0.5:
            leaves.append(("atom", tuple(-c for c in a), -b, rng.random() < 0.5))
        else:
            leaves.append(("atom", a, b, strict))
    rng.shuffle(leaves)
    exprs = [("not", e) if rng.random() < 0.3 else e for e in leaves]
    while len(exprs) > 1:
        i = rng.randrange(len(exprs) - 1)
        left, right = exprs[i], exprs.pop(i + 1)
        r = rng.random()
        if r < 0.45:
            exprs[i] = ("and", left, right)
        elif r < 0.9:
            exprs[i] = ("or", left, right)
        else:
            exprs[i] = ("and", left, ("not", right))
    return exprs[0]


def atoms(tree):
    if tree[0] == "atom":
        yield tree
    elif tree[0] == "not":
        yield from atoms(tree[1])
    else:
        yield from atoms(tree[1])
        yield from atoms(tree[2])


def hyperplanes(tree):
    return sorted({hyperplane_key(t[1], t[2]) for t in atoms(tree)})


def member(tree, x):
    """Exact membership of the rational point x."""
    kind = tree[0]
    if kind == "atom":
        v = dot(tree[1], x)
        return v > tree[2] if tree[3] else v >= tree[2]
    if kind == "not":
        return not member(tree[1], x)
    if kind == "and":
        return member(tree[1], x) and member(tree[2], x)
    return member(tree[1], x) or member(tree[2], x)


def _linear_text(a):
    terms = []
    for i, c in enumerate(a):
        if c == 0:
            continue
        body = f"x{i + 1}" if abs(c) == 1 else f"{abs(c)}x{i + 1}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms)


def render(tree):
    """The expression in the CLI's constructible-set syntax, fully
    parenthesised so no precedence rule is relied on."""
    kind = tree[0]
    if kind == "atom":
        return f"{_linear_text(tree[1])} {'>' if tree[3] else '>='} {fmt_rat(tree[2])}"
    if kind == "not":
        return f"!({render(tree[1])})"
    op = " & " if kind == "and" else " | "
    return f"({render(tree[1])}{op}{render(tree[2])})"


def _val_side(exps, t_exp):
    factors = []
    if t_exp != 0:
        factors.append(f"t^{fmt_rat(t_exp)}" if t_exp != 1 else "t")
    for i, e in enumerate(exps):
        if e:
            factors.append(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}")
    return f"val({' * '.join(factors)})"


def render_valuation(tree):
    """The same tree in the motivic DSL over valuation coordinates w:
    a·w >= b is written val(x^alpha) >= val(t^b * x^beta) with
    alpha - beta = a and x^alpha the product of x_i^alpha_i."""
    kind = tree[0]
    if kind == "atom":
        a, b, strict = tree[1], tree[2], tree[3]
        alpha = [c if c > 0 else 0 for c in a]
        beta = [-c if c < 0 else 0 for c in a]
        op = ">" if strict else ">="
        if not any(beta):
            return f"{_val_side(alpha, 0)} {op} {fmt_rat(b)}"
        if not any(alpha):  # -beta·w >= b  is  val(x^beta) <= -b
            return f"{_val_side(beta, 0)} {'<' if strict else '<='} {fmt_rat(-b)}"
        if b < 0:  # the DSL takes no negative exponent: move t across
            return f"{_val_side(alpha, -b)} {op} {_val_side(beta, 0)}"
        return f"{_val_side(alpha, 0)} {op} {_val_side(beta, b)}"
    if kind == "not":
        return f"!({render_valuation(tree[1])})"
    op = " & " if kind == "and" else " | "
    return f"({render_valuation(tree[1])}{op}{render_valuation(tree[2])})"


# ---------------------------------------------------------------------------
# polyhedra, nonempty by construction


def _project_off(v, basis):
    """v minus its projection on the span of the orthogonal ``basis``."""
    w = [Fraction(c) for c in v]
    for u in basis:
        f = dot(w, u) / dot(u, u)
        w = [x - f * y for x, y in zip(w, u)]
    return w


def _integral(v):
    den = 1
    for c in v:
        den = den * c.denominator // gcd(den, c.denominator)
    return primitive(tuple(int(c * den) for c in v))[0]


def polyhedron_rows(rng, n, shape, ell, point, tight_share=0.0):
    """Rows a·x >= b of a polyhedron of fixed combinatorial type that all
    hold at ``point``.

    The n - ell normals are random, independent and orthogonal to a random
    ell-dimensional subspace, which becomes the lineality space.  ``shape``
    picks the rows built from them: "simplex" adds the negative of a
    positive combination, "box" every negated normal and "cone" nothing.
    Every row has positive slack at the point, so every row is a facet,
    unless ``tight_share`` makes some rows pass through it.
    """
    lineality = []  # an orthogonal basis of the lineality space
    while len(lineality) < ell:
        d = _project_off(_rand_normal(rng, n), lineality)
        if any(d):
            lineality.append(d)
    normals = []
    while len(normals) < n - ell:
        w = _project_off(_rand_normal(rng, n), lineality)
        if any(w) and rank(normals + [w], n) == len(normals) + 1:
            normals.append(_integral(w))

    def closing(vs):
        coef = [rng.randint(1, 2) for _ in vs]
        return primitive(tuple(-sum(c * v[j] for c, v in zip(coef, vs))
                               for j in range(n)))[0]

    if shape == "simplex":
        rows = normals + [closing(normals)]
    elif shape == "box":
        rows = normals + [tuple(-c for c in a) for a in normals]
    else:
        rows = normals
    out = []
    for a in rows:
        slack = Fraction(0) if rng.random() < tight_share else _rand_rat(rng, 1, 4)
        out.append((a, dot(a, point) - slack))
    rng.shuffle(out)
    return out


def exterior_point(rng, rows, point):
    """A rational point violating one row: step from ``point`` against that
    row's normal past the row, then move parallel to the row."""
    a, b = rows[rng.randrange(len(rows))]
    aa = dot(a, a)
    slack = dot(a, point) - b
    t = slack / aa + Fraction(rng.randint(1, 4), rng.choice((1, 2)) * aa)
    x = [p - t * c for p, c in zip(point, a)]
    v = [rng.randint(-2, 2) for _ in a]
    s = dot(a, v) / aa
    return tuple(xi + vi - s * ai for xi, vi, ai in zip(x, v, a))


def _point(rng, n):
    return tuple(_rand_rat(rng, -2, 2) for _ in range(n))


# ---------------------------------------------------------------------------
# workloads


def _scissor(rng, n, h):
    pool = atom_pool(rng, n, h)
    c = expr_over(rng, pool, min(8, h + rng.randint(0, 2)))
    r = expr_over(rng, pool, h)
    return {"kind": "scissor", "n": n, "C": c, "D": ("and", c, r)}


def _polytope(rng, n, shape, ell, views):
    p = _point(rng, n)
    rows = polyhedron_rows(rng, n, shape, ell, p)
    ell = n - rank([a for a, _ in rows], n)
    return {"kind": "polytope", "n": n, "rows": rows, "ell": ell,
            "views": [exterior_point(rng, rows, p) for _ in range(views)]}


# scissor: (dimension, hyperplanes).  The three sets of a triple share one
# arrangement.  A quarter of the ops are in dimension 1, one in 16 in
# dimension 3 (with 3, 4 and 5 hyperplanes in turn: 0.3-1 s a triple) and
# the rest in dimension 2, so the median op lies inside the (2, 4) block and
# the 90th percentile inside the (2, 6) block rather than on a boundary
# between strata.
_SCISSOR_ROUND = [(2, 4), (1, 3), (2, 5), (2, 6), (2, 3), (1, 5), (2, 6),
                  (2, 4), (2, 4), (1, 4), (2, 5), (2, 3), (1, 6), (2, 6),
                  (3, 3), (2, 4)]
_SCISSOR_CYCLE = [(3, h) if n == 3 else (n, m)
                  for h in (3, 4, 5) for n, m in _SCISSOR_ROUND]

# polytope: (dimension, shape, lineality), shapes as in polyhedron_rows.
# Fixed combinatorial types keep the cost of a stratum steady across draws.
# A third of the ops are 2-dimensional cones and slabs (about 0.02 s), half
# are 0.1-0.16 s sets in dimensions 2-4, then come cylinders over
# parallelograms (0.2 s) and, once per 24 ops, a tetrahedron (0.75 s), so
# the median lies inside the middle block and the 90th percentile inside
# the cylinders.  A 4-simplex costs 1-3 s per op and is left out.
_POLYTOPE_CYCLE = [(2, "simplex", 0), (2, "cone", 0), (3, "cone", 0),
                   (3, "box", 1), (4, "cone", 1), (2, "box", 1),
                   (2, "box", 0), (2, "cone", 0), (3, "simplex", 1),
                   (4, "simplex", 2), (2, "box", 1), (3, "box", 1),
                   (3, "cone", 0), (2, "cone", 0), (2, "simplex", 0),
                   (4, "cone", 1), (2, "box", 1), (3, "simplex", 0),
                   (2, "box", 0), (2, "cone", 0), (3, "simplex", 1),
                   (4, "simplex", 2), (2, "box", 1), (3, "box", 1)]
POLYTOPE_VIEWS = 3


def scissor_op(seed, i):
    n, h = _SCISSOR_CYCLE[i % len(_SCISSOR_CYCLE)]
    return _scissor(random.Random(f"scissor:{seed}:{i}"), n, h)


def polytope_op(seed, i):
    n, shape, ell = _POLYTOPE_CYCLE[i % len(_POLYTOPE_CYCLE)]
    return _polytope(random.Random(f"polytope:{seed}:{i}"), n, shape, ell,
                     POLYTOPE_VIEWS)


# cli: one cycle is the ten compute subcommands, once as text and once with
# --json, plus six malformed calls.  (subcommand, json, dimension, size):
# size is hyperplanes for expressions, atoms for the valuation DSL and the
# shape (see polyhedron_rows) for polyhedra.
_CLI_VALID = [("chi", False, 1, 3), ("faces", True, 3, "simplex"),
              ("motivic", False, 1, 2), ("cells", True, 3, 3),
              ("class", False, 2, 2), ("recession", False, 3, "cone"),
              ("chi-gamma", True, 1, 4), ("tangent", False, 2, "box"),
              ("ungraded", True, 2, 3), ("bg", False, 2, "simplex"),
              ("chi", True, 2, 4), ("faces", False, 2, "box"),
              ("motivic", True, 2, 3), ("cells", False, 2, 4),
              ("class", True, 1, 4), ("recession", True, 2, "cone"),
              ("chi-gamma", False, 1, 3), ("tangent", True, 3, "simplex"),
              ("ungraded", False, 1, 2), ("bg", True, 1, "box")]
_CLI_MALFORMED = ["decimal", "variable", "no_input", "gamma_dim", "cap_hyperplanes",
                  "cap_dim", "empty_faces", "point_outside", "non_monomial",
                  "rational_coefficient", "missing_gamma", "ragged_rows"]
_CLI_CYCLE = []
for _k, _slot in enumerate(_CLI_VALID):
    _CLI_CYCLE.append(_slot)
    if _k % 10 in (2, 5, 8):  # six malformed slots per 20 valid ones
        _CLI_CYCLE.append(None)
GAMMAS = ["div", "1", "1/2", "2", "1/3"]


def polyhedron_text(rows):
    return "\n".join(f"{' '.join(str(c) for c in a)} >= {fmt_rat(b)}"
                      for a, b in rows)


def _expr_input(rng, n, h):
    tree = expr_over(rng, atom_pool(rng, n, h), h + rng.randint(0, 2))
    return tree, f"dim {n}; {render(tree)}"


def _cli_valid(rng, cmd, n, size):
    op = {"kind": "cli", "cmd": cmd, "n": n, "expect": 0}
    if cmd in ("chi", "class", "ungraded", "cells", "chi-gamma"):
        op["tree"], text = _expr_input(rng, n, size)
        argv = [cmd, "-e", text]
        if cmd == "chi-gamma":
            op["gamma"] = rng.choice(GAMMAS)
            argv += ["--gamma", op["gamma"]]
    elif cmd == "motivic":
        op["tree"] = expr_over(rng, atom_pool(rng, n, size), size + 1)
        op["points"] = rng.randint(0, 2)
        text = f"torus {n}; {render_valuation(op['tree'])};" + " point;" * op["points"]
        argv = [cmd, "-e", text]
    else:
        p = _point(rng, n)
        ell = rng.randint(0, 1) if cmd == "recession" else 0
        rows = polyhedron_rows(rng, n, size, ell, p,
                               tight_share=0.5 if cmd == "tangent" else 0)
        op.update(rows=rows, point=p, ell=n - rank([a for a, _ in rows], n))
        argv = [cmd, "-e", polyhedron_text(rows)]
        if cmd == "tangent":
            argv.append("--point=" + ",".join(fmt_rat(c) for c in p))
    return op, argv


def _cli_malformed(rng, which):
    """A call from one of the README's error classes: parse and usage errors
    exit 2, resource caps exit 3."""
    op = {"kind": "cli", "cmd": which, "expect": 2}
    n = rng.randint(1, 2)
    _, text = _expr_input(rng, n, 2)
    if which == "decimal":
        argv = ["chi", "-e", text + f" & x1 >= {rng.randint(0, 9)}.5"]
    elif which == "variable":
        argv = ["class", "-e", text + f" | x{n + 1} >= 0"]
    elif which == "no_input":
        argv = ["ungraded", "--json"]
    elif which == "gamma_dim":
        argv = ["chi-gamma", "--gamma", "div", "-e", _expr_input(rng, 2, 2)[1]]
    elif which == "cap_hyperplanes":
        argv = ["cells", "--max-hyperplanes", "1", "-e", text]
        op["expect"] = 3
    elif which == "cap_dim":
        argv = ["chi", "--max-dim", "1", "-e", _expr_input(rng, 2, 2)[1]]
        op["expect"] = 3
    elif which == "empty_faces":
        a = _rand_normal(rng, n)
        b = _rand_rat(rng, -2, 2)
        rows = [(a, b), (tuple(-c for c in a), -b + rng.randint(1, 3))]
        argv = ["faces", "-e", polyhedron_text(rows)]
    elif which == "point_outside":
        p = _point(rng, n)
        rows = polyhedron_rows(rng, n, "simplex", 0, p)
        x = exterior_point(rng, rows, p)
        argv = ["tangent", "--point=" + ",".join(fmt_rat(c) for c in x),
                "-e", polyhedron_text(rows)]
    elif which == "non_monomial":
        argv = ["motivic", "-e", f"torus 2; val(x1 + x{rng.randint(1, 2)}) >= 0;"]
    elif which == "rational_coefficient":
        argv = ["recession", "-e", f"1/{rng.randint(2, 5)} 1 >= 0\n0 1 >= 0"]
    elif which == "missing_gamma":
        argv = ["chi-gamma", "-e", _expr_input(rng, 1, 2)[1]]
    else:  # ragged_rows
        argv = ["bg", "-e", f"1 0 >= {rng.randint(-3, 3)}\n1 >= 0"]
    return op, argv


def cli_op(seed, i):
    rng = random.Random(f"cli:{seed}:{i}")
    cycle, pos = divmod(i, len(_CLI_CYCLE))
    slot = _CLI_CYCLE[pos]
    if slot is None:
        k = _CLI_CYCLE[:pos].count(None)
        which = _CLI_MALFORMED[(cycle * 6 + k) % len(_CLI_MALFORMED)]
        op, argv = _cli_malformed(rng, which)
    else:
        cmd, as_json, n, size = slot
        op, argv = _cli_valid(rng, cmd, n, size)
        if as_json:
            argv.append("--json")
    op["json"] = "--json" in argv
    op["argv"] = argv
    return op


OPS = {"scissor": scissor_op, "polytope": polytope_op, "cli": cli_op}
