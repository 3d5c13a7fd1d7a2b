"""Shared fixture polyhedra and seeded random generators.

Used by both the test suite and the CLI verify-suite command, so the named
checks run on exactly the same inputs everywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .constructible import And, Atom, ConstructibleSet, Not, Or, atom
from .errors import InvariantError
from .exactq import Vec, gauss_solve, vec
from .polyhedron import HPolyhedron, contains, is_empty


def _P(n, rows):
    return HPolyhedron(n, [(tuple(a), Fraction(b)) for a, b in rows])


def _cube(n):
    rows = []
    for j in range(n):
        e = [0] * n
        e[j] = 1
        rows.append((tuple(e), 0))
        rows.append((tuple(-c for c in e), -1))
    return _P(n, rows)


def _simplex(n):
    rows = []
    for j in range(n):
        e = [0] * n
        e[j] = 1
        rows.append((tuple(e), 0))
    rows.append((tuple([-1] * n), -1))
    return _P(n, rows)


def _orthant(n):
    rows = []
    for j in range(n):
        e = [0] * n
        e[j] = 1
        rows.append((tuple(e), 0))
    return _P(n, rows)


def standard_polyhedra() -> list[tuple[str, HPolyhedron]]:
    """The named fixture suite: polytopes up to dimension 4, cones,
    half-spaces, strips, affine subspaces, whole spaces, products, empty."""
    out = [
        ("point0", HPolyhedron.space(0)),
        ("point1", _P(1, [((1,), 0), ((-1,), 0)])),
        ("shifted_point", _P(1, [((2,), 1), ((-2,), -1)])),
        ("segment", _P(1, [((1,), 0), ((-1,), -1)])),
        ("long_segment", _P(1, [((1,), 0), ((-1,), -2)])),
        ("halfline", _P(1, [((1,), 0)])),
        ("shifted_halfline", _P(1, [((1,), 2)])),
        ("line1", HPolyhedron.space(1)),
        ("square", _cube(2)),
        ("triangle", _simplex(2)),
        ("skew_triangle", _P(2, [((1, 0), 0), ((0, 1), 0), ((-2, -3), -6)])),
        ("quadrant", _orthant(2)),
        ("wedge", _P(2, [((1, -1), 0), ((1, 1), 0)])),
        ("shifted_cone", _P(2, [((1, 0), 1), ((0, 1), 2)])),
        ("halfplane", _P(2, [((1, 0), 0)])),
        ("skew_halfplane", _P(2, [((2, -3), Fraction(1, 2))])),
        ("strip", _P(2, [((0, 1), 0), ((0, -1), -1)])),
        ("line_in_plane", _P(2, [((0, 1), 0), ((0, -1), 0)])),
        ("skew_line", _P(2, [((1, -1), 1), ((-1, 1), -1)])),
        ("point_in_plane", _P(2, [((1, 0), 0), ((-1, 0), 0),
                                  ((0, 1), 0), ((0, -1), 0)])),
        ("plane2", HPolyhedron.space(2)),
        ("halfstrip", _P(2, [((0, 1), 0), ((0, -1), -1), ((1, 0), 0)])),
        ("trapezoid", _P(2, [((0, 1), 0), ((0, -1), -1), ((1, 0), 0),
                             ((-1, -1), -3)])),
        ("cube3", _cube(3)),
        ("simplex3", _simplex(3)),
        ("octant", _orthant(3)),
        ("halfspace3", _P(3, [((1, 1, 1), 0)])),
        ("slab3", _P(3, [((0, 0, 1), 0), ((0, 0, -1), -1)])),
        ("prism", _P(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((-1, -1, 0), -1),
                         ((0, 0, 1), 0)])),
        ("square_x_line", _P(3, [((1, 0, 0), 0), ((-1, 0, 0), -1),
                                 ((0, 1, 0), 0), ((0, -1, 0), -1)])),
        ("plane_in_3", _P(3, [((0, 0, 1), 0), ((0, 0, -1), 0)])),
        ("line_in_3", _P(3, [((1, 0, 0), 0), ((-1, 0, 0), 0),
                             ((0, 1, 0), 0), ((0, -1, 0), 0)])),
        ("space3", HPolyhedron.space(3)),
        ("cube4", _cube(4)),
        ("simplex4", _simplex(4)),
        ("space4", HPolyhedron.space(4)),
        ("empty1", _P(1, [((1,), 1), ((-1,), 0)])),
        ("empty2", _P(2, [((1, 1), 2), ((-1, -1), -1)])),
    ]
    return out


def nonempty_standard_polyhedra():
    return [(name, Q) for name, Q in standard_polyhedra() if not is_empty(Q)]


# ---------------------------------------------------------------------------
# seeded random generators


def random_polyhedron(rng: random.Random, ambient: int,
                      max_rows: int = 6) -> HPolyhedron:
    rows = []
    for _ in range(rng.randint(1, max_rows)):
        a = tuple(rng.randint(-2, 2) for _ in range(ambient))
        if all(c == 0 for c in a):
            continue
        b = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2]))
        rows.append((a, b))
    if not rows:
        rows = [(tuple([1] + [0] * (ambient - 1)), Fraction(0))]
    return HPolyhedron(ambient, rows)


def random_atom_pool(rng: random.Random, ambient: int, size: int) -> list[Atom]:
    """Distinct hyperplanes; atoms on them vary in orientation/strictness."""
    seen = set()
    pool = []
    while len(pool) < size:
        a = tuple(rng.randint(-2, 2) for _ in range(ambient))
        if all(c == 0 for c in a):
            continue
        b = Fraction(rng.randint(-2, 2), rng.choice([1, 1, 2]))
        at = atom(a, b, rng.random() < 0.4)
        key = at.a, at.b
        if key in seen:
            continue
        seen.add(key)
        pool.append(at)
    return pool


def random_expr_over(rng: random.Random, pool: list[Atom], budget: int):
    """Expression using every pool atom at least once and at most ``budget``
    atom occurrences in total (clamped to at least the pool size)."""
    leaves = list(pool)
    for _ in range(rng.randint(0, max(0, budget - len(pool)))):
        base = pool[rng.randrange(len(pool))]
        leaves.append(Atom(tuple(-c for c in base.a), -base.b,
                           rng.random() < 0.5) if rng.random() < 0.5 else base)
    rng.shuffle(leaves)
    exprs = [Not(a) if rng.random() < 0.3 else a for a in leaves]
    while len(exprs) > 1:
        i = rng.randrange(len(exprs) - 1)
        a, b = exprs[i], exprs.pop(i + 1)
        r = rng.random()
        if r < 0.45:
            exprs[i] = And((a, b))
        elif r < 0.9:
            exprs[i] = Or((a, b))
        else:
            exprs[i] = And((a, Not(b)))
    return exprs[0]


def random_constructible(rng: random.Random, ambient: int,
                         n_hyperplanes: int, budget: int) -> ConstructibleSet:
    pool = random_atom_pool(rng, ambient, n_hyperplanes)
    return ConstructibleSet(ambient, random_expr_over(rng, pool, budget))


def scissor_pairs(rng: random.Random, count: int):
    """Seeded (C, D) pairs with D ⊆ C, sharing one atom pool per pair so
    all three sets of a scissor check live on the same arrangement.

    Dimensions lean low: 3-dimensional instances are the expensive ones.
    """
    dims = [1] * (count * 6 // 10) + [2] * (count * 3 // 10)
    dims += [3] * (count - len(dims))
    out = []
    for n in dims:
        hp = rng.randint(2, {1: 6, 2: 5, 3: 4}[n])
        pool = random_atom_pool(rng, n, hp)
        budget = min(8, hp + rng.randint(0, 2))
        C = ConstructibleSet(n, random_expr_over(rng, pool, budget))
        R = ConstructibleSet(n, random_expr_over(rng, pool, min(8, hp)))
        out.append((C, C & R))
    return out


def product_pairs(rng: random.Random, count: int):
    """Seeded (C, D) pairs for the product law, with small joint dimension."""
    shapes = [(1, 1)] * (count * 7 // 10) + [(1, 2)] * (count * 25 // 100)
    shapes += [(2, 2)] * (count - len(shapes))
    out = []
    for m, n in shapes:
        C = random_constructible(rng, m, rng.randint(1, 3 if m == 1 else 2),
                                 rng.randint(2, 4))
        D = random_constructible(rng, n, rng.randint(1, 3 if n == 1 else 2),
                                 rng.randint(2, 4))
        out.append((C, D))
    return out


def onedim_pairs(rng: random.Random, count: int):
    """Seeded disjoint pairs of 1-dimensional constructible sets."""
    out = []
    for _ in range(count):
        C = random_constructible(rng, 1, rng.randint(1, 4), rng.randint(2, 6))
        D = random_constructible(rng, 1, rng.randint(1, 4), rng.randint(2, 6))
        out.append((C, D - C))
    return out


def exterior_points(rng: random.Random, P: HPolyhedron,
                    count: int) -> list[Vec]:
    """Deterministic exterior rational points, spread around the rows; empty
    when P has no exterior (P = R^n) or no interior rows to violate."""
    if not P.rows:
        return []
    n = P.ambient
    out = []
    tries = 0
    while len(out) < count and tries < count * 20:
        tries += 1
        a, b = P.rows[tries % len(P.rows)]
        av = vec(a)
        depth = Fraction(rng.randint(1, 5), rng.choice([1, 2]))
        solved = gauss_solve([av], [b - depth], n)
        if solved is None:
            raise InvariantError("a single nonzero row came out inconsistent")
        x, basis = solved
        for v in basis:
            x = tuple(xi + rng.randint(-3, 3) * vi for xi, vi in zip(x, v))
        if not contains(P, x):
            out.append(tuple(x))
    return out
