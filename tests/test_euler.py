import random
from fractions import Fraction as F

from polygroth.constructible import (
    And,
    Atom,
    ConstructibleSet,
    Not,
    Or,
    complex_of,
    eval_point,
    parse_constructible,
    product,
    sign_membership,
)
from polygroth.euler import (
    EulerPair,
    box_clip,
    chi,
    chi_b,
    chi_polyhedron_closed_form,
    euler_pair,
    euler_pair_of_polyhedron,
    gamma_star,
)
from polygroth.polyhedron import HPolyhedron
from polygroth.suites import product_pairs, scissor_pairs


def cs(n, expr):
    return ConstructibleSet(n, expr)


def P(n, rows):
    return HPolyhedron(n, [(tuple(a), F(b)) for a, b in rows])


HALFLINE = cs(1, Atom((1,), F(0)))
OPENHALF = cs(1, Atom((1,), F(0), True))


# -- generator values (the anchor computations) -------------------------------


def test_generator_values():
    assert chi(HALFLINE) == 0
    assert chi_b(HALFLINE) == 1
    assert chi(OPENHALF) == -1
    assert chi_b(OPENHALF) == 0


def test_chi_of_whole_space():
    for n in range(0, 4):
        assert chi(ConstructibleSet.space(n)) == (-1) ** n


def test_chi_halfopen_interval():
    C = parse_constructible("dim 1; x1 >= 0 & x1 < 1")
    assert chi(C) == 0  # cells {0} (+1) and (0,1) (-1)
    assert chi_b(C) == 0


def test_chi_b_punctured_line():
    C = parse_constructible("dim 1; !(x1 = 0)")
    assert chi(C) == -2
    assert chi_b(C) == 0


def test_chi_of_point_and_empty():
    pt = parse_constructible("dim 1; x1 = 0")
    assert euler_pair(pt) == EulerPair(1, 1)
    # flats of positive dimension: chi = (-1)^dim, chi_b = 1
    assert euler_pair(parse_constructible("dim 2; x1 = 0")) == EulerPair(-1, 1)
    assert euler_pair(parse_constructible("dim 3; x1 = 0 & x2 = 1")) == EulerPair(-1, 1)
    for n in range(0, 4):
        assert euler_pair(ConstructibleSet.empty(n)) == EulerPair(0, 0)
        assert euler_pair(ConstructibleSet.space(n)) == EulerPair((-1) ** n, 1)


# -- gamma_star ----------------------------------------------------------------


def test_gamma_star_examples():
    C = parse_constructible("dim 1; x1 >= 0 & x1 < 5")
    assert gamma_star(C) == 6
    D = parse_constructible("dim 2; x1 >= 0 & x2 >= 0 & x1 + x2 <= 3")
    assert gamma_star(D) == 4
    # a single offset line has no arrangement vertices, but the box must
    # still reach it before chi stabilizes
    assert gamma_star(cs(2, Atom((1, 0), F(7)))) == 8


def test_gamma_stability_under_doubling():
    sets = [
        HALFLINE,
        OPENHALF,
        parse_constructible("dim 1; x1 >= 0 & x1 < 1"),
        parse_constructible("dim 2; x1 >= 0 & x2 >= 0"),
        parse_constructible("dim 2; x1 + x2 > 1 | x1 = 0"),
        parse_constructible("dim 2; !(2x1 - x2 >= 1/2)"),
    ]
    for C in sets:
        g = gamma_star(C)
        assert chi(box_clip(C, g)) == chi(box_clip(C, 2 * g))


# -- closed form vs cell oracle -------------------------------------------------


CLOSED_FORM_SUITE = [
    ("empty", P(1, [((1,), 1), ((-1,), 0)])),
    ("point", P(1, [((1,), 0), ((-1,), 0)])),
    ("segment", P(1, [((1,), 0), ((-1,), -1)])),
    ("halfline", P(1, [((1,), 0)])),
    ("line1", HPolyhedron.space(1)),
    ("square", P(2, [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)])),
    ("triangle", P(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), -2)])),
    ("quadrant", P(2, [((1, 0), 0), ((0, 1), 0)])),
    ("halfplane", P(2, [((1, 0), 0)])),
    ("strip", P(2, [((0, 1), 0), ((0, -1), -1)])),
    ("line_in_plane", P(2, [((0, 1), 0), ((0, -1), 0)])),
    ("plane2", HPolyhedron.space(2)),
    ("shifted_cone", P(2, [((1, 0), 1), ((0, 1), 2)])),
    ("wedge", P(2, [((1, -1), 0), ((1, 1), 0)])),
    ("point2d", P(2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)])),
    ("offset_line", P(2, [((0, 1), 3), ((0, -1), -3)])),
    ("simplex3", P(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                       ((-1, -1, -1), -1)])),
    ("octant", P(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)])),
    ("halfspace3", P(3, [((1, 1, 1), 0)])),
    ("slab3", P(3, [((0, 0, 1), 0), ((0, 0, -1), -1)])),
    ("plane_in_3", P(3, [((0, 0, 1), 0), ((0, 0, -1), 0)])),
    ("line_in_3", P(3, [((1, 0, 0), 0), ((-1, 0, 0), 0), ((0, 1, 0), 0),
                        ((0, -1, 0), 0)])),
    ("space3", HPolyhedron.space(3)),
    ("cube3", P(3, [((1, 0, 0), 0), ((-1, 0, 0), -1), ((0, 1, 0), 0),
                    ((0, -1, 0), -1), ((0, 0, 1), 0), ((0, 0, -1), -1)])),
    ("prism", P(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((-1, -1, 0), -1),
                    ((0, 0, 1), 0)])),
    ("point0", HPolyhedron.space(0)),
]


def test_closed_form_suite_size_and_agreement():
    assert len(CLOSED_FORM_SUITE) >= 25
    for name, Q in CLOSED_FORM_SUITE:
        closed = chi_polyhedron_closed_form(Q)
        oracle = euler_pair_of_polyhedron(Q)
        assert closed == oracle, name


def test_closed_form_branches():
    assert chi_polyhedron_closed_form(HPolyhedron.space(2)) == EulerPair(1, 1)
    assert chi_polyhedron_closed_form(HPolyhedron.space(3)) == EulerPair(-1, 1)
    halfplane = P(2, [((1, 0), 0)])
    assert chi_polyhedron_closed_form(halfplane) == EulerPair(0, 1)
    line = P(2, [((0, 1), 0), ((0, -1), 0)])
    # the deliberate deviation case: a line gets chi = -1, not 0
    assert chi_polyhedron_closed_form(line) == EulerPair(-1, 1)


# -- ring morphism laws ---------------------------------------------------------


def test_chi_multiplicative_on_products():
    rng = random.Random(13)
    pool1 = [Atom((1,), F(0)), Atom((1,), F(1), True), Atom((-1,), F(0))]
    pool2 = [Atom((1,), F(0)), Atom((-1,), F(-2), True)]

    def rand_expr(pool, depth=0):
        r = rng.random()
        if depth > 1 or r < 0.5:
            return pool[rng.randrange(len(pool))]
        if r < 0.7:
            return And((rand_expr(pool, depth + 1), rand_expr(pool, depth + 1)))
        if r < 0.9:
            return Or((rand_expr(pool, depth + 1), rand_expr(pool, depth + 1)))
        return Not(rand_expr(pool, depth + 1))

    for _ in range(12):
        C = cs(1, rand_expr(pool1))
        D = cs(1, rand_expr(pool2))
        CD = product(C, D)
        assert chi(CD) == chi(C) * chi(D)
        assert chi_b(CD) == chi_b(C) * chi_b(D)


def test_scissor_additivity_small():
    rng = random.Random(17)
    pool = [Atom((1,), F(0)), Atom((1,), F(1), True), Atom((-1,), F(-2)),
            Atom((1,), F(-1), True)]

    def rand_expr(depth=0):
        r = rng.random()
        if depth > 2 or r < 0.45:
            return pool[rng.randrange(len(pool))]
        if r < 0.65:
            return And((rand_expr(depth + 1), rand_expr(depth + 1)))
        if r < 0.85:
            return Or((rand_expr(depth + 1), rand_expr(depth + 1)))
        return Not(rand_expr(depth + 1))

    for _ in range(25):
        C = cs(1, rand_expr())
        D = C & cs(1, rand_expr())  # D is a subset of C
        rest = C - D
        assert chi(C) == chi(D) + chi(rest)
        assert chi_b(C) == chi_b(D) + chi_b(rest)


# -- the per-cell pass against its oracles ------------------------------------


def _oracle_slice():
    """About 150 seeded sets: scissor triples and products, dims 1-4."""
    rng = random.Random(20240611)
    sets = []
    for C, D in scissor_pairs(rng, 40):
        sets += [C, D, C - D]
    sets += [product(C, D) for C, D in product_pairs(rng, 30)]
    return sets


def test_chi_b_matches_boxed_oracle():
    for C in _oracle_slice():
        assert chi_b(C) == chi(box_clip(C, gamma_star(C))), C


def test_sign_membership_matches_eval_point():
    for C in _oracle_slice():
        cc = complex_of(C)
        member = sign_membership(C, cc.hyperplanes)
        for cell in cc.cells:
            assert member(cell.signs) == eval_point(C, cell.witness), (C, cell)

