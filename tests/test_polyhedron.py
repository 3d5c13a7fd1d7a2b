import itertools
import random
from fractions import Fraction as F

import pytest

from polygroth.errors import DomainError, ParseError, ResourceError
from polygroth.exactq import dot, lp_feasible, vec
from polygroth.polyhedron import (
    HPolyhedron,
    canonical,
    cone_subset,
    contains,
    dim,
    faces,
    format_polyhedron,
    implied_equalities,
    intersect,
    irredundant,
    is_empty,
    is_relatively_bounded,
    is_visible,
    minimal_face_point,
    parse_polyhedron,
    recession,
    tangent_cone,
)


def poly(n, *rows):
    return HPolyhedron(n, [(tuple(a), F(b)) for *a_, (a, b) in [(None, r) for r in rows]])


def P(n, rows):
    return HPolyhedron(n, [(tuple(a), F(b)) for a, b in rows])


SEGMENT = P(1, [((1,), 0), ((-1,), -1)])                     # [0, 1]
SQUARE = P(2, [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)])
QUADRANT = P(2, [((1, 0), 0), ((0, 1), 0)])
STRIP = P(2, [((0, 1), 0), ((0, -1), -1)])                   # R x [0,1]
LINE = P(2, [((0, 1), 0), ((0, -1), 0)])                     # x-axis in R^2
EMPTY1 = P(1, [((1,), 1), ((-1,), 0)])


# -- basic predicates --------------------------------------------------------


def test_is_empty():
    assert is_empty(EMPTY1)
    assert not is_empty(SQUARE)
    assert not is_empty(HPolyhedron.space(3))


def test_dim_examples():
    assert dim(SQUARE) == 2
    assert dim(P(2, [((1, 0), 0), ((-1, 0), 0)])) == 1  # the y-axis
    assert dim(HPolyhedron.space(4)) == 4
    with pytest.raises(DomainError):
        dim(EMPTY1)


def test_contains():
    assert contains(SEGMENT, [F(1, 2)])
    assert contains(SEGMENT, [0])
    assert not contains(SEGMENT, [2])


def test_caps():
    with pytest.raises(ResourceError):
        HPolyhedron(7, [])
    with pytest.raises(ResourceError):
        HPolyhedron(1, [((1,), F(k)) for k in range(41)])


# -- irredundant -------------------------------------------------------------


def test_irredundant_dominated():
    Q = irredundant(P(1, [((1,), 0), ((1,), -1)]))
    assert Q.rows == (((1,), F(0)),)


def test_irredundant_keeps_equality_pair():
    Q = irredundant(P(1, [((1,), 0), ((-1,), 0), ((1,), -5)]))
    assert sorted(Q.rows) == [((-1,), F(0)), ((1,), F(0))]


def test_irredundant_duplicated_side():
    Q = irredundant(P(2, SQUARE.rows + (((1, 0), F(0)),)))
    assert len(Q.rows) == 4
    assert set(Q.rows) == set(SQUARE.rows)


def test_implied_equalities():
    assert implied_equalities(LINE) == {0, 1}
    assert implied_equalities(SQUARE) == frozenset()


# -- faces -------------------------------------------------------------------


def brute_force_faces(Q):
    """Oracle: enumerate all tight subsets, keep nonempty ones, dedupe on the
    set of rows tight on the whole candidate face."""
    n, rows = Q.ambient, Q.rows
    seen = set()
    for mask in itertools.product([0, 1], repeat=len(rows)):
        cons = []
        for flag, (a, b) in zip(mask, rows):
            cons.append((vec(a), b))
            if flag:
                cons.append((vec([-c for c in a]), -b))
        pt = lp_feasible(cons, n)
        if pt is None:
            continue
        # canonical tight set: rows tight everywhere on this candidate face
        tight = []
        for i, (a, b) in enumerate(rows):
            from polygroth.exactq import lp_optimize
            res = lp_optimize(cons, vec(a), "max")
            if res.status == "optimum" and res.value == b:
                tight.append(i)
        seen.add(frozenset(tight))
    return seen


def test_faces_segment():
    fs = faces(SEGMENT)
    assert len(fs) == 3
    assert sorted(f.dim for f in fs) == [0, 0, 1]


def test_faces_square_against_bruteforce():
    fs = faces(SQUARE)
    assert len(fs) == 9
    assert sorted(f.dim for f in fs) == [0, 0, 0, 0, 1, 1, 1, 1, 2]
    assert {f.tight for f in fs} == brute_force_faces(irredundant(SQUARE))


def test_faces_whole_space():
    fs = faces(HPolyhedron.space(3))
    assert len(fs) == 1
    assert fs[0].dim == 3 and fs[0].tight == frozenset()


def test_faces_witness_in_relative_interior():
    for Q in (SQUARE, QUADRANT, STRIP, LINE):
        for f in faces(Q):
            for i, (a, b) in enumerate(f.parent.rows):
                val = dot(vec(a), f.witness)
                if i in f.tight:
                    assert val == b
                else:
                    assert val > b


def test_faces_euler_relation_bounded():
    # alternating sum over all nonempty faces of a bounded polyhedron is 1
    simplex3 = P(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                     ((-1, -1, -1), -1)])
    for Q in (SEGMENT, SQUARE, simplex3):
        total = sum((-1) ** f.dim for f in faces(Q))
        assert total == 1


def test_faces_degenerate_pyramid_apex():
    # square pyramid: 4 planes meet at the apex (degenerate vertex)
    pyr = P(3, [((0, 0, 1), 0),
                ((1, 0, 1), 0), ((-1, 0, 1), -1), ((0, 1, 1), 0), ((0, -1, 1), -1)])
    # scaled so the apex is at (1/2, 1/2, ...) -- use symmetric version instead
    pyr = P(3, [((0, 0, 1), 0),
                ((1, 0, 1), 0), ((-1, 0, 1), 0), ((0, 1, 1), 0), ((0, -1, 1), 0)])
    fs = faces(pyr)
    # 5 vertices? apex + nothing else bounded... count faces by brute force
    assert {f.tight for f in fs} == brute_force_faces(irredundant(pyr))


# -- recession / lineality ---------------------------------------------------


def test_recession_bounded():
    rd = recession(SQUARE)
    assert rd.ell == 0
    assert is_empty(intersect(rd.rec, P(2, [((1, 1), 1)])))  # rec = {0}


def test_recession_cone_is_itself():
    cone = P(2, [((-1, 1), 0), ((1, 1), 0)])  # y >= |x|
    rd = recession(cone)
    assert rd.rec == irredundant(cone)
    assert rd.ell == 0


def test_recession_strip():
    rd = recession(STRIP)
    assert rd.ell == 1
    (u,) = rd.lin_basis
    assert u[1] == 0 and u[0] != 0


def test_recession_space():
    rd = recession(HPolyhedron.space(2))
    assert rd.ell == 2 and rd.rec.rows == ()


# -- relative boundedness ----------------------------------------------------


def test_relatively_bounded_quadrant():
    fs = faces(QUADRANT)
    by_dim = {}
    for f in fs:
        by_dim.setdefault(f.dim, []).append(f)
    assert [is_relatively_bounded(QUADRANT, f) for f in by_dim[0]] == [True]
    assert all(not is_relatively_bounded(QUADRANT, f) for f in by_dim[1])
    assert not is_relatively_bounded(QUADRANT, by_dim[2][0])


def test_relatively_bounded_strip_facet():
    fs = [f for f in faces(STRIP) if f.dim == 1]
    assert fs and all(is_relatively_bounded(STRIP, f) for f in fs)


def test_relatively_bounded_all_faces_of_polytope():
    for f in faces(SQUARE):
        assert is_relatively_bounded(SQUARE, f)


# -- tangent cones -----------------------------------------------------------


def test_tangent_cone_segment():
    fs = faces(SEGMENT)
    v0 = next(f for f in fs if f.dim == 0 and f.witness == (F(0),))
    v1 = next(f for f in fs if f.dim == 0 and f.witness == (F(1),))
    top = next(f for f in fs if f.dim == 1)
    assert tangent_cone(SEGMENT, v0) == P(1, [((1,), 0)])
    assert tangent_cone(SEGMENT, v1) == P(1, [((-1,), -1)])
    assert tangent_cone(SEGMENT, top) == HPolyhedron.space(1)


def test_tangent_cone_square_vertex():
    fs = faces(SQUARE)
    origin = next(f for f in fs if f.witness == (F(0), F(0)))
    tc = tangent_cone(SQUARE, origin)
    assert set(tc.rows) == {((1, 0), F(0)), ((0, 1), F(0))}


def test_tangent_cone_contains_parent():
    # T_F P is cut out by a subset of the parent's rows, so it contains P;
    # it equals P exactly when every irredundant row is tight on F
    for Q in (SEGMENT, SQUARE, QUADRANT, STRIP, LINE):
        for f in faces(Q):
            tc = tangent_cone(Q, f)
            assert set(tc.rows) <= set(f.parent.rows)
            if len(f.tight) == len(f.parent.rows):
                assert set(tc.rows) == set(f.parent.rows)


def test_tangent_cone_is_its_own_irredundant_description():
    # tangent_cone enters the irredundant cache without an LP; the LP filter,
    # run on the same rows in reverse order (a different cache key), agrees
    from polygroth.suites import nonempty_standard_polyhedra
    for name, Q in nonempty_standard_polyhedra():
        if Q.ambient > 3:
            continue
        for f in faces(irredundant(Q)):
            tc = tangent_cone(Q, f)
            reordered = HPolyhedron(tc.ambient, tc.rows[::-1])
            if len(tc.rows) > 1:
                assert irredundant(reordered) == tc, (name, f.tight)


def test_tangent_cone_recession_grows():
    for Q in (SQUARE, QUADRANT, STRIP):
        rp = recession(Q).rec
        for f in faces(Q):
            tc = tangent_cone(Q, f)
            rt = recession(tc).rec if tc.rows else HPolyhedron.space(Q.ambient)
            assert cone_subset(rp, rt)


# -- visibility --------------------------------------------------------------


def test_visibility_segment():
    fs = faces(SEGMENT)
    v0 = next(f for f in fs if f.witness == (F(0),))
    v1 = next(f for f in fs if f.witness == (F(1),))
    assert is_visible(SEGMENT, v0, [-1])
    assert not is_visible(SEGMENT, v1, [-1])
    with pytest.raises(DomainError):
        is_visible(SEGMENT, v0, [F(1, 2)])


def test_visibility_square_corners():
    fs = faces(SQUARE)
    c00 = next(f for f in fs if f.witness == (F(0), F(0)))
    c11 = next(f for f in fs if f.witness == (F(1), F(1)))
    x = [-1, -1]
    assert is_visible(SQUARE, c00, x)
    assert not is_visible(SQUARE, c11, x)


def segment_hits_only_endpoint(Q, x, w):
    """Oracle: the closed segment from x to w meets Q only at w.

    Parametrize p(t) = x + t(w-x); each row gives an exact t-interval; the
    intersection with [0,1] must be the single point {1}.
    """
    lo, hi = F(0), F(1)
    for a, b in Q.rows:
        av = vec(a)
        alpha = dot(av, vec(x))
        beta = dot(av, vec(w)) - alpha
        # alpha + t*beta >= b
        if beta == 0:
            if alpha < b:
                return True  # segment misses Q entirely except... w in Q => impossible
        elif beta > 0:
            lo = max(lo, (b - alpha) / beta)
        else:
            hi = min(hi, (b - alpha) / beta)
    return lo == 1 and hi == 1


def test_visibility_matches_segment_oracle():
    rng = random.Random(19)
    suite = [SEGMENT, SQUARE, QUADRANT, STRIP]
    checked = 0
    while checked < 200:
        Q = suite[rng.randrange(len(suite))]
        x = vec([F(rng.randint(-40, 40), rng.randint(1, 5)) for _ in range(Q.ambient)])
        if contains(Q, x):
            continue
        for f in faces(Q):
            assert is_visible(Q, f, x) == segment_hits_only_endpoint(
                irredundant(Q), x, f.witness)
        checked += 1


# -- minimal face point ------------------------------------------------------


def test_minimal_face_point_examples():
    assert minimal_face_point(P(1, [((1,), 2)])) == (F(2),)
    assert minimal_face_point(HPolyhedron.space(3)) == (0, 0, 0)
    pt = minimal_face_point(P(2, [((0, 1), 1)]))
    assert pt == (F(0), F(1))


def test_minimal_face_point_square_is_a_vertex():
    pt = minimal_face_point(SQUARE)
    assert pt in [(F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))]
    assert minimal_face_point(SQUARE) == pt  # deterministic


def test_minimal_face_point_bounded_tangent_cone():
    # for a bounded polyhedron, T_(vertex)P has that vertex as minimal face
    for f in faces(SQUARE):
        if f.dim == 0:
            tc = tangent_cone(SQUARE, f)
            assert minimal_face_point(tc) == f.witness


# -- canonical / intersect ---------------------------------------------------


def test_canonical_merges_descriptions():
    A = P(1, [((1,), 0), ((1,), -3)])
    B = P(1, [((1,), 0)])
    assert canonical(A) == canonical(B)


def test_intersect():
    R = intersect(P(1, [((1,), 0)]), P(1, [((-1,), -1)]))
    assert contains(R, [F(1, 2)]) and not contains(R, [2])


# -- text format -------------------------------------------------------------


def test_parse_format_roundtrip():
    text = "1 0 >= 0\n-1 0 >= -1\n0 1 >= 0\n0 -1 >= -1"
    Q = parse_polyhedron(text)
    assert Q == SQUARE
    assert parse_polyhedron(format_polyhedron(Q)) == Q


def test_parse_comments_and_blanks():
    Q = parse_polyhedron("# the half-line\n\n1 >= 0\n")
    assert Q == P(1, [((1,), 0)])


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_polyhedron("1 2 3\n")
    with pytest.raises(ParseError):
        parse_polyhedron("1/2 >= 0\n")
    with pytest.raises(ParseError):
        parse_polyhedron("")
    assert parse_polyhedron("", ambient=2) == HPolyhedron.space(2)
