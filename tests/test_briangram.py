import random
from fractions import Fraction as F

import pytest

from polygroth.briangram import (
    bg_decompose,
    bg_verify,
    bounded_union_chi,
    face_constructible,
    visible_union_chi,
)
from polygroth import exactq, polyhedron
from polygroth.constructible import (
    ConstructibleSet,
    Or,
    SignedPolyCombo,
    functions_equal,
)
from polygroth.errors import DomainError
from polygroth.euler import chi
from polygroth.grothendieck import class_of_polyhedron
from polygroth.polyhedron import (
    HPolyhedron,
    faces,
    irredundant,
    is_empty,
    is_relatively_bounded,
    is_visible,
    recession,
    relatively_bounded_faces,
)
from polygroth.suites import (
    exterior_points,
    nonempty_standard_polyhedra,
    random_polyhedron,
    standard_polyhedra,
)


def P(n, rows):
    return HPolyhedron(n, [(tuple(a), F(b)) for a, b in rows])


SEGMENT = P(1, [((1,), 0), ((-1,), -1)])
QUADRANT = P(2, [((1, 0), 0), ((0, 1), 0)])
STRIP = P(2, [((0, 1), 0), ((0, -1), -1)])
SQUARE = P(2, [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)])


# -- decomposition structure ---------------------------------------------------


def test_bg_segment():
    dec = bg_decompose(SEGMENT)
    assert dec.ell == 0
    got = sorted((t.sign, tuple(sorted(t.cone.rows))) for t in dec.terms)
    assert got == sorted([
        (1, (((1,), F(0)),)),          # +[0, inf)
        (1, (((-1,), F(-1)),)),        # +(-inf, 1]
        (-1, ()),                      # -R
    ])


def test_bg_quadrant_single_term():
    dec = bg_decompose(QUADRANT)
    assert len(dec.terms) == 1
    (t,) = dec.terms
    assert t.sign == 1 and t.face.dim == 0
    assert set(t.cone.rows) == set(QUADRANT.rows)


def test_bg_strip():
    dec = bg_decompose(STRIP)
    assert dec.ell == 1
    got = sorted((t.sign, t.face.dim) for t in dec.terms)
    assert got == [(-1, 2), (1, 1), (1, 1)]  # +both facets, -the strip


def test_bg_whole_space():
    for n in (0, 1, 2, 3):
        dec = bg_decompose(HPolyhedron.space(n))
        assert len(dec.terms) == 1
        assert dec.terms[0].sign == 1  # (-1)^(n+n)
        assert bg_verify(HPolyhedron.space(n))


def test_bg_empty():
    E = P(1, [((1,), 1), ((-1,), 0)])
    dec = bg_decompose(E)
    assert dec.terms == ()
    assert bg_verify(E)


def test_bg_bounded_specialization():
    # for a polytope every face enters, with sign (-1)^dim
    from polygroth.polyhedron import faces, irredundant
    dec = bg_decompose(SQUARE)
    assert len(dec.terms) == len(faces(irredundant(SQUARE))) == 9
    for t in dec.terms:
        assert t.sign == (-1) ** t.face.dim


def test_bg_mutated_sign_fails():
    dec = bg_decompose(SEGMENT)
    combo = SignedPolyCombo.zero(1)
    for i, t in enumerate(dec.terms):
        sign = -t.sign if i == 0 else t.sign
        combo = combo + SignedPolyCombo.of_polyhedron(t.cone, sign)
    lhs = SignedPolyCombo.of_polyhedron(SEGMENT)
    assert not functions_equal(lhs, combo)


# -- verification over the suites ------------------------------------------------


def test_bg_verify_standard_suite():
    suite = standard_polyhedra()
    assert len(suite) >= 30
    for name, Q in suite:
        assert bg_verify(Q), name


def test_bg_verify_random():
    rng = random.Random(2024)
    for k in range(20):
        Q = random_polyhedron(rng, rng.randint(1, 3))
        assert bg_verify(Q), (k, Q)


def test_bg_class_consistency():
    # applying the class map to both sides of the decomposition agrees
    for name, Q in nonempty_standard_polyhedra():
        if Q.ambient > 3:
            continue
        dec = bg_decompose(Q)
        total = sum((t.sign * class_of_polyhedron(t.cone) for t in dec.terms),
                    class_of_polyhedron(Q) * 0)
        assert total == class_of_polyhedron(Q), name


# -- contractibility consequences -------------------------------------------------


def test_bounded_union_chi_examples():
    assert bounded_union_chi(SQUARE) == 1
    assert bounded_union_chi(QUADRANT) == 1   # union is the vertex
    assert bounded_union_chi(STRIP) == -1     # ell = 1


def test_visible_union_chi_examples():
    assert visible_union_chi(QUADRANT, [-1, -1]) == 1
    assert visible_union_chi(STRIP, [0, -1]) == -1  # visible part: the line y=0
    with pytest.raises(DomainError):
        visible_union_chi(SQUARE, [F(1, 2), F(1, 2)])


def test_contract_chi_across_suite():
    rng = random.Random(77)
    for name, Q in nonempty_standard_polyhedra():
        if Q.ambient > 3:
            continue
        ell = recession(Q).ell
        expected = (-1) ** ell
        assert bounded_union_chi(Q) == expected, name
        for x in exterior_points(rng, Q, 10):
            assert visible_union_chi(Q, x) == expected, (name, x)


def test_face_constructible_members():
    from polygroth.polyhedron import faces, irredundant
    from polygroth.constructible import eval_point
    Q = irredundant(SQUARE)
    for f in faces(Q):
        C = face_constructible(f)
        assert eval_point(C, f.witness)


# -- the face-lattice reads against the LP and cell-walk oracles ------------------


# simplices and cones whose lineality space has dimension 1 or 2
LINEALITY_CASES = [
    P(3, [((1, 0, -1), 0), ((0, 1, -1), 0), ((-1, -1, 2), -1)]),
    P(3, [((1, 0, -1), 0), ((0, 1, 1), 1)]),
    P(4, [((1, -1, 0, 0), 0), ((0, 1, -1, 0), 0), ((0, 0, 1, -1), 0),
          ((-1, 0, 0, 1), -1)]),
    P(4, [((1, 1, 0, -1), 0), ((0, 0, 1, 0), 0), ((-1, -1, -1, 1), -1)]),
    P(4, [((1, 1, 0, 0), 1), ((0, 1, 1, 0), -1), ((0, 0, 1, 1), 2)]),
    P(4, [((1, 1, 0, 0), 0), ((0, 0, 1, 1), 0)]),
]


def _union_chi(Q, chosen):
    """chi of a union of closed faces, walked on the facet arrangement."""
    expr = Or(tuple(face_constructible(f).expr for f in chosen))
    return chi(ConstructibleSet(Q.ambient, expr))


def test_face_lattice_reads_match_oracles():
    rng = random.Random(26)
    inputs = [Q for _, Q in nonempty_standard_polyhedra()] + LINEALITY_CASES
    for k in range(24):
        Q = random_polyhedron(rng, 1 + k % 3)
        if not is_empty(Q):
            inputs.append(Q)
    for Q in inputs:
        R = irredundant(Q)
        lp = [f for f in faces(R) if is_relatively_bounded(R, f)]
        assert relatively_bounded_faces(Q) == lp, Q
        if len(R.rows) > 6:
            continue  # keeps the cell walks of the oracle small
        assert bounded_union_chi(Q) == _union_chi(R, lp), Q
        for x in exterior_points(rng, Q, 2):
            visible = [f for f in lp if is_visible(R, f, x)]
            assert visible_union_chi(Q, x) == _union_chi(R, visible), (Q, x)


def test_face_lattice_reads_make_no_lp(monkeypatch):
    cube3 = dict(standard_polyhedra())["cube3"]
    cases = [(cube3, [2, F(1, 2), F(1, 2)]), (STRIP, [0, -1])]
    for Q, _ in cases:
        faces(irredundant(Q))
    calls = []
    real = exactq.lp_optimize

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(exactq, "lp_optimize", counted)
    monkeypatch.setattr(polyhedron, "lp_optimize", counted)
    for Q, x in cases:
        relatively_bounded_faces(Q)
        bounded_union_chi(Q)
        visible_union_chi(Q, x)
    assert calls == []
