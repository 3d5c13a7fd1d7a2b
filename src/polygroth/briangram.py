"""Brianchon-Gram decompositions with exact verification.

A polyhedron's indicator function equals the signed sum of the indicator
functions of its tangent cones along the nonempty relatively bounded faces,
with sign (-1)^(dim F + ell); for polytopes this runs over all faces with
sign (-1)^(dim F).  Verification is symbolic: both sides are constant on
the cells of the arrangement of the parent's facet hyperplanes.

Everything else is read off the face lattice.  The relatively bounded faces
come from ``polyhedron.relatively_bounded_faces``, and the unions of faces
whose Euler characteristic the paper's contractibility statements pin are
face sums: a set of closed faces that is closed under taking subfaces is the
disjoint union of their relative interiors, and the relative interior of a
d-face has chi (-1)^d.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructible import (
    And,
    Atom,
    ConstructibleSet,
    DEFAULT_MAX_HYPERPLANES,
    SignedPolyCombo,
    functions_equal,
)
from .errors import DomainError
from .exactq import dot, vec
from .polyhedron import (
    Face,
    HPolyhedron,
    contains,
    irredundant,
    is_empty,
    recession,
    relatively_bounded_faces,
    tangent_cone,
)


@dataclass(frozen=True)
class BGTerm:
    face: Face
    sign: int
    cone: HPolyhedron  # tangent cone of the parent along the face


@dataclass(frozen=True)
class BGDecomposition:
    parent: HPolyhedron
    ell: int  # lineality dimension of the parent
    terms: tuple[BGTerm, ...]

    def combo(self) -> SignedPolyCombo:
        out = SignedPolyCombo.zero(self.parent.ambient)
        for t in self.terms:
            out = out + SignedPolyCombo.of_polyhedron(t.cone, t.sign)
        return out


def bg_decompose(P: HPolyhedron) -> BGDecomposition:
    """Sign (-1)^(dim F + ell) tangent-cone term per nonempty relatively
    bounded face; the empty polyhedron decomposes into nothing."""
    if is_empty(P):
        return BGDecomposition(P, 0, ())
    Q = irredundant(P)
    ell = recession(Q).ell
    terms = tuple(BGTerm(f, (-1) ** (f.dim + ell), tangent_cone(Q, f))
                  for f in relatively_bounded_faces(Q))
    return BGDecomposition(Q, ell, terms)


def bg_verify(P: HPolyhedron,
              max_hyperplanes: int = DEFAULT_MAX_HYPERPLANES) -> bool:
    """Exact check that the decomposition reproduces the indicator of P."""
    dec = bg_decompose(P)
    lhs = SignedPolyCombo.of_polyhedron(P) if not is_empty(P) \
        else SignedPolyCombo.zero(P.ambient)
    return functions_equal(lhs, dec.combo(), max_hyperplanes)


def face_constructible(F: Face) -> ConstructibleSet:
    """The closed face as a constructible set: parent rows plus the tight
    rows reversed (so they hold with equality)."""
    parent = F.parent
    atoms = [Atom(a, b) for a, b in parent.rows]
    atoms += [Atom(tuple(-c for c in a), -b)
              for i, (a, b) in enumerate(parent.rows) if i in F.tight]
    return ConstructibleSet(parent.ambient, And(tuple(atoms)))


def bounded_union_chi(P: HPolyhedron) -> int:
    """chi of the union of the relatively bounded faces; equals (-1)^ell."""
    return sum((-1) ** f.dim for f in relatively_bounded_faces(P))


def visible_union_chi(P: HPolyhedron, x) -> int:
    """chi of the union of the relatively bounded faces visible from the
    exterior point x; equals (-1)^ell.

    A face is visible iff x violates one of its tangent cone's rows, the
    rows tight on it.  A subface has more tight rows, so the visible faces
    are closed under taking subfaces.
    """
    x = vec(x)
    if contains(P, x):
        raise DomainError("visibility is defined for exterior points only")
    bounded = relatively_bounded_faces(P)
    violated = {i for i, (a, b) in enumerate(bounded[0].parent.rows)
                if dot(vec(a), x) < b}
    return sum((-1) ** f.dim for f in bounded if f.tight & violated)
