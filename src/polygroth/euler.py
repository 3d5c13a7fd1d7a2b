"""The two Euler characteristics of constructible sets.

Both come from one pass over the arrangement of C's own hyperplanes.  A
relatively open convex cell of dimension d is homeomorphic to R^d and
contributes (-1)^d to ``chi``.  Membership of a cell in C is read off its
sign vector (``sign_membership``), not from its witness.

For ``chi_b``, let L be the arrangement's lineality space, of dimension ell.
Every cell closure is a pointed polyhedron plus L.  Möbius inversion over
its face lattice, with chi_b = 1 on closed nonempty polyhedra, gives a cell
of dimension d the contribution (-1)^(d - ell) when the recession cone of
its closure is L, and 0 otherwise.  That recession cone is the union of the
cells of the central arrangement {a·x = 0} of the distinct normals whose
signs tau satisfy tau_c(i) in {0, s_i} for every hyperplane i, so it
exceeds L exactly when such a central cell of dimension ell + 1 exists.

``gamma_star`` and ``box_clip`` compute chi_b the slow way, as chi of C
clipped to a stable box; they remain as the oracle behind the
``gamma_doubling_stability`` check and the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .constructible import (
    DEFAULT_MAX_HYPERPLANES,
    And,
    Atom,
    ConstructibleSet,
    cell_complex,
    complex_of,
    hyperplanes_of,
    sign_membership,
)
from .polyhedron import (
    HPolyhedron,
    cone_subset,
    is_bounded,
    is_empty,
    recession,
)


@dataclass(frozen=True)
class EulerPair:
    chi: int
    chi_b: int


def _cells_in(C: ConstructibleSet, max_hyperplanes: int):
    """C's own arrangement and the cells of it that lie in C."""
    cc = complex_of(C, max_hyperplanes)
    member = sign_membership(C, cc.hyperplanes)
    return cc, [cell for cell in cc.cells if member(cell.signs)]


def chi(C: ConstructibleSet,
        max_hyperplanes: int = DEFAULT_MAX_HYPERPLANES) -> int:
    """Compactly supported Euler characteristic, exactly."""
    _, cells = _cells_in(C, max_hyperplanes)
    return sum((-1) ** cell.dim for cell in cells)


def chi_b(C: ConstructibleSet,
          max_hyperplanes: int = DEFAULT_MAX_HYPERPLANES) -> int:
    """Bounded Euler characteristic, by per-cell contributions."""
    return euler_pair(C, max_hyperplanes).chi_b


def euler_pair(C: ConstructibleSet,
               max_hyperplanes: int = DEFAULT_MAX_HYPERPLANES) -> EulerPair:
    """(chi, chi_b) from one pass over C's arrangement."""
    cc, cells = _cells_in(C, max_hyperplanes)
    central = cell_complex({(a, 0) for a, _ in cc.hyperplanes}, cc.ambient,
                           max_hyperplanes)
    column = {a: j for j, (a, _) in enumerate(central.hyperplanes)}
    cols = [column[a] for a, _ in cc.hyperplanes]
    ell = min(cell.dim for cell in central.cells)
    rays = [cell.signs for cell in central.cells if cell.dim == ell + 1]

    def bounded_mod_lineality(s):
        return not any(all(t[j] == 0 or t[j] == si for j, si in zip(cols, s))
                       for t in rays)

    return EulerPair(
        sum((-1) ** cell.dim for cell in cells),
        sum((-1) ** (cell.dim - ell)
            for cell in cells if bounded_mod_lineality(cell.signs)))


def gamma_star(C: ConstructibleSet) -> Fraction:
    """A box radius past which chi(C ∩ [-g, g]^n) has stabilized.

    Whether a sign assignment over C's hyperplanes plus the box planes
    x_i = +-g is realizable is, as a function of g, an interval condition;
    the interval endpoints are attained at vertices of the arrangement
    lifted to (x, g)-space.  So 1 + the largest |g|-coordinate over all
    0-dimensional intersections of n+1 lifted planes bounds every critical
    radius.  (This includes, via subsets with one box plane, the ordinary
    vertices of C's own arrangement.)
    """
    from .exactq import gauss_solve

    hps = hyperplanes_of(C)
    n = C.ambient
    best = Fraction(0)
    if n > 0:
        lifted_h = [(a + (0,), b) for a, b in hps]
        box_rows = []
        for j in range(n):
            e = [0] * (n + 1)
            e[j] = 1
            e[n] = -1
            box_rows.append((tuple(e), Fraction(0)))   # x_j = +g
            e2 = list(e)
            e2[n] = 1
            box_rows.append((tuple(e2), Fraction(0)))  # x_j = -g
        for k in range(1, min(2 * n, n + 1) + 1):
            if n + 1 - k > len(lifted_h):
                continue
            for boxes in itertools.combinations(box_rows, k):
                for hsub in itertools.combinations(lifted_h, n + 1 - k):
                    rows = [a for a, _ in boxes] + [a for a, _ in hsub]
                    rhs = [b for _, b in boxes] + [b for _, b in hsub]
                    solved = gauss_solve(rows, rhs, n + 1)
                    if solved is None or solved[1]:
                        continue  # inconsistent, or not a single point
                    g = abs(solved[0][n])
                    if g > best:
                        best = g
    return best + 1


def box_clip(C: ConstructibleSet, gamma: Fraction) -> ConstructibleSet:
    """C intersected with the closed box [-gamma, gamma]^n."""
    n = C.ambient
    atoms = []
    for j in range(n):
        e = [0] * n
        e[j] = 1
        atoms.append(Atom(tuple(e), -gamma))
        atoms.append(Atom(tuple(-c for c in e), -gamma))
    return ConstructibleSet(n, And((C.expr,) + tuple(atoms)))


def chi_polyhedron_closed_form(P: HPolyhedron) -> EulerPair:
    """Closed-form Euler pair of a polyhedron, no cell decomposition.

    Empty: (0, 0).  Bounded: (1, 1).  When the recession cone equals the
    lineality space (P is bounded over its lineality), chi = (-1)^ell.
    All other nonempty polyhedra have chi = 0.  chi_b is 1 throughout.

    The middle branch covers affine subspaces; a line in R^2 gets chi = -1,
    consistent with what the cell oracle computes.
    """
    if is_empty(P):
        return EulerPair(0, 0)
    if is_bounded(P):
        return EulerPair(1, 1)
    rd = recession(P)
    lin_rows = []
    for a, _ in rd.rec.rows:
        lin_rows.append((a, Fraction(0)))
        lin_rows.append((tuple(-c for c in a), Fraction(0)))
    lin_cone = HPolyhedron(P.ambient, lin_rows)
    if cone_subset(rd.rec, lin_cone):
        return EulerPair((-1) ** rd.ell, 1)
    return EulerPair(0, 1)

