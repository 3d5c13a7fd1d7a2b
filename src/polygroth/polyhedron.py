"""H-representation polyhedra: faces, recession structure, tangent cones.

A polyhedron is a finite intersection of closed half-spaces a·x >= b with
primitive integer normal a and rational b; an empty row list denotes all of
R^n.  Everything is exact and every value is immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    DomainError,
    InvariantError,
    ParseError,
    ResourceError,
    UsageError,
)
from .exactq import (
    Vec,
    dot,
    format_rat,
    gauss_solve,
    lp_feasible,
    lp_optimize,
    mat_rank,
    nullspace,
    parse_rat,
    primitive_normalize,
    vec,
    zero_vec,
)

MAX_AMBIENT = 6
MAX_ROWS = 40

Row = tuple[tuple[int, ...], Fraction]


class HPolyhedron:
    """Rational polyhedron {x in R^n : a·x >= b for every row (a, b)}."""

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient: int, rows: Sequence = ()):
        if ambient < 0:
            raise UsageError("ambient dimension must be >= 0")
        if ambient > MAX_AMBIENT:
            raise ResourceError(
                f"ambient dimension {ambient} exceeds the cap {MAX_AMBIENT}")
        norm = []
        for a, b in rows:
            a2, b2 = primitive_normalize(a, b)
            if len(a2) != ambient:
                raise UsageError(
                    f"row of length {len(a2)} in ambient dimension {ambient}")
            norm.append((a2, b2))
        if len(norm) > MAX_ROWS:
            raise ResourceError(f"{len(norm)} rows exceed the cap {MAX_ROWS}")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "rows", tuple(norm))

    def __setattr__(self, *_):
        raise AttributeError("HPolyhedron is immutable")

    def __eq__(self, other):
        return (isinstance(other, HPolyhedron)
                and self.ambient == other.ambient and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        if not self.rows:
            return f"HPolyhedron(R^{self.ambient})"
        body = "; ".join(
            f"{list(a)}·x >= {format_rat(b)}" for a, b in self.rows)
        return f"HPolyhedron({self.ambient}, {body})"

    @classmethod
    def space(cls, n: int) -> "HPolyhedron":
        """R^n, the intersection of the empty family of half-spaces."""
        return cls(n, ())


@dataclass(frozen=True)
class Face:
    """Face of a polyhedron, identified by its complete tight row set.

    ``parent`` is the irredundant description the tight indices refer to;
    ``witness`` lies in the relative interior: tight rows hold with equality
    there and all other rows strictly.
    """

    parent: HPolyhedron
    tight: frozenset[int]
    dim: int
    witness: Vec


@dataclass(frozen=True)
class RecessionData:
    rec: HPolyhedron          # the recession cone, all offsets zero
    lin_basis: tuple[Vec, ...]  # basis of the lineality space Lin(P)
    ell: int                   # dim Lin(P)


# ---------------------------------------------------------------------------
# basic predicates


def contains(P: HPolyhedron, x) -> bool:
    x = vec(x)
    if len(x) != P.ambient:
        raise UsageError(
            f"point of length {len(x)} in ambient dimension {P.ambient}")
    return all(dot(vec(a), x) >= b for a, b in P.rows)


def is_empty(P: HPolyhedron) -> bool:
    # only nonempty sets enter the irredundant cache
    if not P.rows or P in _irr_cache:
        return False
    return lp_feasible([(vec(a), b) for a, b in P.rows], P.ambient) is None


def _require_nonempty(P: HPolyhedron, what: str):
    if is_empty(P):
        raise DomainError(f"{what} undefined for the empty polyhedron")


def dim(P: HPolyhedron) -> int:
    """Dimension of P as a set: ambient minus rank of the implied equalities."""
    _require_nonempty(P, "dim")
    Q = irredundant(P)
    eq = implied_equalities(Q)
    rows = [vec(Q.rows[i][0]) for i in eq]
    if not rows:
        return Q.ambient
    return Q.ambient - mat_rank(rows, Q.ambient)


# ---------------------------------------------------------------------------
# irredundant descriptions


_irr_cache: dict = {}


def irredundant(P: HPolyhedron) -> HPolyhedron:
    """Equivalent description in which no inequality can be dropped.

    Deterministic: exact duplicates are removed, the remaining rows are
    sorted, then filtered sequentially by exact LP.
    """
    hit = _irr_cache.get(P)
    if hit is not None:
        return hit
    _require_nonempty(P, "irredundant")
    rows = sorted(set(P.rows))
    kept = list(rows)
    i = 0
    while i < len(kept):
        a, b = kept[i]
        others = [(vec(a2), b2) for j, (a2, b2) in enumerate(kept) if j != i]
        if not others:
            break  # a single row over R^n is never redundant
        res = lp_optimize(others, vec(a), "min")
        if res.status == "optimum" and res.value >= b:
            kept.pop(i)
        else:
            i += 1
    out = HPolyhedron(P.ambient, kept)
    _remember_irredundant(P, out)
    return out


def _remember_irredundant(P: HPolyhedron, out: HPolyhedron):
    if len(_irr_cache) > 512:
        _irr_cache.clear()
    _irr_cache[P] = out
    _irr_cache[out] = out


def implied_equalities(P: HPolyhedron) -> frozenset[int]:
    """Indices of rows tight on all of P (their reverse inequality is valid)."""
    _require_nonempty(P, "implied_equalities")
    cons = [(vec(a), b) for a, b in P.rows]
    out = set()
    for i, (a, b) in enumerate(P.rows):
        res = lp_optimize(cons, vec(a), "max")
        if res.status == "optimum" and res.value == b:
            out.add(i)
    return frozenset(out)


def canonical(P: HPolyhedron) -> HPolyhedron:
    """Irredundant description with rows in sorted order; key form for maps."""
    Q = irredundant(P)
    return HPolyhedron(Q.ambient, sorted(Q.rows))


def intersect(P: HPolyhedron, Q: HPolyhedron) -> HPolyhedron:
    if P.ambient != Q.ambient:
        raise UsageError("intersection requires a shared ambient dimension")
    merged = list(dict.fromkeys(P.rows + Q.rows))
    return HPolyhedron(P.ambient, merged)


# ---------------------------------------------------------------------------
# face enumeration


def _face_feasibility(Q: HPolyhedron, T: frozenset[int]):
    """Uniform-slack LP over the face with tight set T.

    Variables (x, eps), maximizing eps subject to tight rows as equalities,
    other rows a·x >= b + eps and 0 <= eps <= 1.  Returns (point, eps) or
    None when the face is empty.
    """
    n = Q.ambient
    cons = []
    for i, (a, b) in enumerate(Q.rows):
        av = vec(a)
        if i in T:
            cons.append((av + (Fraction(0),), b))
            cons.append((vec([-c for c in av]) + (Fraction(0),), -b))
        else:
            cons.append((av + (Fraction(-1),), b))
    eps_dir = zero_vec(n) + (Fraction(1),)
    cons.append((eps_dir, Fraction(0)))
    cons.append((vec([0] * n) + (Fraction(-1),), Fraction(-1)))
    res = lp_optimize(cons, eps_dir, "max")
    if res.status == "infeasible":
        return None
    if res.status != "optimum":
        raise InvariantError(f"the bounded slack LP ended {res.status}")
    return res.point[:n], res.point[n]


def _complete_tight(Q: HPolyhedron, T: frozenset[int]):
    """Canonical (tight set, witness, dim) of the face generated by T.

    Returns None for an empty face.  Distinct generating sets that cut the
    same face complete to the same canonical tight set.
    """
    first = _face_feasibility(Q, T)
    if first is None:
        return None
    point, eps = first
    tight = set(T)
    if eps == 0:
        # some rows outside T are implied-tight on this face; they are among
        # the rows tight at the returned point
        face_cons = []
        for i, (a, b) in enumerate(Q.rows):
            av = vec(a)
            face_cons.append((av, b))
            if i in T:
                face_cons.append((vec([-c for c in av]), -b))
        for i, (a, b) in enumerate(Q.rows):
            if i in tight or dot(vec(a), point) != b:
                continue
            res = lp_optimize(face_cons, vec(a), "max")
            if res.status == "optimum" and res.value == b:
                tight.add(i)
        point, eps = _face_feasibility(Q, frozenset(tight))
        if not eps > 0:
            raise InvariantError(
                "a completed tight set has no relative interior point")
    rows = [vec(Q.rows[i][0]) for i in tight]
    fdim = Q.ambient - (mat_rank(rows, Q.ambient) if rows else 0)
    return frozenset(tight), point, fdim


_faces_cache: dict = {}


def faces(P: HPolyhedron) -> list[Face]:
    """All nonempty faces of P, including P itself.

    Breadth-first closure: starting from P's implied equalities, one row at a
    time is turned into an equality; faces are deduplicated on canonical
    tight sets.  Output is sorted by (dim, tight set).
    """
    hit = _faces_cache.get(P)
    if hit is not None:
        return list(hit)
    _require_nonempty(P, "faces")
    Q = irredundant(P)
    m = len(Q.rows)
    root = _complete_tight(Q, frozenset())
    if root is None:
        raise InvariantError("a nonempty polyhedron has no minimal tight set")
    found = {root[0]: root}
    queue = [root[0]]
    while queue:
        T = queue.pop(0)
        for i in range(m):
            if i in T:
                continue
            comp = _complete_tight(Q, T | {i})
            if comp is not None and comp[0] not in found:
                found[comp[0]] = comp
                queue.append(comp[0])
    out = [Face(Q, t, d, w) for t, w, d in found.values()]
    out.sort(key=lambda f: (f.dim, tuple(sorted(f.tight))))
    if len(_faces_cache) > 256:
        _faces_cache.clear()
    _faces_cache[P] = tuple(out)
    return out


# ---------------------------------------------------------------------------
# recession cone / lineality


def recession(P: HPolyhedron) -> RecessionData:
    """Recession cone {v : a·v >= 0 for all rows}, its lineality space basis
    and the lineality dimension."""
    _require_nonempty(P, "recession")
    Q = irredundant(P)
    cone_rows = list(dict.fromkeys((a, Fraction(0)) for a, _ in Q.rows))
    rec = HPolyhedron(Q.ambient, cone_rows)
    lin = nullspace([vec(a) for a, _ in Q.rows], Q.ambient)
    return RecessionData(rec, tuple(lin), len(lin))


def cone_subset(C: HPolyhedron, D: HPolyhedron) -> bool:
    """Is the cone C contained in the cone D?  Both must have zero offsets.

    A cone lies inside {v : d·v >= 0} iff min d·v over it is not unbounded
    (the minimum over a cone through 0 is either 0 or -infinity).
    """
    for poly in (C, D):
        if any(b != 0 for _, b in poly.rows):
            raise DomainError("cone_subset expects cones (all offsets zero)")
    if C.ambient != D.ambient:
        raise UsageError("cones live in different ambient dimensions")
    cons = [(vec(a), b) for a, b in C.rows]
    for d, _ in D.rows:
        res = lp_optimize(cons, vec(d), "min")
        if res.status == "unbounded":
            return False
        if res.status != "optimum" or res.value != 0:
            raise InvariantError(
                "a cone LP bounded below has a nonzero optimum")
    return True


def is_bounded(P: HPolyhedron) -> bool:
    """P is bounded iff its recession cone is the origin."""
    _require_nonempty(P, "is_bounded")
    rec = recession(P).rec
    zero_rows = []
    for j in range(P.ambient):
        e = [0] * P.ambient
        e[j] = 1
        zero_rows.append((tuple(e), Fraction(0)))
        zero_rows.append((tuple(-c for c in e), Fraction(0)))
    if P.ambient == 0:
        return True
    return cone_subset(rec, HPolyhedron(P.ambient, zero_rows))


def _face_recession_rows(F: Face) -> list[Row]:
    rows = [(a, Fraction(0)) for a, _ in F.parent.rows]
    rows += [(tuple(-c for c in a), Fraction(0))
             for i, (a, _) in enumerate(F.parent.rows) if i in F.tight]
    return list(dict.fromkeys(rows))


def is_relatively_bounded(P: HPolyhedron, F: Face) -> bool:
    """True iff rec(F) = Lin(P), checked by mutual containment.

    Lin(P) ⊆ rec(F) is verified by plugging the lineality basis into the
    recession rows; rec(F) ⊆ Lin(P) by one LP per row of P.
    """
    Q = F.parent
    rec_rows = _face_recession_rows(F)
    lin = nullspace([vec(a) for a, _ in Q.rows], Q.ambient)
    for u in lin:
        for a, _ in rec_rows:
            if dot(vec(a), u) != 0:
                return False  # unreachable: the nullspace satisfies every row
    cons = [(vec(a), b) for a, b in rec_rows]
    for a, _ in Q.rows:
        res = lp_optimize(cons, vec(a), "max")
        if res.status == "unbounded":
            return False
        if res.status != "optimum" or res.value != 0:
            raise InvariantError(
                "a cone LP bounded above has a nonzero optimum")
    return True


def relatively_bounded_faces(P: HPolyhedron) -> list[Face]:
    """The nonempty relatively bounded faces of P, in the order of faces.

    Read off the face lattice alone, with no LP once it is known.  Every
    minimal face has dimension ell = dim Lin(P) and is relatively bounded.
    Modulo Lin(P) a face F is pointed, so it is bounded iff it has no
    unbounded edge (Minkowski-Weyl): an (ell+1)-face G ⊆ F that contains
    exactly one minimal face.  ``is_relatively_bounded`` is the LP oracle.
    """
    _require_nonempty(P, "relatively_bounded_faces")
    fs = faces(irredundant(P))
    ell = fs[0].dim
    minimal = [f.tight for f in fs if f.dim == ell]
    rays = [g.tight for g in fs if g.dim == ell + 1
            and sum(1 for t in minimal if t >= g.tight) == 1]
    return [f for f in fs if not any(r >= f.tight for r in rays)]


# ---------------------------------------------------------------------------
# tangent cones and visibility


def tangent_cone(P: HPolyhedron, F: Face) -> HPolyhedron:
    """Cone of P along F: the rows of the irredundant description that are
    tight on F, kept as inequalities.

    No row of an irredundant description is implied by the others, so none
    is implied by fewer of them: the cone, whose rows keep the parent's
    sorted order, is its own irredundant description, and it is nonempty.
    """
    rows = [F.parent.rows[i] for i in sorted(F.tight)]
    cone = HPolyhedron(F.parent.ambient, rows)
    _remember_irredundant(cone, cone)
    return cone


def is_visible(P: HPolyhedron, F: Face, x) -> bool:
    """A face is visible from an exterior point iff the point avoids its
    tangent cone."""
    x = vec(x)
    if contains(P, x):
        raise DomainError("visibility is defined for exterior points only")
    return not contains(tangent_cone(P, F), x)


# ---------------------------------------------------------------------------
# minimal face


def minimal_face_point(C: HPolyhedron) -> Vec:
    """A rational point in the minimal (lowest-dimensional) face of C.

    Deterministic: the minimal face is an affine subspace; coordinates are
    pinned left to right, fixing each free coordinate to 0.
    """
    _require_nonempty(C, "minimal_face_point")
    n = C.ambient
    rows = [vec(a) for a, _ in C.rows]
    rhs = [b for _, b in C.rows]
    if gauss_solve(rows, rhs, n) is None:
        # grow a maximal achievable tight set greedily (row order fixed)
        Q = irredundant(C)
        comp = _complete_tight(Q, frozenset())
        tight = set(comp[0])
        m = len(Q.rows)
        for i in range(m):
            if i in tight:
                continue
            comp = _complete_tight(Q, frozenset(tight | {i}))
            if comp is not None:
                tight = set(comp[0])
        rows = [vec(Q.rows[i][0]) for i in sorted(tight)]
        rhs = [Q.rows[i][1] for i in sorted(tight)]
    eq_rows = [list(r) for r in rows]
    eq_rhs = list(rhs)
    for j in range(n):
        solved = gauss_solve(eq_rows, eq_rhs, n)
        if solved is None:
            raise InvariantError("the face's tight rows came out inconsistent")
        _, basis = solved
        if any(v[j] != 0 for v in basis):
            e = [Fraction(0)] * n
            e[j] = Fraction(1)
            eq_rows.append(e)
            eq_rhs.append(Fraction(0))
    point = gauss_solve(eq_rows, eq_rhs, n)[0]
    if not contains(C, point):
        raise InvariantError("the computed face point lies outside the set")
    return point


# ---------------------------------------------------------------------------
# text format: one constraint per line, "a1 a2 ... an >= b"


def parse_ambient(digits: str) -> int:
    """The ambient dimension n of a text header (``dim n``, ``torus n``).

    Capped at MAX_AMBIENT before anything is sized by n, and read without
    converting an arbitrarily long digit string.
    """
    n = digits.lstrip("0") or "0"
    if len(n) > len(str(MAX_AMBIENT)) or int(n) > MAX_AMBIENT:
        shown = n if len(n) <= 20 else n[:20] + "..."
        raise ResourceError(f"ambient dimension {shown} exceeds the engine's "
                            f"limit: the hard cap is {MAX_AMBIENT}")
    return int(n)


def parse_polyhedron(text: str, ambient: Optional[int] = None) -> HPolyhedron:
    rows = []
    n = ambient
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if ">=" not in tokens:
            raise ParseError("expected 'a1 ... an >= b'", lineno, 1)
        k = tokens.index(">=")
        if k != len(tokens) - 2:
            raise ParseError("'>=' must be followed by a single rational", lineno, 1)
        coeffs = tokens[:k]
        if n is None:
            n = len(coeffs)
        if len(coeffs) != n:
            raise ParseError(
                f"expected {n} coefficients, got {len(coeffs)}", lineno, 1)
        try:
            a = [int(t) for t in coeffs]
        except ValueError:
            raise ParseError("coefficients must be integers", lineno, 1) from None
        try:
            b = parse_rat(tokens[-1])
        except UsageError as exc:
            raise ParseError(str(exc), lineno, 1) from None
        rows.append((tuple(a), b))
    if n is None:
        raise ParseError(
            "no constraints given and no ambient dimension specified", 1, 1)
    return HPolyhedron(n, rows)


def format_polyhedron(P: HPolyhedron) -> str:
    return "\n".join(
        f"{' '.join(str(c) for c in a)} >= {format_rat(b)}" for a, b in P.rows)
