"""The graded ring Z[u,v]/(uv) of scissor-relation classes, and its
ungraded quotient Z x Z.

A constructible set C in R^n has class chi(C)*u^n + chi_b(C)*v^n; in degree
0 the class is the single integer chi(C) since u^0 = v^0 = 1.  All mixed
monomials u^i v^j with i, j >= 1 vanish, which is exactly what makes the
multiplication law below close.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constructible import DEFAULT_MAX_HYPERPLANES, ConstructibleSet
from .errors import DomainError, UsageError
from .euler import chi, chi_polyhedron_closed_form, euler_pair
from .exactq import mat_rank, vec
from .polyhedron import HPolyhedron, is_empty


class GradedClass:
    """Element of Z[u,v]/(uv): an integer c0 plus, per degree n >= 1, a pair
    (coefficient of u^n, coefficient of v^n).  Zero pairs are never stored."""

    __slots__ = ("c0", "terms")

    def __init__(self, c0: int = 0, terms=()):
        clean = {}
        for n, a, b in terms:
            if n < 1:
                raise UsageError("graded terms start at degree 1")
            if a or b:
                pa, pb = clean.get(n, (0, 0))
                pa, pb = pa + a, pb + b
                if pa or pb:
                    clean[n] = (pa, pb)
                elif n in clean:
                    del clean[n]
        object.__setattr__(self, "c0", c0)
        object.__setattr__(
            self, "terms",
            tuple((n,) + clean[n] for n in sorted(clean)))

    def __setattr__(self, *_):
        raise AttributeError("GradedClass is immutable")

    def __eq__(self, other):
        return (isinstance(other, GradedClass)
                and self.c0 == other.c0 and self.terms == other.terms)

    def __hash__(self):
        return hash((self.c0, self.terms))

    def __repr__(self):
        return f"GradedClass({self.render()!r})"

    # ring structure ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return GradedClass(self.c0 + other.c0, self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return GradedClass(-self.c0, tuple((n, -a, -b) for n, a, b in self.terms))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        acc: dict[int, list[int]] = {}

        def bump(n, a, b):
            cur = acc.setdefault(n, [0, 0])
            cur[0] += a
            cur[1] += b

        for n, a, b in self.terms:
            bump(n, other.c0 * a, other.c0 * b)
        for n, a, b in other.terms:
            bump(n, self.c0 * a, self.c0 * b)
        for n, a, b in self.terms:
            for m, c, d in other.terms:
                bump(n + m, a * c, b * d)  # u^n u^m and v^n v^m; uv dies
        return GradedClass(self.c0 * other.c0,
                           tuple((n, p[0], p[1]) for n, p in acc.items()))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise UsageError("negative powers are not defined here")
        out = GradedClass(1)
        for _ in range(k):
            out = out * self
        return out

    # rendering: "a0 + (an)*u^n + (bn)*v^n", zero terms omitted, degrees
    # ascending, e.g. "u^2 + v^2"

    def render(self) -> str:
        parts = []
        if self.c0:
            parts.append(str(self.c0))
        for n, a, b in self.terms:
            if a:
                parts.append(_monomial(a, "u", n))
            if b:
                parts.append(_monomial(b, "v", n))
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _monomial(coeff: int, symbol: str, n: int) -> str:
    power = symbol if n == 1 else f"{symbol}^{n}"
    if coeff == 1:
        return power
    if coeff == -1:
        return f"-{power}"
    return f"{coeff}*{power}"


def _coerce(x) -> GradedClass:
    if isinstance(x, GradedClass):
        return x
    if isinstance(x, int):
        return GradedClass(x)
    raise UsageError(f"cannot interpret {x!r} as a graded class")


def zero() -> GradedClass:
    return GradedClass(0)


def one() -> GradedClass:
    return GradedClass(1)


def u_power(n: int, coeff: int = 1) -> GradedClass:
    if n == 0:
        return GradedClass(coeff)
    return GradedClass(0, ((n, coeff, 0),))


def v_power(n: int, coeff: int = 1) -> GradedClass:
    if n == 0:
        return GradedClass(coeff)
    return GradedClass(0, ((n, 0, coeff),))


def sigma() -> GradedClass:
    """Class of a single point in degree 1: u + v.  Multiplication by it
    shifts the grading."""
    return GradedClass(0, ((1, 1, 1),))


@dataclass(frozen=True)
class UngradedClass:
    """Element of Z x Z: the (chi, chi_b) pair with componentwise ring ops."""

    chi: int
    chi_b: int

    def __add__(self, other):
        return UngradedClass(self.chi + other.chi, self.chi_b + other.chi_b)

    def __sub__(self, other):
        return UngradedClass(self.chi - other.chi, self.chi_b - other.chi_b)

    def __mul__(self, other):
        return UngradedClass(self.chi * other.chi, self.chi_b * other.chi_b)


def class_of(C: ConstructibleSet, n: int = None,
             max_hyperplanes: int = DEFAULT_MAX_HYPERPLANES) -> GradedClass:
    """The class chi(C) u^n + chi_b(C) v^n of C placed in degree n (by
    default the ambient dimension)."""
    if n is None:
        n = C.ambient
    if n != C.ambient:
        raise UsageError("a set is graded by its ambient dimension")
    if n == 0:
        return GradedClass(chi(C, max_hyperplanes))
    pair = euler_pair(C, max_hyperplanes)
    return GradedClass(0, ((n, pair.chi, pair.chi_b),))


def class_of_polyhedron(P: HPolyhedron,
                        max_hyperplanes: int = DEFAULT_MAX_HYPERPLANES) -> GradedClass:
    from .constructible import from_polyhedron
    if is_empty(P):
        return zero()
    return class_of(from_polyhedron(P), max_hyperplanes=max_hyperplanes)


def class_of_cone(C: HPolyhedron) -> GradedClass:
    """Closed form for a rational polyhedral cone with apex at the origin.

    A linear subspace of dimension d gives v^n + (-1)^d u^n; every other
    cone gives v^n.  (In degree 0 the only cone is the point, class 1.)
    """
    if any(b != 0 for _, b in C.rows):
        raise DomainError("class_of_cone expects all offsets zero")
    n = C.ambient
    if n == 0:
        return one()
    rows = [vec(a) for a, _ in C.rows]
    from .polyhedron import cone_subset
    lin_rows = []
    for a, _ in C.rows:
        lin_rows.append((a, Fraction(0)))
        lin_rows.append((tuple(-c for c in a), Fraction(0)))
    if cone_subset(C, HPolyhedron(n, lin_rows)):
        d = n - (mat_rank(rows, n) if rows else 0)
        return v_power(n) + u_power(n, (-1) ** d)
    return v_power(n)


def class_of_polyhedron_closed_form(P: HPolyhedron) -> GradedClass:
    """Closed form for any polyhedron, via the Euler-pair trichotomy."""
    if is_empty(P):
        return zero()
    n = P.ambient
    pair = chi_polyhedron_closed_form(P)
    if n == 0:
        return GradedClass(pair.chi)
    return GradedClass(0, ((n, pair.chi, pair.chi_b),))


def ungraded(x: GradedClass) -> UngradedClass:
    """Evaluate at (u, v) = (1, 0) and (0, 1): the quotient by (sigma - 1).

    For the class of a set C this gives exactly (chi(C), chi_b(C)).
    """
    chi_val = x.c0 + sum(a for _, a, _ in x.terms)
    chib_val = x.c0 + sum(b for _, _, b in x.terms)
    return UngradedClass(chi_val, chib_val)
