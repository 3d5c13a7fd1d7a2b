"""A computable model of the quotient ring Z[L,t]/((L-1)(t-1)) and the
volume specialization of tropical-preimage semi-algebraic classes.

An element is stored as a compatible pair of integer polynomials (f in L,
g in tau) with f(1) = g(1); the pair ring is isomorphic to the quotient via
L -> (L, 1) and tau -> (1, tau).  The class of the preimage of a
constructible set C under coordinatewise valuation is obtained from C's
graded class by substituting v -> L - 1 and u -> 1 - tau (per coordinate).
The volume map psi sends tau to 1, i.e. forgets the second component; its
kernel is exactly the multiples of tau - 1, which the division helper
exhibits constructively.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .constructible import ConstructibleSet, parse_constructible
from .errors import FragmentError, InvariantError, ParseError, UsageError
from .exactq import parse_rat
from .grothendieck import GradedClass, class_of
from .polyhedron import parse_ambient


class IntPoly:
    """Dense integer polynomial, low degree first, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def const(cls, c: int) -> "IntPoly":
        return cls((c,))

    @classmethod
    def x(cls) -> "IntPoly":
        return cls((0, 1))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __add__(self, other):
        other = _poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-_poly(other))

    def __rsub__(self, other):
        return _poly(other) + (-self)

    def __mul__(self, other):
        other = _poly(other)
        if not self or not other:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = IntPoly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def __call__(self, value):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def divexact_linear(self, root: int) -> "IntPoly":
        """Exact division by (x - root); requires root to be a zero."""
        if not self:
            return IntPoly()
        if self(root) != 0:
            raise UsageError(f"{root} is not a root; division is not exact")
        out = []
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * root + c
            out.append(acc)
        out.pop()  # the remainder, which is zero
        return IntPoly(tuple(reversed(out)))

    def render(self, symbol: str) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for n in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[n]
            if c == 0:
                continue
            if n == 0:
                body = str(abs(c))
            else:
                power = symbol if n == 1 else f"{symbol}^{n}"
                body = power if abs(c) == 1 else f"{abs(c)}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"IntPoly({self.render('x')!r})"


def _poly(x) -> IntPoly:
    if isinstance(x, IntPoly):
        return x
    if isinstance(x, int):
        return IntPoly.const(x)
    raise UsageError(f"cannot interpret {x!r} as an integer polynomial")


class VFClass:
    """Pair (f in L, g in tau) with f(1) = g(1), the computable face of the
    semi-algebraic Grothendieck ring."""

    __slots__ = ("f", "g")

    def __init__(self, f, g):
        f, g = _poly(f), _poly(g)
        if f(1) != g(1):
            raise InvariantError(
                f"incompatible pair: f(1) = {f(1)} but g(1) = {g(1)}")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)

    def __setattr__(self, *_):
        raise AttributeError("VFClass is immutable")

    def __eq__(self, other):
        return isinstance(other, VFClass) and self.f == other.f and self.g == other.g

    def __hash__(self):
        return hash((self.f, self.g))

    def __add__(self, other):
        other = _vf(other)
        return VFClass(self.f + other.f, self.g + other.g)

    __radd__ = __add__

    def __neg__(self):
        return VFClass(-self.f, -self.g)

    def __sub__(self, other):
        return self + (-_vf(other))

    def __rsub__(self, other):
        return _vf(other) + (-self)

    def __mul__(self, other):
        other = _vf(other)
        return VFClass(self.f * other.f, self.g * other.g)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return VFClass(self.f ** k, self.g ** k)

    def render(self) -> str:
        return f"({self.f.render('L')}, {self.g.render('tau')})"

    def __repr__(self):
        return f"VFClass{self.render()}"


def _vf(x) -> VFClass:
    if isinstance(x, VFClass):
        return x
    if isinstance(x, int):
        return VFClass(IntPoly.const(x), IntPoly.const(x))
    raise UsageError(f"cannot interpret {x!r} as a class")


def vf_zero() -> VFClass:
    return VFClass(IntPoly(), IntPoly())


def vf_one() -> VFClass:
    return _vf(1)


def vf_L() -> VFClass:
    """Class of the affine line in degree 1."""
    return VFClass(IntPoly.x(), IntPoly.const(1))


def vf_tau() -> VFClass:
    """Class of a point in degree 1."""
    return VFClass(IntPoly.const(1), IntPoly.x())


def vf_add(x: VFClass, y: VFClass) -> VFClass:
    return x + y


def vf_mul(x: VFClass, y: VFClass) -> VFClass:
    return x * y


def vf_from_graded(x: GradedClass) -> VFClass:
    """Substitute v -> L - 1 and u -> 1 - tau into a graded class.

    Sends the class chi*u^n + chi_b*v^n of a tropical shadow to the class of
    its valuation preimage in the n-torus.
    """
    f = IntPoly.const(x.c0)
    g = IntPoly.const(x.c0)
    L1 = IntPoly((-1, 1))        # L - 1
    onetau = IntPoly((1, -1))    # 1 - tau
    for n, a, b in x.terms:
        f = f + b * (L1 ** n)
        g = g + a * (onetau ** n)
    return VFClass(f, g)


def theta_trop_class(C: ConstructibleSet, n: int = None,
                     max_hyperplanes: int = None) -> VFClass:
    """Class of the preimage of C under coordinatewise valuation."""
    kwargs = {}
    if max_hyperplanes is not None:
        kwargs["max_hyperplanes"] = max_hyperplanes
    return vf_from_graded(class_of(C, n, **kwargs))


@dataclass(frozen=True)
class SemialgDesc:
    """A tropical preimage plus finitely many extra rational points."""

    n: int
    body: ConstructibleSet
    extra_points: int = 0

    def __post_init__(self):
        if self.body.ambient != self.n:
            raise UsageError("body dimension must match the torus rank")
        if self.extra_points < 0:
            raise UsageError("extra_points must be >= 0")


def semialg_class(S: SemialgDesc) -> VFClass:
    return theta_trop_class(S.body, S.n) + _vf(S.extra_points)


def psi(x: VFClass) -> IntPoly:
    """The volume specialization: send tau to 1, keeping the L-component."""
    return x.f


def in_kernel_psi(x: VFClass) -> bool:
    return not x.f


def kernel_factor(x: VFClass) -> VFClass:
    """Write a kernel element as (tau - 1) times an explicit class.

    Possible exactly when the L-component vanishes: then g(1) = f(1) = 0,
    so tau - 1 divides g.
    """
    if x.f:
        raise UsageError("kernel_factor expects a class with zero L-component")
    q = x.g.divexact_linear(1)
    return VFClass(IntPoly.const(q(1)), q)


# ---------------------------------------------------------------------------
# the val-inequality DSL
#
#   torus 2;
#   val(x1^2) > val(t * x2) & val(x2) >= 0;
#   point;
#
# Atoms compare valuations of monomials in t and the torus coordinates;
# each `point;` statement adjoins one disjoint rational point.


_MONO_FACTOR = re.compile(r"^(t|x(\d+))(?:\^(-?\d+(?:/\d+)?))?$")


def _parse_monomial(text: str, n: int, line: int, col: int):
    """Return (exponent vector over x1..xn, exponent of t)."""
    expo = [Fraction(0)] * n
    tpow = Fraction(0)
    for raw in text.split("*"):
        piece = raw.strip()
        if not piece:
            raise ParseError("empty factor in monomial", line, col)
        if any(ch in piece for ch in "+-"):
            raise FragmentError(
                "only monomial arguments to val are supported "
                "(monomial-valuation fragment)", line, col)
        m = _MONO_FACTOR.match(piece)
        if m is None:
            raise FragmentError(
                f"unsupported factor {piece!r}: only t^q and xi^q are in the "
                "monomial-valuation fragment", line, col)
        power = parse_rat(m.group(3)) if m.group(3) else Fraction(1)
        if m.group(1) == "t":
            tpow += power
        else:
            idx = int(m.group(2))
            if not 1 <= idx <= n:
                raise ParseError(f"variable x{idx} outside x1..x{n}", line, col)
            expo[idx - 1] += power
    return expo, tpow


_VAL_RE = re.compile(r"val\(([^()]*)\)")


def parse_semialg(text: str) -> SemialgDesc:
    """Parse the torus DSL into a semi-algebraic description.

    ``val(t^q * x^alpha) >= val(t^r * x^beta)`` becomes the tropical atom
    (alpha - beta)·w >= r - q over the valuation coordinates w; a bare
    rational stands for its own valuation.
    """
    statements = [s for s in text.split(";")]
    if not statements or not statements[0].strip().startswith("torus"):
        raise ParseError("expected a 'torus n;' header", 1, 1)
    head = statements[0].strip().split()
    if len(head) != 2 or not (head[1].isascii() and head[1].isdigit()):
        raise ParseError("expected a 'torus n;' header", 1, 1)
    n = parse_ambient(head[1])
    extra_points = 0
    body_exprs = []
    for stmt in statements[1:]:
        s = stmt.strip()
        if not s:
            continue
        if s == "point":
            extra_points += 1
            continue
        body_exprs.append(s)
    if len(body_exprs) > 1:
        raise ParseError("at most one body expression is allowed", 1, 1)
    if body_exprs:
        body = _translate_body(body_exprs[0], n)
    else:
        body = ConstructibleSet.empty(n)
    return SemialgDesc(n, body, extra_points)


def _translate_body(s: str, n: int) -> ConstructibleSet:
    """Rewrite each val-comparison to a linear atom and reuse the
    constructible-set parser for the Boolean structure."""
    pieces = []
    pos = 0
    pattern = re.compile(
        r"(val\([^()]*\)|-?[0-9][0-9/]*)\s*(>=|<=|>|<|=)\s*(val\([^()]*\)|-?[0-9][0-9/]*)")
    for m in pattern.finditer(s):
        pieces.append(s[pos:m.start()])
        lhs, op, rhs = m.group(1), m.group(2), m.group(3)
        pieces.append(_atom_text(lhs, op, rhs, n))
        pos = m.end()
    tail = s[pos:].strip()
    if "val(" in tail or re.search(r"\d", tail):
        raise FragmentError(
            f"could not parse the clause near {tail[:30]!r}: atoms are "
            "val-comparisons in the monomial-valuation fragment", 1, 1)
    pieces.append(s[pos:])
    return parse_constructible(f"dim {n}; {''.join(pieces)}")


def _side(text: str, n: int):
    text = text.strip()
    if text.startswith("val("):
        return _parse_monomial(text[4:-1], n, 1, 1)
    return [Fraction(0)] * n, parse_rat(text)


def _atom_text(lhs: str, op: str, rhs: str, n: int) -> str:
    le, lt = _side(lhs, n)
    re_, rt = _side(rhs, n)
    coeffs = [a - b for a, b in zip(le, re_)]
    const = rt - lt  # coeffs·w >= const, up to the comparison direction
    if all(c == 0 for c in coeffs):
        holds = {
            ">=": lt >= rt, ">": lt > rt, "<=": lt <= rt,
            "<": lt < rt, "=": lt == rt,
        }[op]
        # constant truth: encode as a tautology or contradiction
        return "0 >= 0" if holds else "0 > 0"
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        frag = f"x{i + 1}" if mag == 1 else f"{_rat_text(mag)}*x{i + 1}"
        if not terms:
            terms.append(frag if c > 0 else f"-{frag}")
        else:
            terms.append(f"+ {frag}" if c > 0 else f"- {frag}")
    return f"({' '.join(terms)} {op} {_rat_text(const)})"


def _rat_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else \
        f"{q.numerator}/{q.denominator}"
