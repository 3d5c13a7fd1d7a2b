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

A comparison of valuations is a linear atom on valuation coordinates, so
the valuation DSL is read by ``constructible``'s recursive descent with
its own reader for one side of a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constructible import ConstructibleSet, _Parser, _parse_or, _var_index
from .errors import FragmentError, InvariantError, ParseError, UsageError
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
# the valuation DSL
#
#   torus 2;
#   val(x1^2) > val(t * x2) & val(x2) >= 0;
#   point;
#
# Atoms compare valuations of monomials in t and the torus coordinates, or
# rational literals; each `point;` statement adjoins one disjoint rational
# point.  Tokens and connectives are those of the `dim n;` DSL.


def parse_semialg(text: str) -> SemialgDesc:
    """Parse the torus DSL into a semi-algebraic description.

    ``val(t^q * x^alpha) >= val(t^r * x^beta)`` becomes the tropical atom
    (alpha - beta)·w >= r - q over the valuation coordinates w; a bare
    rational stands for its own valuation.
    """
    p = _Parser(text, _parse_val_side)
    p.take(text="torus")
    ntok = p.take("num")
    if not (ntok.text.isascii() and ntok.text.isdigit()):
        raise ParseError("expected a 'torus n;' header", ntok.line, ntok.col)
    n = parse_ambient(ntok.text)
    body = None
    extra_points = 0
    while p.peek().kind != "eof":
        p.take(text=";")
        tok = p.peek()
        if tok.kind == "eof" or tok.text == ";":
            continue
        if tok.text == "point":
            p.take()
            extra_points += 1
        elif body is None:
            body = ConstructibleSet(n, _parse_or(p, n))
        else:
            raise ParseError("at most one body expression is allowed",
                             tok.line, tok.col)
    return SemialgDesc(n, body or ConstructibleSet.empty(n), extra_points)


def _parse_val_side(p: _Parser, n: int):
    """One side of a comparison: ``val(monomial)`` or a rational literal.

    Returns (exponent vector over x1..xn, exponent of t): val(t^q * x^alpha)
    is the linear form alpha·w + q on valuation coordinates w.
    """
    if p.peek().text == "-":
        p.take()
        return [Fraction(0)] * n, -p.rational()
    if p.peek().text != "val":
        return [Fraction(0)] * n, p.rational()
    p.take()
    p.take(text="(")
    expo = [Fraction(0)] * (n + 1)  # x1..xn, then t
    while True:
        tok = _monomial_peek(p)
        if tok.kind == "var":
            slot = _var_index(tok, n)
        elif tok.text == "t":
            slot = n
        elif tok.kind in ("num", "word"):
            raise FragmentError(
                f"unsupported factor {tok.text!r}: only t^q and xi^q are in the "
                "monomial-valuation fragment", tok.line, tok.col)
        else:
            raise ParseError(f"expected a factor t^q or xi^q, found {tok.text!r}",
                             tok.line, tok.col)
        p.take()
        if p.peek().text == "^":
            p.take()
            _monomial_peek(p)
            expo[slot] += p.rational()
        else:
            expo[slot] += 1
        if _monomial_peek(p).text != "*":
            break
        p.take()
    p.take(text=")")
    return expo[:n], expo[n]


def _monomial_peek(p: _Parser):
    """The next token inside val(...), which may not be a sign."""
    tok = p.peek()
    if tok.text in ("+", "-"):  # a sum, or a negative exponent
        raise FragmentError("only monomial arguments to val are supported "
                            "(monomial-valuation fragment)", tok.line, tok.col)
    return tok
