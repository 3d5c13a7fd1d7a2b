"""Boolean combinations of half-spaces, signed polyhedron combinations, and
exact equality of piecewise-constant functions via arrangement cells.

The cell enumerator is the workhorse of the whole engine.  It assigns the
hyperplanes signs (<, =, >) depth-first in index order; infeasible prefixes
are cut by exact LP, but most branching decisions come for free: each region
carries a rational witness, the child on the witness's side inherits it, and
witnesses for the other children are obtained by interpolating towards a
single LP probe point.  '='-branches restrict the working flat, so deeper
subproblems shrink.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import InvariantError, ParseError, ResourceError, UsageError
from .exactq import (
    Vec,
    dot,
    format_rat,
    improve_below,
    nullspace,
    parse_rat,
    primitive_normalize,
    sign,
    vadd,
    vec,
    vscale,
    zero_vec,
)
from .polyhedron import HPolyhedron, canonical, intersect, is_empty, parse_ambient

DEFAULT_MAX_HYPERPLANES = 14
MAX_NESTING = 100  # '!' and '(' levels in one expression

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# expression trees


@dataclass(frozen=True)
class Atom:
    """Half-space atom a·x >= b (or > b when strict); a is primitive."""

    a: tuple[int, ...]
    b: Fraction
    strict: bool = False


@dataclass(frozen=True)
class And:
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Or:
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Not:
    arg: "Expr"


Expr = Union[Atom, And, Or, Not]

TRUE = And(())
FALSE = Or(())


def atom(a, b, strict: bool = False) -> Atom:
    a2, b2 = primitive_normalize(a, b)
    return Atom(a2, b2, strict)


class ConstructibleSet:
    """A Boolean combination of half-spaces in a fixed ambient dimension."""

    __slots__ = ("ambient", "expr")

    def __init__(self, ambient: int, expr: Expr):
        for at in _walk_atoms(expr):
            if len(at.a) != ambient:
                raise UsageError(
                    f"atom of length {len(at.a)} in ambient dimension {ambient}")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "expr", expr)

    def __setattr__(self, *_):
        raise AttributeError("ConstructibleSet is immutable")

    def __eq__(self, other):
        return (isinstance(other, ConstructibleSet)
                and self.ambient == other.ambient and self.expr == other.expr)

    def __hash__(self):
        return hash((self.ambient, self.expr))

    def __repr__(self):
        return f"ConstructibleSet(dim {self.ambient}; {render_expr(self.expr)})"

    # boolean algebra; DIFF is sugar for AND NOT
    def __and__(self, other):
        self._chk(other)
        return ConstructibleSet(self.ambient, And((self.expr, other.expr)))

    def __or__(self, other):
        self._chk(other)
        return ConstructibleSet(self.ambient, Or((self.expr, other.expr)))

    def __invert__(self):
        return ConstructibleSet(self.ambient, Not(self.expr))

    def __sub__(self, other):
        self._chk(other)
        return ConstructibleSet(self.ambient, And((self.expr, Not(other.expr))))

    def _chk(self, other):
        if not isinstance(other, ConstructibleSet) or other.ambient != self.ambient:
            raise UsageError("operands must share an ambient dimension")

    @classmethod
    def space(cls, n: int) -> "ConstructibleSet":
        return cls(n, TRUE)

    @classmethod
    def empty(cls, n: int) -> "ConstructibleSet":
        return cls(n, FALSE)


def _walk_atoms(expr) -> Iterable[Atom]:
    if isinstance(expr, Atom):
        yield expr
    elif isinstance(expr, (And, Or)):
        for e in expr.args:
            yield from _walk_atoms(e)
    elif isinstance(expr, Not):
        yield from _walk_atoms(expr.arg)
    else:
        raise UsageError(f"not an expression node: {expr!r}")


def from_polyhedron(P: HPolyhedron) -> ConstructibleSet:
    return ConstructibleSet(P.ambient, And(tuple(Atom(a, b) for a, b in P.rows)))


def product(C: ConstructibleSet, D: ConstructibleSet) -> ConstructibleSet:
    """C x D inside R^(m+n), embedding both atom families."""
    m, n = C.ambient, D.ambient

    def emb(expr, left):
        if isinstance(expr, Atom):
            a = expr.a + (0,) * n if left else (0,) * m + expr.a
            return Atom(a, expr.b, expr.strict)
        if isinstance(expr, And):
            return And(tuple(emb(e, left) for e in expr.args))
        if isinstance(expr, Or):
            return Or(tuple(emb(e, left) for e in expr.args))
        return Not(emb(expr.arg, left))

    return ConstructibleSet(m + n, And((emb(C.expr, True), emb(D.expr, False))))


def translate(C: ConstructibleSet, g) -> ConstructibleSet:
    """The translate C + g: atoms a·x >= b become a·x >= b + a·g."""
    g = vec(g)

    def shift(expr):
        if isinstance(expr, Atom):
            return Atom(expr.a, expr.b + dot(vec(expr.a), g), expr.strict)
        if isinstance(expr, And):
            return And(tuple(shift(e) for e in expr.args))
        if isinstance(expr, Or):
            return Or(tuple(shift(e) for e in expr.args))
        return Not(shift(expr.arg))

    return ConstructibleSet(C.ambient, shift(C.expr))


def eval_point(C: ConstructibleSet, x) -> bool:
    """Exact membership of a rational point."""
    x = vec(x)
    if len(x) != C.ambient:
        raise UsageError(
            f"point of length {len(x)} in ambient dimension {C.ambient}")

    def ev(expr):
        if isinstance(expr, Atom):
            val = dot(vec(expr.a), x)
            return val > expr.b if expr.strict else val >= expr.b
        if isinstance(expr, And):
            return all(ev(e) for e in expr.args)
        if isinstance(expr, Or):
            return any(ev(e) for e in expr.args)
        return not ev(expr.arg)

    return ev(C.expr)


def sign_membership(C: ConstructibleSet, hyperplanes):
    """Membership of whole arrangement cells, read off their sign vectors.

    Each atom a·x >= b (or > b) of C lies on one of ``hyperplanes``, say the
    i-th, with a·x - b = o * (a_i·x - b_i) for an orientation o = +-1.  The
    atom holds on a cell with signs s exactly when o * s_i >= 0 (> 0 when
    strict), so the returned predicate maps a cell's ``signs`` to C's
    membership with no rational arithmetic.  ``eval_point`` at the cell's
    witness gives the same answer.
    """
    index = {h: i for i, h in enumerate(hyperplanes)}

    def compile_(expr):
        if isinstance(expr, Atom):
            h = hyperplane_of(expr.a, expr.b)
            if h not in index:
                raise UsageError(
                    f"atom {render_expr(expr)} lies on no listed hyperplane")
            i = index[h]
            o = 1 if next(c for c in expr.a if c != 0) > 0 else -1
            if expr.strict:
                return lambda s: o * s[i] > 0
            return lambda s: o * s[i] >= 0
        if isinstance(expr, Not):
            f = compile_(expr.arg)
            return lambda s: not f(s)
        fs = tuple(compile_(e) for e in expr.args)
        if isinstance(expr, And):
            return lambda s: all(f(s) for f in fs)
        return lambda s: any(f(s) for f in fs)

    return compile_(C.expr)


Hyperplane = tuple[tuple[int, ...], Fraction]


def hyperplane_of(a, b) -> Hyperplane:
    """Canonical oriented representative of {x : a·x = b}: primitive integer
    normal whose first nonzero entry is positive."""
    a2, b2 = primitive_normalize(a, b)
    lead = next(c for c in a2 if c != 0)
    if lead < 0:
        a2 = tuple(-c for c in a2)
        b2 = -b2
    return a2, b2


def hyperplanes_of(C: ConstructibleSet) -> list[Hyperplane]:
    hps = {hyperplane_of(at.a, at.b) for at in _walk_atoms(C.expr)}
    return sorted(hps)


# ---------------------------------------------------------------------------
# signed combinations of polyhedron indicators


class SignedPolyCombo:
    """Formal integer combination of indicator functions of closed polyhedra.

    Keys are canonical irredundant polyhedra; zero coefficients and empty
    polyhedra are never stored.
    """

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient: int, terms=None):
        clean = {}
        for P, c in (terms or {}).items():
            if P.ambient != ambient:
                raise UsageError("combo term in wrong ambient dimension")
            if c != 0:
                clean[P] = clean.get(P, 0) + c
                if clean[P] == 0:
                    del clean[P]
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("SignedPolyCombo is immutable")

    @classmethod
    def zero(cls, ambient: int) -> "SignedPolyCombo":
        return cls(ambient, {})

    @classmethod
    def of_polyhedron(cls, P: HPolyhedron, coeff: int = 1) -> "SignedPolyCombo":
        if is_empty(P):
            return cls.zero(P.ambient)
        return cls(P.ambient, {canonical(P): coeff})

    def evaluate(self, x) -> int:
        from .polyhedron import contains
        return sum(c for P, c in self.terms.items() if contains(P, x))

    def __add__(self, other):
        self._chk(other)
        out = dict(self.terms)
        for P, c in other.terms.items():
            out[P] = out.get(P, 0) + c
        return SignedPolyCombo(self.ambient, out)

    def __neg__(self):
        return SignedPolyCombo(self.ambient, {P: -c for P, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, k: int):
        return SignedPolyCombo(self.ambient, {P: k * c for P, c in self.terms.items()})

    def __mul__(self, other):
        """Pointwise product: indicators multiply by intersecting."""
        self._chk(other)
        out: dict[HPolyhedron, int] = {}
        for P, cp in self.terms.items():
            for Q, cq in other.terms.items():
                R = intersect(P, Q)
                if is_empty(R):
                    continue
                key = canonical(R)
                out[key] = out.get(key, 0) + cp * cq
        return SignedPolyCombo(self.ambient, out)

    def __eq__(self, other):
        return (isinstance(other, SignedPolyCombo)
                and self.ambient == other.ambient and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ambient, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return f"SignedPolyCombo({self.ambient}, 0)"
        parts = [f"{c:+d}*1_{{{P!r}}}" for P, c in sorted(
            self.terms.items(), key=lambda t: t[0].rows)]
        return f"SignedPolyCombo({self.ambient}, {' '.join(parts)})"

    def _chk(self, other):
        if not isinstance(other, SignedPolyCombo) or other.ambient != self.ambient:
            raise UsageError("combos must share an ambient dimension")


def to_signed_combo(C: ConstructibleSet) -> SignedPolyCombo:
    """Rewrite C as an integer combination of closed polyhedra that matches
    its indicator function everywhere.

    Strict atoms are rewritten first (a·x > b is the complement of
    -a·x >= -b); AND multiplies, OR uses inclusion-exclusion, NOT subtracts
    from the ambient space.
    """
    n = C.ambient
    space = SignedPolyCombo.of_polyhedron(HPolyhedron.space(n))

    def build(expr) -> SignedPolyCombo:
        if isinstance(expr, Atom):
            if expr.strict:
                closed = HPolyhedron(
                    n, [(tuple(-c for c in expr.a), -expr.b)])
                return space - SignedPolyCombo.of_polyhedron(closed)
            return SignedPolyCombo.of_polyhedron(HPolyhedron(n, [(expr.a, expr.b)]))
        if isinstance(expr, And):
            acc = space
            for e in expr.args:
                acc = acc * build(e)
            return acc
        if isinstance(expr, Or):
            acc = SignedPolyCombo.zero(n)
            for e in expr.args:
                nxt = build(e)
                acc = acc + nxt - acc * nxt
            return acc
        return space - build(expr.arg)

    return build(C.expr)


# ---------------------------------------------------------------------------
# arrangement cells


@dataclass(frozen=True)
class Cell:
    signs: tuple[int, ...]  # -1 / 0 / +1 per hyperplane, in listed order
    dim: int
    witness: Vec


@dataclass(frozen=True)
class CellComplex:
    ambient: int
    hyperplanes: tuple[Hyperplane, ...]
    cells: tuple[Cell, ...]


class _Flat:
    """Affine chart z -> origin + sum z_j * basis_j of a flat in R^n."""

    __slots__ = ("origin", "basis")

    def __init__(self, origin: Vec, basis: tuple[Vec, ...]):
        self.origin = origin
        self.basis = basis

    @property
    def dim(self):
        return len(self.basis)

    def to_ambient(self, z: Vec) -> Vec:
        pt = self.origin
        for c, v in zip(z, self.basis):
            if c != 0:
                pt = vadd(pt, vscale(c, v))
        return pt


def _normalize_functional(g, g0):
    """Scale (g, g0) by a positive rational to primitive integers; the sign
    pattern, zero set and all interpolation ratios are unchanged."""
    if all(c == 0 for c in g):
        return tuple(g), g0
    gg, _ = primitive_normalize(tuple(g) + (g0,), 0)
    return gg[:-1], Fraction(gg[-1])


def _restrict(a: Vec, b: Fraction, flat: _Flat):
    """Functional z -> a·phi(z) - b on the flat's chart."""
    g = tuple(dot(a, v) for v in flat.basis)
    g0 = dot(a, flat.origin) - b
    return _normalize_functional(g, g0)


def _ray_probe(stricts, w, func, val):
    """Try to reach {func < 0} from w along the steepest falling direction.

    ``val`` is the (positive) functional value at w.  Returns a weakly
    feasible point with a negative functional value, or None when the ray
    exits the region's closure first (inconclusive)."""
    d = tuple(-c for c in func)
    gd = -sum(c * c for c in func)  # func·d < 0
    t_need = val / (-gd)
    t_max = None
    for h, h0 in stricts:
        hd = dot(h, d)
        if hd < 0:
            room = (dot(h, w) + h0) / (-hd)
            if t_max is None or room < t_max:
                t_max = room
                if t_max <= t_need:
                    return None
    t = t_need + 1 if t_max is None else (t_need + t_max) / 2
    return vadd(w, vscale(t, d))


_complex_cache: dict = {}


def cell_complex(hyperplanes, ambient: int,
                 max_hyperplanes: int = DEFAULT_MAX_HYPERPLANES) -> CellComplex:
    """All nonempty sign-assignment cells of a hyperplane arrangement.

    Cells partition R^ambient; each is relatively open and convex and comes
    with an exact rational witness and its dimension.  Output is sorted
    lexicographically by sign vector with < before = before >.
    """
    hps = sorted(set(hyperplane_of(a, b) for a, b in hyperplanes))
    if len(hps) > max_hyperplanes:
        raise ResourceError(
            f"{len(hps)} hyperplanes exceed the cap {max_hyperplanes}")
    key = (ambient, tuple(hps))
    hit = _complex_cache.get(key)
    if hit is not None:
        return hit

    m = len(hps)
    cells: list[Cell] = []
    root_flat = _Flat(zero_vec(ambient), tuple(
        vec([1 if i == j else 0 for i in range(ambient)]) for j in range(ambient)))
    funcs = [_restrict(vec(a), b, root_flat) for a, b in hps]

    def descend(flat, funcs_rest, stricts, point_z, gk):
        """Chart of the sub-flat {g = 0} through point_z; transforms the
        carried strict constraints and the remaining functionals."""
        d = flat.dim
        basis_z = nullspace([gk], d)
        origin = flat.to_ambient(point_z)
        dirs = []
        for u in basis_z:
            direction = zero_vec(ambient)
            for c, bv in zip(u, flat.basis):
                if c != 0:
                    direction = vadd(direction, vscale(c, bv))
            dirs.append(direction)
        new_flat = _Flat(origin, tuple(dirs))
        new_stricts = []
        for h, h0 in stricts:
            h2 = tuple(dot(h, u) for u in basis_z)
            h02 = dot(h, point_z) + h0
            if all(c == 0 for c in h2):
                if h02 <= 0:
                    raise InvariantError(
                        "a strict side constraint fails on its own flat")
                continue
            new_stricts.append(_normalize_functional(h2, h02))
        new_funcs = []
        for g, g0 in funcs_rest:
            g2 = tuple(dot(g, u) for u in basis_z)
            g02 = dot(g, point_z) + g0
            new_funcs.append(_normalize_functional(g2, g02))
        return new_flat, new_funcs, new_stricts, zero_vec(len(basis_z))

    def recurse(k, signs, flat, funcs_rest, stricts, w):
        if k == m:
            cells.append(Cell(tuple(signs), flat.dim, flat.to_ambient(w)))
            return
        g, g0 = funcs_rest[0]
        rest = funcs_rest[1:]
        if all(c == 0 for c in g):
            # hyperplane contains (or misses) the whole flat: sign is forced
            signs.append(sign(g0))
            recurse(k + 1, signs, flat, rest, stricts, w)
            signs.pop()
            return
        v = dot(g, w) + g0
        s0 = sign(v)
        children = {}
        if s0 != 0:
            oriented = (g, g0) if s0 > 0 else (tuple(-c for c in g), -g0)
            # probe: does the region reach the other side of this hyperplane?
            # a single ray shot usually settles it; otherwise ask the LP
            zstar = _ray_probe(stricts, w, oriented[0], s0 * v)
            if zstar is None:
                cons = [(h, -h0) for h, h0 in stricts]
                zstar = improve_below(cons, w, oriented[0], oriented[1], _ZERO)
            if zstar is None:
                # hyperplane misses the region: the constraint is redundant
                children[s0] = (flat, rest, stricts, w)
            else:
                children[s0] = (flat, rest, stricts + [oriented], w)
                vstar = dot(oriented[0], zstar) + oriented[1]
                vpos = s0 * v  # = |v| > 0
                step = tuple(b - a for a, b in zip(w, zstar))
                t_on = vpos / (vpos - vstar)
                w_on = vadd(w, vscale(t_on, step))
                w_opp = vadd(w, vscale((t_on + 1) / 2, step))
                children[0] = descend(flat, rest, stricts, w_on, g)
                opp = (tuple(-c for c in oriented[0]), -oriented[1])
                children[-s0] = (flat, rest, stricts + [opp], w_opp)
        else:
            # witness sits on the hyperplane; both open sides are nonempty
            children[0] = descend(flat, rest, stricts, w, g)
            u = g
            gu = dot(g, u)
            eps = None
            for h, h0 in stricts:
                hu = dot(h, u)
                if hu != 0:
                    room = (dot(h, w) + h0) / abs(hu)
                    eps = room if eps is None or room < eps else eps
            eps = (eps / 2) if eps is not None else _ONE
            w_plus = vadd(w, vscale(eps, u))
            w_minus = vadd(w, vscale(-eps, u))
            children[1] = (flat, rest, stricts + [(g, g0)], w_plus)
            children[-1] = (flat, rest,
                            stricts + [(tuple(-c for c in g), -g0)], w_minus)
        for s in (-1, 0, 1):
            if s in children:
                signs.append(s)
                recurse(k + 1, signs, *children[s])
                signs.pop()

    recurse(0, [], root_flat, funcs, [], zero_vec(ambient))
    cells.sort(key=lambda c: c.signs)
    cc = CellComplex(ambient, tuple(hps), tuple(cells))
    if len(_complex_cache) > 128:
        _complex_cache.clear()
    _complex_cache[key] = cc
    return cc


def complex_of(C: ConstructibleSet,
               max_hyperplanes: int = DEFAULT_MAX_HYPERPLANES) -> CellComplex:
    return cell_complex(hyperplanes_of(C), C.ambient, max_hyperplanes)


def functions_equal(f: SignedPolyCombo, g: SignedPolyCombo,
                    max_hyperplanes: int = DEFAULT_MAX_HYPERPLANES) -> bool:
    """Do two signed combinations agree at every point of R^n?

    Both sides are constant on the cells of the arrangement spanned by all
    facet hyperplanes occurring in either side, so comparing cell witnesses
    decides equality exactly.
    """
    if f.ambient != g.ambient:
        raise UsageError("combos must share an ambient dimension")
    hps = set()
    for combo in (f, g):
        for P in combo.terms:
            for a, b in P.rows:
                hps.add(hyperplane_of(a, b))
    cc = cell_complex(sorted(hps), f.ambient, max_hyperplanes)
    return all(f.evaluate(c.witness) == g.evaluate(c.witness) for c in cc.cells)


# ---------------------------------------------------------------------------
# expression DSL
#
#   dim 2; 2x1 - 3x2 >= 5/2 & (x1 > 0 | !(x2 >= 1)) \ x1 >= 3
#
# Connectives: ! (not), & (and), \ (difference), | (or), with that
# precedence, tightest first.  Variables are x1..xn.  The valuation DSL of
# ``motivic`` shares all of this but the reader for one side of an atom.


_TOKEN_SPEC = [
    ("num", r"\d+(?:/\d+)?"),
    ("var", r"x\d+"),
    ("word", r"[A-Za-z_]\w*"),
    ("op", r">=|<=|=|>|<"),
    ("punct", r"[-+*^;()&|!\\]"),
    ("ws", r"[ \t\r\n]+"),
]

_TOKEN_RE = re.compile("|".join(f"(?P<{k}>{p})" for k, p in _TOKEN_SPEC))


@dataclass
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        val = m.group()
        if kind != "ws":
            toks.append(_Tok(kind, val, line, col))
        nl = val.count("\n")
        if nl:
            line += nl
            col = len(val) - val.rfind("\n")
        else:
            col += len(val)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    """Recursive descent over one token list; ``side(p, n)`` reads one side
    of a comparison as a (coefficient vector, constant) pair."""

    def __init__(self, text: str, side):
        self.toks = _tokenize(text)
        self.pos = 0
        self.side = side
        self.depth = 0  # open '!' and '(' levels, capped at MAX_NESTING

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def take(self, kind=None, text=None) -> _Tok:
        tok = self.toks[self.pos]
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text!r}", tok.line, tok.col)
        if text is not None and tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}",
                             tok.line, tok.col)
        self.pos += 1
        return tok

    def rational(self) -> Fraction:
        """Take a number token and read it as a rational."""
        tok = self.take("num")
        try:
            return parse_rat(tok.text)
        except UsageError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None


def parse_constructible(text: str) -> ConstructibleSet:
    """Parse the expression DSL: header ``dim n;`` then a Boolean formula."""
    p = _Parser(text, _parse_linsum)
    p.take(text="dim")
    ntok = p.take("num")
    if "/" in ntok.text:
        raise ParseError("ambient dimension must be an integer", ntok.line, ntok.col)
    n = parse_ambient(ntok.text)
    p.take(text=";")
    expr = _parse_or(p, n)
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return ConstructibleSet(n, expr)


def _parse_or(p: _Parser, n: int) -> Expr:
    left = _parse_diff(p, n)
    while p.peek().text == "|":
        p.take()
        right = _parse_diff(p, n)
        left = Or((left, right))
    return left


def _parse_diff(p: _Parser, n: int) -> Expr:
    left = _parse_and(p, n)
    while p.peek().text == "\\":
        p.take()
        right = _parse_and(p, n)
        left = And((left, Not(right)))
    return left


def _parse_and(p: _Parser, n: int) -> Expr:
    left = _parse_unary(p, n)
    while p.peek().text == "&":
        p.take()
        right = _parse_unary(p, n)
        left = And((left, right))
    return left


def _parse_unary(p: _Parser, n: int) -> Expr:
    tok = p.peek()
    if tok.text not in ("!", "("):
        return _parse_atom(p, n)
    p.take()
    p.depth += 1
    if p.depth > MAX_NESTING:
        raise ResourceError(f"line {tok.line}, col {tok.col}: expression "
                            f"nested deeper than {MAX_NESTING} levels")
    if tok.text == "!":
        out = Not(_parse_unary(p, n))
    else:
        out = _parse_or(p, n)
        p.take(text=")")
    p.depth -= 1
    return out


def _parse_linsum(p: _Parser, n: int):
    """Linear expression -> (coefficient vector, constant)."""
    coeffs = [Fraction(0)] * n
    const = Fraction(0)
    sgn = Fraction(1)
    first = True
    while True:
        tok = p.peek()
        if tok.text in ("+", "-"):
            p.take()
            sgn = Fraction(1) if tok.text == "+" else Fraction(-1)
        elif not first:
            break
        tok = p.peek()
        if tok.kind == "num":
            value = p.rational()
            star = p.peek().text == "*"
            if star:
                p.take()
            if star or p.peek().kind == "var":
                coeffs[_var_index(p.take("var"), n)] += sgn * value
            else:
                const += sgn * value
        elif tok.kind == "var":
            p.take()
            coeffs[_var_index(tok, n)] += sgn
        else:
            raise ParseError(f"expected a term, found {tok.text!r}",
                             tok.line, tok.col)
        sgn = Fraction(1)
        first = False
        if p.peek().text not in ("+", "-"):
            break
    return coeffs, const


def _var_index(tok: _Tok, n: int) -> int:
    """The 0-based slot of a variable token xi; i must lie in 1..n.  The
    length test keeps int() away from an arbitrarily long index."""
    digits = tok.text[1:].lstrip("0") or "0"
    if len(digits) > len(str(n)) or not 1 <= int(digits) <= n:
        shown = digits if len(digits) <= 20 else f"{digits[:20]}... ({len(digits)} digits)"
        raise ParseError(f"variable x{shown} outside x1..x{n}", tok.line, tok.col)
    return int(digits) - 1


def _parse_atom(p: _Parser, n: int) -> Expr:
    lhs_c, lhs_k = p.side(p, n)
    op = p.take("op")
    rhs_c, rhs_k = p.side(p, n)
    a = [l - r for l, r in zip(lhs_c, rhs_c)]
    c = rhs_k - lhs_k  # a·x >= c (for >=-type ops)
    if op.text in ("<=", "<"):
        a = [-x for x in a]
        c = -c
    if op.text == "=":
        if all(x == 0 for x in a):
            return TRUE if c == 0 else FALSE
        return And((atom(a, c), atom([-x for x in a], -c)))
    strict = op.text in (">", "<")
    if all(x == 0 for x in a):
        holds = (0 > c) if strict else (0 >= c)
        return TRUE if holds else FALSE
    return atom(a, c, strict)


def render_expr(expr) -> str:
    """Canonical rendering; parses back to the same tree."""
    return _render(expr, 0)


def _render(expr, level) -> str:
    # levels: 0 or, 1 diff-free (and), 2 unary
    if isinstance(expr, Atom):
        terms = []
        for i, coef in enumerate(expr.a):
            if coef == 0:
                continue
            mag = abs(coef)
            body = f"x{i + 1}" if mag == 1 else f"{mag}x{i + 1}"
            if not terms:
                terms.append(body if coef > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if coef > 0 else f"- {body}")
        lhs = " ".join(terms)
        cmp_ = ">" if expr.strict else ">="
        return f"{lhs} {cmp_} {format_rat(expr.b)}"
    if isinstance(expr, And):
        if not expr.args:
            return "0 >= 0"  # tautology: the whole space
        body = " & ".join(_render(e, 2) for e in expr.args)
        return f"({body})" if level > 1 else body
    if isinstance(expr, Or):
        if not expr.args:
            return "0 > 0"  # contradiction: the empty set
        body = " | ".join(_render(e, 1) for e in expr.args)
        return f"({body})" if level > 0 else body
    return f"!({_render(expr.arg, 0)})"


def render_constructible(C: ConstructibleSet) -> str:
    return f"dim {C.ambient}; {render_expr(C.expr)}"
