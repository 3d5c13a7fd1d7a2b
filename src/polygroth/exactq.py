"""Exact rational linear algebra and linear programming.

Scalars are ``fractions.Fraction`` throughout, so every operation is exact and
values are always stored in lowest terms with a positive denominator.  The
simplex solver pivots with Bland's rule and therefore terminates on every
input; instances here are tiny (ambient dimension <= 6, a few dozen rows),
which makes exact pivoting affordable.

Rational literals in text formats are ``p``, ``-p`` or ``p/q`` with q > 0.
Decimal notation is never accepted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .errors import DomainError, InvariantError, UsageError

Rat = Fraction
Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)

_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def rat(value) -> Fraction:
    """Coerce an int, a string literal, or a Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rat(value)
    raise UsageError(f"cannot interpret {value!r} as a rational")


def parse_rat(text: str) -> Fraction:
    """Parse ``p``, ``-p`` or ``p/q`` with q > 0; no decimals."""
    m = _RAT_RE.match(text.strip())
    if m is None:
        raise UsageError(f"bad rational literal {text!r} (use p, -p or p/q with q > 0)")
    num = int(m.group(1))
    den = m.group(2)
    if den is None:
        return Fraction(num)
    if int(den) == 0:
        raise UsageError(f"bad rational literal {text!r}: zero denominator")
    return Fraction(num, int(den))


def format_rat(q: Fraction) -> str:
    q = rat(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def vec(values) -> Vec:
    return tuple(rat(v) for v in values)


def zero_vec(n: int) -> Vec:
    return (_ZERO,) * n


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise UsageError(f"dimension mismatch in dot product: {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), _ZERO)


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vscale(c: Fraction, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def sign(q: Fraction) -> int:
    if q > 0:
        return 1
    if q < 0:
        return -1
    return 0


# ---------------------------------------------------------------------------
# Gaussian elimination


def gauss_solve(rows, rhs, n: Optional[int] = None):
    """Solve A x = b exactly.

    Returns ``(x, nullspace_basis)`` where ``x`` is one solution (free
    coordinates pinned to zero) and the basis spans the solutions of
    A x = 0, or ``None`` when the system is inconsistent.  ``n`` is the
    number of unknowns; it may be omitted when A has at least one row.
    """
    rows = [tuple(rat(x) for x in row) for row in rows]
    rhs = [rat(x) for x in rhs]
    if len(rows) != len(rhs):
        raise UsageError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    if n is None:
        if not rows:
            raise UsageError("number of unknowns required for an empty system")
        n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise UsageError("ragged coefficient matrix")

    aug = [list(r) + [c] for r, c in zip(rows, rhs)]
    pivots: list[int] = []
    prow = 0
    for col in range(n):
        pr = next((i for i in range(prow, len(aug)) if aug[i][col] != 0), None)
        if pr is None:
            continue
        aug[prow], aug[pr] = aug[pr], aug[prow]
        pv = aug[prow][col]
        if pv != 1:
            aug[prow] = [x / pv for x in aug[prow]]
        for i in range(len(aug)):
            if i != prow and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[prow])]
        pivots.append(col)
        prow += 1
        if prow == len(aug):
            break
    for i in range(prow, len(aug)):
        if aug[i][n] != 0:
            return None

    x = [_ZERO] * n
    for r, c in enumerate(pivots):
        x[c] = aug[r][n]
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [_ZERO] * n
        v[fc] = _ONE
        for r, c in enumerate(pivots):
            v[c] = -aug[r][fc]
        basis.append(tuple(v))
    return tuple(x), basis


def nullspace(rows, n: int) -> list[Vec]:
    """Basis of {v : A v = 0}."""
    rows = list(rows)
    solved = gauss_solve(rows, [_ZERO] * len(rows), n)
    if solved is None:
        raise InvariantError("a homogeneous system came out inconsistent")
    return solved[1]


def mat_rank(rows, n: int) -> int:
    rows = list(rows)
    return n - len(nullspace(rows, n))


# ---------------------------------------------------------------------------
# Primitive normalization of half-space data


def primitive_normalize(a, b) -> tuple[tuple[int, ...], Fraction]:
    """Rescale a·x >= b by a positive rational so that a is a primitive
    integer vector (gcd of entries 1).  The solution set is unchanged."""
    av = [rat(x) for x in a]
    if all(x == 0 for x in av):
        raise DomainError("degenerate constraint: zero normal vector")
    den = 1
    for x in av:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in av]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    scale = Fraction(den, g)
    return tuple(v // g for v in ints), rat(b) * scale


# ---------------------------------------------------------------------------
# Exact simplex (Bland's rule)
#
# Problems are stated over free variables x with constraints a·x >= b only.
# Internally x is split as p - q with p, q >= 0 and each constraint gets a
# surplus variable; phase 1 introduces artificials where needed.


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimum" | "infeasible" | "unbounded"
    value: Optional[Fraction] = None
    point: Optional[Vec] = None


def _check_constraints(constraints, n):
    rows = []
    for a, b in constraints:
        a = vec(a)
        if len(a) != n:
            raise UsageError(f"constraint of length {len(a)} in dimension {n}")
        rows.append((a, rat(b)))
    return rows


def _bland_min(tab, rhs, obj, basis, zval, stop_below=None):
    """Run the simplex on a min problem already in canonical form.

    ``tab`` is the m x ncols tableau, ``rhs`` >= 0, ``basis[i]`` the basic
    column of row i, ``obj`` the reduced-cost row and ``zval`` the current
    objective value.  Returns (status, zval) where status is "optimal",
    "unbounded" (entering column left in ``tab.entering``... returned) or
    "early" when ``stop_below`` was undercut.  Mutates everything in place.
    """
    m = len(tab)
    ncols = len(obj)
    while True:
        if stop_below is not None and zval < stop_below:
            return "early", zval, None
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return "optimal", zval, None
        best = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = rhs[i] / coef
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < best[1]):
                    best = (ratio, basis[i], i)
        if best is None:
            return "unbounded", zval, enter
        _, _, leave = best
        piv = tab[leave][enter]
        prow = tab[leave]
        if piv != 1:
            prow = [x / piv for x in prow]
            tab[leave] = prow
            rhs[leave] = rhs[leave] / piv
        for i in range(m):
            if i != leave:
                f = tab[i][enter]
                if f != 0:
                    row = tab[i]
                    tab[i] = [x - f * y for x, y in zip(row, prow)]
                    rhs[i] -= f * rhs[leave]
        f = obj[enter]
        if f != 0:
            obj[:] = [x - f * y for x, y in zip(obj, prow)]
            zval += f * rhs[leave]
        basis[leave] = enter


def lp_optimize(constraints, objective, sense: str = "max") -> LPResult:
    """Exact optimum of objective·x over {x : a·x >= b for all constraints}.

    Returns the optimum with an attaining point, or the correct
    infeasible/unbounded verdict.
    """
    objective = vec(objective)
    n = len(objective)
    rows = _check_constraints(constraints, n)
    if sense not in ("max", "min"):
        raise UsageError(f"sense must be 'max' or 'min', got {sense!r}")
    m = len(rows)

    # Columns: p(0..n-1), q(n..2n-1), surplus s(2n..2n+m-1), artificials after.
    base_cols = 2 * n + m
    tab: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    basis: list[int] = []
    art_cols: list[int] = []
    for i, (a, b) in enumerate(rows):
        row = [_ZERO] * base_cols
        if b <= 0:
            # negate: -a·p + a·q + s = -b >= 0, s basic
            for j in range(n):
                row[j] = -a[j]
                row[n + j] = a[j]
            row[2 * n + i] = _ONE
            tab.append(row)
            rhs.append(-b)
            basis.append(2 * n + i)
        else:
            # a·p - a·q - s + t = b, artificial t basic
            for j in range(n):
                row[j] = a[j]
                row[n + j] = -a[j]
            row[2 * n + i] = -_ONE
            tab.append(row)
            rhs.append(b)
            basis.append(-1)  # placeholder until artificial column appended
    for i in range(m):
        if basis[i] == -1:
            col = base_cols + len(art_cols)
            art_cols.append(col)
            basis[i] = col
    ncols = base_cols + len(art_cols)
    for i in range(m):
        row = tab[i]
        row.extend([_ZERO] * (ncols - len(row)))
        if basis[i] >= base_cols:
            row[basis[i]] = _ONE

    if art_cols:
        obj = [_ZERO] * ncols
        zval = _ZERO
        for i in range(m):
            if basis[i] >= base_cols:
                row = tab[i]
                obj = [x - y for x, y in zip(obj, row)]
                zval += rhs[i]
        for c in art_cols:
            obj[c] = _ZERO
        status, zval, _ = _bland_min(tab, rhs, obj, basis, zval)
        if status != "optimal":
            raise InvariantError(f"phase one ended {status}, not optimal")
        if zval > 0:
            return LPResult("infeasible")
        # pivot surviving artificials out of the basis; drop redundant rows
        keep = []
        for i in range(m):
            if basis[i] >= base_cols:
                piv = next((j for j in range(base_cols) if tab[i][j] != 0), None)
                if piv is None:
                    continue  # row is redundant
                pv = tab[i][piv]
                prow = [x / pv for x in tab[i]]
                tab[i] = prow
                rhs[i] = rhs[i] / pv  # zero: a basic artificial sits at level 0
                for k in range(m):
                    if k != i and tab[k][piv] != 0:
                        f = tab[k][piv]
                        tab[k] = [x - f * y for x, y in zip(tab[k], prow)]
                        rhs[k] -= f * rhs[i]
                basis[i] = piv
            keep.append(i)
        tab = [tab[i][:base_cols] for i in keep]
        rhs = [rhs[i] for i in keep]
        basis = [basis[i] for i in keep]
        ncols = base_cols

    # phase 2
    cost = [_ZERO] * ncols
    mult = _ONE if sense == "min" else -_ONE
    for j in range(n):
        cost[j] = mult * objective[j]
        cost[n + j] = -mult * objective[j]
    obj = list(cost)
    zval = _ZERO
    for i in range(len(tab)):
        cb = cost[basis[i]]
        if cb != 0:
            obj = [x - cb * y for x, y in zip(obj, tab[i])]
            zval += cb * rhs[i]
    for i in range(len(tab)):
        obj[basis[i]] = _ZERO
    status, zval, _ = _bland_min(tab, rhs, obj, basis, zval)
    if status == "unbounded":
        return LPResult("unbounded")
    point = _extract_point(rhs, basis, n)
    value = zval if sense == "min" else -zval
    return LPResult("optimum", value, point)


def _extract_point(rhs, basis, n) -> Vec:
    vals = {}
    for i, b in enumerate(basis):
        vals[b] = rhs[i]
    return tuple(vals.get(j, _ZERO) - vals.get(n + j, _ZERO) for j in range(n))


def lp_feasible(constraints, n: int) -> Optional[Vec]:
    """A point of {x : a·x >= b for all constraints}, or None if empty."""
    res = lp_optimize(_check_constraints(constraints, n), zero_vec(n), "min")
    if res.status == "infeasible":
        return None
    if res.point is None:
        raise InvariantError("a feasible LP returned no point")
    return res.point


def improve_below(constraints, witness, objective, obj_const, bound) -> Optional[Vec]:
    """Search {x : a·x >= b} for a point with objective·x + obj_const < bound.

    ``witness`` must satisfy every constraint (weak feasibility suffices);
    because of that the search is phase-1-free: it starts from the witness
    and stops at the first basic solution under the bound.  Returns such a
    point, or None when the exact minimum is >= bound.

    This is the engine's hottest routine, so the tableau is kept integral
    (fraction-free pivoting); only the right-hand sides carry rationals.
    """
    witness = vec(witness)
    n = len(witness)
    obj = [rat(c) for c in objective]
    if len(obj) != n:
        raise UsageError("objective length does not match the witness")
    scale = 1
    for c in obj:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    gint = [int(c * scale) for c in obj]
    bound_s = (rat(bound) - rat(obj_const)) * scale
    cur = sum((g * x for g, x in zip(gint, witness)), _ZERO)
    if cur < bound_s:
        return witness
    target = bound_s - cur  # want g·(x - witness) < target <= 0

    # integral tableau M / den with rational rhs; columns p(n), q(n), s(m)
    mat: list[list[int]] = []
    rhs: list[Fraction] = []
    basis: list[int] = []
    for i, (a, b) in enumerate(constraints):
        av = [rat(c) for c in a]
        if len(av) != n:
            raise UsageError("constraint length does not match the witness")
        d = 1
        for c in av:
            d = d * c.denominator // gcd(d, c.denominator)
        aint = [int(c * d) for c in av]
        slack = sum((c * x for c, x in zip(av, witness)), _ZERO) - rat(b)
        if slack < 0:
            raise UsageError("witness violates a constraint")
        row = [0] * (2 * n + len(constraints))
        for j in range(n):
            row[j] = -aint[j]
            row[n + j] = aint[j]
        row[2 * n + i] = 1
        mat.append(row)
        rhs.append(d * slack)
        basis.append(2 * n + i)
    m = len(mat)
    ncols = 2 * n + m
    objrow = [0] * ncols
    for j in range(n):
        objrow[j] = gint[j]
        objrow[n + j] = -gint[j]
    den = 1
    zval = _ZERO

    def extract(extra=None):
        delta = dict(extra or {})
        for i, bv in enumerate(basis):
            delta[bv] = delta.get(bv, _ZERO) + rhs[i]
        dvec = tuple(delta.get(j, _ZERO) - delta.get(n + j, _ZERO) for j in range(n))
        return vadd(witness, dvec)

    while True:
        if zval < target:
            return extract()
        sden = 1 if den > 0 else -1
        enter = next((j for j in range(ncols) if objrow[j] * sden < 0), None)
        if enter is None:
            return None  # optimal with min >= bound
        best = None  # (rhs, coef, basis var, row): minimized rhs/ (coef/den)
        for i in range(m):
            coef = mat[i][enter]
            if coef * sden > 0:
                if best is None:
                    best = (rhs[i], coef, basis[i], i)
                else:
                    # compare rhs[i]/coef[i] vs best, both true-denominators > 0
                    lhs_ = rhs[i] * (best[1] * sden)
                    rhs_ = best[0] * (coef * sden)
                    if lhs_ < rhs_ or (lhs_ == rhs_ and basis[i] < best[2]):
                        best = (rhs[i], coef, basis[i], i)
        if best is None:
            # unbounded: follow the improving ray below the target
            true_slope = Fraction(objrow[enter], den)
            tau = (zval - target) / (-true_slope) + 1
            extra = {enter: tau}
            for i in range(m):
                coef = mat[i][enter]
                if coef:
                    rhs[i] -= tau * Fraction(coef, den)
            return extract(extra)
        r = best[3]
        piv = mat[r][enter]
        # rationals first (they need the old matrix column)
        rhs_r_new = rhs[r] * den / piv
        for i in range(m):
            if i != r:
                coef = mat[i][enter]
                if coef:
                    rhs[i] -= Fraction(coef, den) * rhs_r_new
        rhs[r] = rhs_r_new
        zval += Fraction(objrow[enter], den) * rhs_r_new
        # fraction-free update of the integer tableau
        prow = mat[r]
        for i in range(m):
            if i == r:
                continue
            row = mat[i]
            coef = row[enter]
            if coef:
                mat[i] = [(x * piv - coef * y) // den for x, y in zip(row, prow)]
            else:
                mat[i] = [x * piv // den for x in row]
        coef = objrow[enter]
        if coef:
            objrow[:] = [(x * piv - coef * y) // den for x, y in zip(objrow, prow)]
        else:
            objrow[:] = [x * piv // den for x in objrow]
        den = piv
        basis[r] = enter
