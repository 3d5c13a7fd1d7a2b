import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polygroth.constructible import ConstructibleSet, eval_point, parse_constructible
from polygroth.errors import FragmentError, InvariantError, ParseError, UsageError
from polygroth.euler import chi, chi_b
from polygroth.motivic import (
    IntPoly,
    SemialgDesc,
    VFClass,
    in_kernel_psi,
    kernel_factor,
    parse_semialg,
    psi,
    semialg_class,
    theta_trop_class,
    vf_L,
    vf_one,
    vf_tau,
    vf_zero,
)
from polygroth.suites import random_constructible

small_polys = st.lists(st.integers(-6, 6), max_size=5).map(IntPoly)


# -- IntPoly ----------------------------------------------------------------


@given(small_polys, small_polys, small_polys)
def test_intpoly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == IntPoly()


def test_intpoly_eval_and_division():
    p = IntPoly((-1, 0, 1))  # x^2 - 1
    assert p(3) == 8
    q = p.divexact_linear(1)
    assert q == IntPoly((1, 1))
    with pytest.raises(UsageError):
        IntPoly((1, 1)).divexact_linear(1)


def test_intpoly_render():
    assert IntPoly((-1, 1)).render("L") == "L - 1"
    assert IntPoly((1, -2, 1)).render("tau") == "tau^2 - 2*tau + 1"
    assert IntPoly(()).render("L") == "0"
    assert IntPoly((5,)).render("L") == "5"


# -- the pair ring ------------------------------------------------------------


def test_compatibility_enforced():
    with pytest.raises(InvariantError):
        VFClass(IntPoly.x(), IntPoly.const(2))  # f(1)=1, g(1)=2


def test_defining_relation():
    L, tau, one = vf_L(), vf_tau(), vf_one()
    assert (L - one) * (tau - one) == vf_zero()


def test_L_times_tau():
    L, tau, one = vf_L(), vf_tau(), vf_one()
    # in the quotient, L*tau = L + tau - 1
    assert L * tau == L + tau - one


def test_one_is_identity():
    x = vf_L() * 3 - vf_tau() + 2
    assert vf_one() * x == x
    assert vf_zero() + x == x


def brute_force_reduce(coeffs):
    """Oracle: reduce an integer bivariate polynomial modulo (L-1)(tau-1)
    to the basis {1, L^i, tau^j} by rewriting L·tau -> L + tau - 1."""
    work = dict(coeffs)
    while True:
        key = next((k for k, v in work.items()
                    if v and k[0] >= 1 and k[1] >= 1), None)
        if key is None:
            break
        i, j = key
        c = work.pop(key)
        for kk, s in (((i, j - 1), 1), ((i - 1, j), 1), ((i - 1, j - 1), -1)):
            work[kk] = work.get(kk, 0) + c * s
    work = {k: v for k, v in work.items() if v}
    f = {}
    g = {}
    for (i, j), c in work.items():
        assert i == 0 or j == 0
        if i > 0:
            f[i] = f.get(i, 0) + c
        elif j > 0:
            g[j] = g.get(j, 0) + c
        else:
            f[0] = f.get(0, 0) + c
            g[0] = g.get(0, 0) + c
    # constants of g that came from tau-monomials evaluate into f at L... no:
    # f collects 1 and L^i terms with tau -> 1; g symmetrically
    for (i, j), c in work.items():
        if i == 0 and j > 0:
            f[0] = f.get(0, 0) + c
        if j == 0 and i > 0:
            g[0] = g.get(0, 0) + c
    fp = IntPoly([f.get(k, 0) for k in range(max(f, default=0) + 1)])
    gp = IntPoly([g.get(k, 0) for k in range(max(g, default=0) + 1)])
    return VFClass(fp, gp)


def test_pair_ring_matches_bruteforce_reduction():
    rng = random.Random(7)
    L, tau = vf_L(), vf_tau()
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            key = (rng.randint(0, 4), rng.randint(0, 4))
            terms[key] = terms.get(key, 0) + rng.randint(-4, 4)
        direct = vf_zero()
        for (i, j), c in terms.items():
            direct = direct + c * (L ** i) * (tau ** j)
        assert direct == brute_force_reduce(terms)


# -- theta_trop ----------------------------------------------------------------


def test_theta_trop_generators():
    halfline = parse_constructible("dim 1; x1 >= 0")
    cls = theta_trop_class(halfline)
    assert cls == VFClass(IntPoly((-1, 1)), IntPoly())  # (L - 1, 0)

    openhalf = parse_constructible("dim 1; x1 > 0")
    cls = theta_trop_class(openhalf)
    assert cls == VFClass(IntPoly(), IntPoly((-1, 1)))  # (0, tau - 1)


def test_theta_trop_point_is_torus():
    pt = parse_constructible("dim 1; x1 = 0")
    cls = theta_trop_class(pt)
    assert cls == VFClass(IntPoly((-1, 1)), IntPoly((1, -1)))  # (L-1, 1-tau)


def test_theta_trop_torus_powers():
    pt2 = parse_constructible("dim 2; x1 = 0 & x2 = 0")
    cls = theta_trop_class(pt2)
    assert cls == VFClass(IntPoly((-1, 1)) ** 2, IntPoly((1, -1)) ** 2)


def test_theta_trop_additive_on_disjoint():
    rng = random.Random(31)
    for _ in range(20):
        Cset = random_constructible(rng, 1, rng.randint(1, 4), rng.randint(2, 5))
        Dset = random_constructible(rng, 1, rng.randint(1, 4), rng.randint(2, 5))
        D2 = Dset - Cset
        union = Cset | D2
        assert theta_trop_class(union) == \
            theta_trop_class(Cset) + theta_trop_class(D2)


# -- semialg classes -------------------------------------------------------------


def test_closed_ball_class():
    S = SemialgDesc(1, parse_constructible("dim 1; x1 >= 0"), extra_points=1)
    cls = semialg_class(S)
    assert cls == VFClass(IntPoly.x(), IntPoly.const(1))  # (L, 1)


def test_empty_semialg():
    S = SemialgDesc(1, ConstructibleSet.empty(1))
    assert semialg_class(S) == vf_zero()


def test_sphere_powers():
    for n in (1, 2, 3):
        expr = " & ".join(f"x{i+1} = 0" for i in range(n))
        S = SemialgDesc(n, parse_constructible(f"dim {n}; {expr}"))
        cls = semialg_class(S)
        assert cls == VFClass(IntPoly((-1, 1)) ** n, IntPoly((1, -1)) ** n)


# -- psi and its kernel ------------------------------------------------------------


def test_psi_values():
    open_ball = SemialgDesc(1, parse_constructible("dim 1; x1 > 0"),
                            extra_points=1)
    assert semialg_class(open_ball) == vf_tau()
    assert psi(semialg_class(open_ball)) == IntPoly.const(1)
    assert psi(vf_one()) == IntPoly.const(1)


def test_psi_ring_morphism_random():
    rng = random.Random(37)
    L, tau = vf_L(), vf_tau()

    def rand_vf():
        acc = vf_zero()
        for _ in range(rng.randint(1, 4)):
            acc = acc + rng.randint(-3, 3) * (L ** rng.randint(0, 3)) * \
                (tau ** rng.randint(0, 3))
        return acc

    for _ in range(50):
        x, y = rand_vf(), rand_vf()
        assert psi(x * y) == psi(x) * psi(y)
        assert psi(x + y) == psi(x) + psi(y)


def test_psi_of_trop_class():
    rng = random.Random(41)
    for _ in range(15):
        Cset = random_constructible(rng, 1, rng.randint(1, 3), rng.randint(2, 5))
        got = psi(theta_trop_class(Cset))
        expected = IntPoly.const(chi(Cset) + chi_b(Cset)) + \
            chi_b(Cset) * (IntPoly((-1, 1))) - chi_b(Cset)
        # psi = chi_b*(L-1)^1 + degree-0 part; compute directly instead
        n = 1
        expected = chi_b(Cset) * (IntPoly((-1, 1)) ** n)
        cls = theta_trop_class(Cset)
        assert got == cls.f
        assert got == expected


def test_kernel_membership_and_factorization():
    one = vf_one()
    open_ball_minus_1 = vf_tau() - one
    assert in_kernel_psi(open_ball_minus_1)
    closed_ball_minus_1 = vf_L() - one
    assert not in_kernel_psi(closed_ball_minus_1)
    assert psi(closed_ball_minus_1) == IntPoly((-1, 1))

    y = kernel_factor(open_ball_minus_1)
    assert (vf_tau() - one) * y == open_ball_minus_1

    with pytest.raises(UsageError):
        kernel_factor(closed_ball_minus_1)


def test_kernel_factor_random():
    rng = random.Random(43)
    tau, one = vf_tau(), vf_one()
    for _ in range(40):
        # anything with zero L-part is a (tau - 1)-multiple
        g = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
        g.append(-sum(g))  # force g(1) = 0
        x = VFClass(IntPoly(), IntPoly(g))
        y = kernel_factor(x)
        assert (tau - one) * y == x
    assert kernel_factor(vf_zero()) == vf_zero()


# -- the DSL -------------------------------------------------------------------------


def test_parse_semialg_simple():
    S = parse_semialg("torus 1; val(x1) >= 0;")
    assert S.n == 1 and S.extra_points == 0
    assert eval_point(S.body, [0]) and not eval_point(S.body, [-1])


def test_parse_semialg_t_powers():
    S = parse_semialg("torus 1; val(x1) >= val(t^1);")
    assert eval_point(S.body, [1]) and not eval_point(S.body, [F(1, 2)])


def test_parse_semialg_monomials():
    S = parse_semialg("torus 2; val(x1^2) > val(t^1 * x2);")
    # 2 w1 - w2 > 1
    assert eval_point(S.body, [1, 0])
    assert not eval_point(S.body, [F(1, 2), 0])


def test_parse_semialg_points_and_body():
    S = parse_semialg("torus 1; val(x1) >= 0; point; point;")
    assert S.extra_points == 2
    assert semialg_class(S) == VFClass(IntPoly((1, 1)), IntPoly.const(2))


def test_parse_semialg_rational_exponents():
    S = parse_semialg("torus 1; val(x1) >= val(t^1/2);")
    assert eval_point(S.body, [F(1, 2)]) and not eval_point(S.body, [F(1, 4)])


def test_parse_semialg_boolean_structure():
    S = parse_semialg("torus 1; val(x1) >= 0 & !(val(x1) >= val(t^2)) | val(x1) = val(t^5);")
    assert eval_point(S.body, [0])
    assert eval_point(S.body, [5])
    assert not eval_point(S.body, [3])


def test_parse_semialg_fragment_errors():
    with pytest.raises(FragmentError):
        parse_semialg("torus 1; val(x1 + 1) >= 0;")
    with pytest.raises(FragmentError):
        parse_semialg("torus 1; val(x1 - t) >= 0;")
    with pytest.raises(ParseError):
        parse_semialg("val(x1) >= 0;")
    with pytest.raises(ParseError):
        parse_semialg("torus 1; val(x2) >= 0;")


def test_open_vs_closed_ball_kernel_elements():
    # the open-ball element lands in the kernel, the closed-ball one does not
    open_ball = parse_semialg("torus 1; val(x1) > 0; point;")
    closed_ball = parse_semialg("torus 1; val(x1) >= 0; point;")
    one = vf_one()
    assert psi(semialg_class(open_ball) - one) == IntPoly()
    assert psi(semialg_class(closed_ball) - one) == IntPoly((-1, 1))  # L - 1


# -- the DSL against the dim n; reader -------------------------------------------------
#
# A random Boolean tree over comparisons of sides (e, s) is rendered twice:
# as val(t^s * x^e) text and as the linear text e·x + s.  Both readers share
# the Boolean grammar and _parse_atom, so the trees must be equal.

_COMPARISONS = (">=", ">", "<=", "<", "=")


def _random_rat(rng, lo, hi):
    den = rng.choice((1, 2, 3, 4))
    return F(rng.randint(lo * den, hi * den), den)


def _random_side(rng, n):
    expo = [_random_rat(rng, 0, 3) if rng.random() < 0.5 else F(0) for _ in range(n)]
    if not any(expo) and rng.random() < 0.5:  # a bare rational literal
        return expo, _random_rat(rng, -3, 3), True
    return expo, _random_rat(rng, 0, 3) if rng.random() < 0.5 else F(0), False


def _random_tree(rng, n, depth=3):
    roll = rng.random() if depth else 1.0
    if roll < 0.15:
        return ("!", _random_tree(rng, n, depth - 1))
    if roll < 0.3:
        return ("()", _random_tree(rng, n, depth - 1))
    if roll < 0.6:
        return (rng.choice(("&", "|", "\\")), _random_tree(rng, n, depth - 1),
                _random_tree(rng, n, depth - 1))
    return _random_side(rng, n), rng.choice(_COMPARISONS), _random_side(rng, n)


def _val_text(side):
    expo, tpow, literal = side
    if literal:
        return str(tpow)
    factors = [f"t^{tpow}"] if tpow else []
    factors += [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(expo) if e]
    return f"val({' * '.join(factors) or 't^0'})"


def _lin_text(side):
    expo, const, _ = side
    text = " + ".join(f"{e}*x{i + 1}" for i, e in enumerate(expo) if e) or "0"
    return f"{text} - {-const}" if const < 0 else f"{text} + {const}"


def _render(tree, side_text):
    if len(tree) == 2:
        inner = _render(tree[1], side_text)
        return f"!{inner}" if tree[0] == "!" else f"({inner})"
    if isinstance(tree[0], tuple):  # a comparison of two sides
        lhs, op, rhs = tree
        return f"{side_text(lhs)} {op} {side_text(rhs)}"
    op, left, right = tree
    return f"{_render(left, side_text)} {op} {_render(right, side_text)}"


def test_valuation_dsl_reads_like_linear_atoms():
    rng = random.Random(47)
    for _ in range(300):
        n = rng.randint(1, 3)
        tree = _random_tree(rng, n)
        points = rng.randint(0, 2)
        statements = ["point"] * points + [_render(tree, _val_text)]
        rng.shuffle(statements)
        S = parse_semialg(f"torus {n};\n" + ";\n".join(statements) + ";")
        assert S.n == n and S.extra_points == points
        assert S.body == parse_constructible(f"dim {n}; {_render(tree, _lin_text)}")


def test_parse_semialg_reports_the_line_of_the_fault():
    with pytest.raises(ParseError) as info:
        parse_semialg("torus 1; val(x1) >= 0 &\n val(x2) >= 0;")
    assert (info.value.line, info.value.col) == (2, 6)
    assert "x2 outside x1..x1" in str(info.value)


def test_parse_semialg_rejects_linear_text_outside_val():
    with pytest.raises(ParseError) as info:
        parse_semialg("torus 1; x1 - 3 >= 0 & -x1 + 2 >= 0;")
    assert (info.value.line, info.value.col) == (1, 10)


def test_parse_semialg_exponent_forms():
    for text in ("torus 1; val(x1^-1) >= 0;", "torus 1; val(x1^-1/2 * t^3) >= 0;"):
        with pytest.raises(FragmentError):
            parse_semialg(text)
    S = parse_semialg("torus 1; val(x1 ^ 2) >= val( t ^ 1/2 );")
    assert eval_point(S.body, [F(1, 4)]) and not eval_point(S.body, [F(1, 5)])
