"""Named verification checks, shared by the acceptance tests and the CLI
``verify-suite`` command.

Every check is a zero-argument callable returning (passed, detail); the
registry maps stable names to checks so they can be filtered with shell
globs (e.g. ``bg_*``).  Everything is seeded and exact, so the outcome is
byte-reproducible.
"""

from __future__ import annotations

import random
from fnmatch import fnmatch
from fractions import Fraction

from .briangram import bg_verify, bounded_union_chi, visible_union_chi
from .constructible import (
    cell_complex,
    eval_point,
    parse_constructible,
    product,
)
from .euler import box_clip, chi, chi_b, chi_polyhedron_closed_form, gamma_star
from .grothendieck import (
    class_of,
    class_of_polyhedron,
    class_of_polyhedron_closed_form,
    sigma,
    u_power,
    ungraded,
    v_power,
    zero,
)
from .motivic import (
    IntPoly,
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
from .onedim import SubgroupQ, chi_gamma
from .polyhedron import HPolyhedron, recession
from .suites import (
    exterior_points,
    nonempty_standard_polyhedra,
    onedim_pairs,
    product_pairs,
    random_polyhedron,
    scissor_pairs,
    standard_polyhedra,
)

SEED = 20240611


def _fail(msg):
    return False, msg


def _ok(msg=""):
    return True, msg


# -- criterion 1: generator values -------------------------------------------


def check_generator_values():
    halfline = parse_constructible("dim 1; x1 >= 0")
    openhalf = parse_constructible("dim 1; x1 > 0")
    got = (chi(halfline), chi_b(halfline), chi(openhalf), chi_b(openhalf))
    if got != (0, 1, -1, 0):
        return _fail(f"(chi, chi_b) values {got} != (0, 1, -1, 0)")
    return _ok("chi/chi_b on the closed and open half-line as pinned")


# -- criterion 2: the vanishing product --------------------------------------


def check_prodzero_class():
    halfline = parse_constructible("dim 1; x1 >= 0")
    openhalf = parse_constructible("dim 1; x1 > 0")
    prod = class_of(halfline) * class_of(openhalf)
    if prod != zero():
        return _fail(f"v*(-u) = {prod.render()} != 0")
    direct = class_of(product(halfline, openhalf))
    if direct != zero():
        return _fail(f"class of the product set is {direct.render()} != 0")
    return _ok("class(halfline)*class(openhalf) = 0, directly and as a product set")


def check_prodzero_partition():
    C = parse_constructible("dim 2; x1 > 0 & x2 >= 0")
    C1 = parse_constructible("dim 2; x1 - x2 > 0 & x2 >= 0")
    C2 = parse_constructible("dim 2; x2 - x1 >= 0 & x1 > 0")
    hps = [((1, 0), Fraction(0)), ((0, 1), Fraction(0)), ((1, -1), Fraction(0))]
    cc = cell_complex(hps, 2)
    for cell in cc.cells:
        w = cell.witness
        lhs = 1 if eval_point(C, w) else 0
        rhs = (1 if eval_point(C1, w) else 0) + (1 if eval_point(C2, w) else 0)
        if lhs != rhs:
            return _fail(f"partition fails on the cell with witness {w}")
    # the two pieces are integer-linear images of C itself
    rng = random.Random(SEED)
    for _ in range(100):
        p = (Fraction(rng.randint(-20, 20), rng.randint(1, 5)),
             Fraction(rng.randint(-20, 20), rng.randint(1, 5)))
        m1 = (p[0] + p[1], p[1])  # shear (a, b) -> (a + b, b)
        m2 = (p[0], p[0] + p[1])  # shear (a, b) -> (a, a + b)
        if eval_point(C, p) != eval_point(C1, m1):
            return _fail(f"first shear fails at {p}")
        if eval_point(C, p) != eval_point(C2, m2):
            return _fail(f"second shear fails at {p}")
    return _ok("cells certify the partition; both pieces are unimodular images")


# -- criterion 3: decomposition identities ------------------------------------


def _bg_check(Q):
    def run():
        if bg_verify(Q):
            return _ok("indicator identity verified on arrangement cells")
        return _fail("decomposition does not reproduce the indicator")
    return run


def check_bg_random():
    rng = random.Random(SEED + 3)
    for k in range(20):
        Q = random_polyhedron(rng, rng.randint(1, 3))
        if not bg_verify(Q):
            return _fail(f"random polyhedron #{k} fails: {Q!r}")
    return _ok("20 seeded random polyhedra verified")


# -- criterion 4: unions of relatively bounded faces ---------------------------


def check_contract_bounded():
    for name, Q in nonempty_standard_polyhedra():
        expected = (-1) ** recession(Q).ell
        got = bounded_union_chi(Q)
        if got != expected:
            return _fail(f"{name}: chi(U_b) = {got} != {expected}")
    return _ok("chi(U_b) = (-1)^ell across the suite")


def check_contract_visible():
    rng = random.Random(SEED + 4)
    counted = 0
    for name, Q in nonempty_standard_polyhedra():
        expected = (-1) ** recession(Q).ell
        for x in exterior_points(rng, Q, 10):
            got = visible_union_chi(Q, x)
            if got != expected:
                return _fail(f"{name} at {x}: chi(U_v) = {got} != {expected}")
            counted += 1
    return _ok(f"chi(U_v) = (-1)^ell at {counted} exterior viewpoints")


# -- criterion 5: closed forms vs the cell oracle -------------------------------


def check_closed_form_agreement():
    ran = 0
    for name, Q in standard_polyhedra():
        closed = class_of_polyhedron_closed_form(Q)
        oracle = class_of_polyhedron(Q)
        if closed != oracle:
            return _fail(
                f"{name}: closed form {closed.render()} != oracle {oracle.render()}")
        ran += 1
    return _ok(f"closed-form classes match the cell oracle on {ran} suite members")


def check_line_in_plane_chi():
    line = HPolyhedron(2, [((0, 1), Fraction(0)), ((0, -1), Fraction(0))])
    pair = chi_polyhedron_closed_form(line)
    if (pair.chi, pair.chi_b) != (-1, 1):
        return _fail(f"line in the plane: {(pair.chi, pair.chi_b)} != (-1, 1)")
    return _ok("a line in the plane has chi = -1 (not 0), per the cell oracle")


# -- criterion 6: scissor relations, products, collapse --------------------------


def check_scissor_random():
    rng = random.Random(SEED + 6)
    for k, (C, D) in enumerate(scissor_pairs(rng, 200)):
        if class_of(C) != class_of(D) + class_of(C - D):
            return _fail(f"scissor relation fails on pair #{k}")
    return _ok("class(C) = class(D) + class(C \\ D) on 200 seeded pairs")


def check_product_law():
    rng = random.Random(SEED + 7)
    for k, (C, D) in enumerate(product_pairs(rng, 100)):
        if class_of(product(C, D)) != class_of(C) * class_of(D):
            return _fail(f"product law fails on pair #{k}")
    return _ok("class(C x D) = class(C)class(D) on 100 seeded pairs")


def check_interval_collapse():
    a = parse_constructible("dim 1; x1 >= 0 & x1 <= 1")
    b = parse_constructible("dim 1; x1 >= 0 & x1 <= 2")
    ca, cb = class_of(a), class_of(b)
    if ca != cb:
        return _fail(f"[0,1] and [0,2] have classes {ca.render()} != {cb.render()}")
    if ca != u_power(1) + v_power(1):
        return _fail(f"[0,1] has class {ca.render()} != u + v")
    return _ok("[0,1] and [0,2] share the class u + v")


# -- criterion 7: the ungraded quotient -------------------------------------------


def check_ungraded_doag():
    rng = random.Random(SEED + 8)
    if ungraded(sigma()) != ungraded(class_of(
            parse_constructible("dim 1; x1 = 0"))):
        return _fail("sigma does not map to (1, 1)")
    u = ungraded(sigma())
    if (u.chi, u.chi_b) != (1, 1):
        return _fail(f"sigma maps to {(u.chi, u.chi_b)} != (1, 1)")
    for k, (C, D) in enumerate(scissor_pairs(rng, 40)):
        got = ungraded(class_of(C))
        if (got.chi, got.chi_b) != (chi(C), chi_b(C)):
            return _fail(f"ungraded class mismatch on sample #{k}")
    return _ok("ungraded classes equal (chi, chi_b) on the random corpus")


# -- criterion 8: the 1-dimensional invariant --------------------------------------


def check_chi_gamma_values():
    Z = SubgroupQ.cyclic(1)
    v0 = chi_gamma(parse_constructible("dim 1; x1 = 0"), Z)
    vhalf = chi_gamma(parse_constructible("dim 1; x1 = 1/2"), Z)
    if (v0, vhalf) != (2, 0):
        return _fail(f"chi_Z({{0}}) = {v0}, chi_Z({{1/2}}) = {vhalf}")
    return _ok("chi_Z separates {0} from {1/2}: 2 vs 0")


def check_chi_gamma_additivity():
    rng = random.Random(SEED + 9)
    Z = SubgroupQ.cyclic(1)
    Q = SubgroupQ.rationals()
    for k, (C, D) in enumerate(onedim_pairs(rng, 200)):
        union = C | D
        for G in (Z, Q):
            if chi_gamma(union, G) != chi_gamma(C, G) + chi_gamma(D - C, G):
                return _fail(f"additivity fails on pair #{k}")
    return _ok("chi_Gamma additive on 200 seeded disjoint pairs (Z and Q)")


def check_chi_gamma_divisible_collapse():
    rng = random.Random(SEED + 9)  # same corpus as the additivity check
    Q = SubgroupQ.rationals()
    for k, (C, D) in enumerate(onedim_pairs(rng, 200)):
        for S in (C, D):
            if chi_gamma(S, Q) != chi(S) + chi_b(S):
                return _fail(f"chi_Q != chi + chi_b on sample #{k}")
    return _ok("chi_Q = chi + chi_b across the corpus")


# -- criterion 9: the motivic model -------------------------------------------------


def check_motivic_ambi():
    halfline = parse_constructible("dim 1; x1 >= 0")
    openhalf = parse_constructible("dim 1; x1 > 0")
    got_closed = theta_trop_class(halfline)
    got_open = theta_trop_class(openhalf)
    want_closed = VFClass(IntPoly((-1, 1)), IntPoly())   # (L - 1, 0)
    want_open = VFClass(IntPoly(), IntPoly((-1, 1)))     # (0, tau - 1)
    if got_closed != want_closed:
        return _fail(f"preimage of the half-line: {got_closed.render()}")
    if got_open != want_open:
        return _fail(f"preimage of the open half-line: {got_open.render()}")
    return _ok("trop preimages of the half-lines hit (L-1, 0) and (0, tau-1)")


def check_motivic_defining_relation():
    rel = (vf_L() - vf_one()) * (vf_tau() - vf_one())
    if rel != vf_zero():
        return _fail(f"(L-1)(tau-1) = {rel.render()} != 0")
    return _ok("(L-1)(tau-1) = 0 in the pair ring")


def check_motivic_psi_morphism():
    rng = random.Random(SEED + 10)
    L, tau = vf_L(), vf_tau()

    def rand_vf():
        acc = vf_zero()
        for _ in range(rng.randint(1, 4)):
            acc = acc + rng.randint(-3, 3) * (L ** rng.randint(0, 3)) * \
                (tau ** rng.randint(0, 3))
        return acc

    for k in range(100):
        x, y = rand_vf(), rand_vf()
        if psi(x * y) != psi(x) * psi(y) or psi(x + y) != psi(x) + psi(y):
            return _fail(f"psi fails ring laws on pair #{k}")
    return _ok("psi respects + and * on 100 seeded pairs")


def check_motivic_kernel_division():
    rng = random.Random(SEED + 11)
    tau, one = vf_tau(), vf_one()
    for k in range(100):
        g = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
        g.append(-sum(g))  # force g(1) = 0
        x = VFClass(IntPoly(), IntPoly(g))
        if not in_kernel_psi(x):
            return _fail(f"kernel membership fails on #{k}")
        y = kernel_factor(x)
        if (tau - one) * y != x:
            return _fail(f"division by tau - 1 fails on #{k}")
    return _ok("every zero-L class factors through tau - 1, constructively")


def check_kernel_open_vs_closed_ball():
    open_ball = parse_semialg("torus 1; val(x1) > 0; point;")
    closed_ball = parse_semialg("torus 1; val(x1) >= 0; point;")
    one = vf_one()
    open_img = psi(semialg_class(open_ball) - one)
    closed_img = psi(semialg_class(closed_ball) - one)
    if open_img != IntPoly():
        return _fail(f"psi([open ball] - 1) = {open_img.render('L')} != 0")
    if closed_img != IntPoly((-1, 1)):
        return _fail(f"psi([closed ball] - 1) = {closed_img.render('L')} != L - 1")
    return _ok(
        "psi([open ball]-1) = 0 but psi([closed ball]-1) = L - 1; the kernel "
        "is generated by the open-ball element in this model")


# -- criterion 10: cell-oracle self-consistency ---------------------------------------


def check_gamma_doubling():
    suite = [
        parse_constructible("dim 1; x1 >= 0"),
        parse_constructible("dim 1; x1 > 0"),
        parse_constructible("dim 1; x1 >= 0 & x1 < 1"),
        parse_constructible("dim 2; x1 >= 0 & x2 >= 0"),
        parse_constructible("dim 2; x1 + x2 > 1 | x1 = 0"),
        parse_constructible("dim 2; !(2x1 - x2 >= 1/2)"),
        parse_constructible("dim 2; x1 = 3"),
        parse_constructible("dim 3; x1 >= 0 & x2 >= 0 & x3 >= 0"),
    ]
    for name, Q in nonempty_standard_polyhedra():
        if Q.ambient in (1, 2) and Q.rows:
            from .constructible import from_polyhedron
            suite.append(from_polyhedron(Q))
    for k, C in enumerate(suite):
        g = gamma_star(C)
        if chi(box_clip(C, g)) != chi(box_clip(C, 2 * g)):
            return _fail(f"chi changes when the box doubles on sample #{k}")
    return _ok(f"chi stable under box doubling on {len(suite)} sets")


def check_cell_counts():
    one_line = cell_complex([((1,), Fraction(0))], 1)
    two_lines = cell_complex([((1,), Fraction(0)), ((1,), Fraction(1))], 1)
    three_planes = cell_complex(
        [((1, 0), Fraction(0)), ((0, 1), Fraction(0)), ((1, -1), Fraction(0))], 2)
    got = (len(one_line.cells), len(two_lines.cells), len(three_planes.cells))
    if got != (3, 5, 13):
        return _fail(f"cell counts {got} != (3, 5, 13)")
    return _ok("fixture arrangements have 3, 5 and 13 cells")


# -- registry ---------------------------------------------------------------------


def all_checks():
    """Ordered (name, callable) registry."""
    checks = [
        ("generator_values", check_generator_values),
        ("prodzero_class", check_prodzero_class),
        ("prodzero_partition", check_prodzero_partition),
    ]
    for name, Q in standard_polyhedra():
        checks.append((f"bg_{name}", _bg_check(Q)))
    checks += [
        ("bg_random", check_bg_random),
        ("contract_bounded", check_contract_bounded),
        ("contract_visible", check_contract_visible),
        ("closed_form_agreement", check_closed_form_agreement),
        ("line_in_plane_chi", check_line_in_plane_chi),
        ("scissor_random", check_scissor_random),
        ("product_law", check_product_law),
        ("interval_collapse", check_interval_collapse),
        ("ungraded_doag", check_ungraded_doag),
        ("chi_gamma_values", check_chi_gamma_values),
        ("chi_gamma_additivity", check_chi_gamma_additivity),
        ("chi_gamma_divisible_collapse", check_chi_gamma_divisible_collapse),
        ("motivic_ambi", check_motivic_ambi),
        ("motivic_defining_relation", check_motivic_defining_relation),
        ("motivic_psi_morphism", check_motivic_psi_morphism),
        ("motivic_kernel_division", check_motivic_kernel_division),
        ("kernel_open_vs_closed_ball", check_kernel_open_vs_closed_ball),
        ("gamma_doubling_stability", check_gamma_doubling),
        ("cell_counts_fixtures", check_cell_counts),
    ]
    return checks


def run_suite(pattern: str = None):
    """Run (a filtered subset of) the registry; returns
    [(name, passed, detail)] in registry order."""
    results = []
    for name, fn in all_checks():
        if pattern is not None and not fnmatch(name, pattern):
            continue
        passed, detail = fn()
        results.append((name, passed, detail))
    return results
