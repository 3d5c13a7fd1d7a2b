"""The timed op and the answer oracle of each workload.

Each workload has three functions:

- ``prepare(op)`` turns generated data into polygroth objects (untimed);
- ``run(prepared)`` is the timed op and returns the program's raw answer;
  it calls polygroth through module attributes, so the outside tracer's
  rebound names are the ones it reaches;
- ``check(op, answer)`` returns None when the answer is right and a short
  reason when it is not.

The worker calls ``check`` only after the timed loop has ended, so an oracle
never warms a cache that a timed op reads.  Expected values come from the
generator's construction or from a path that shares no code with the timed
one: (chi, chi_b) through ``to_signed_combo`` and the closed form for
polyhedra instead of arrangement cells, chi_Gamma of a 1-dimensional set and
all sign vectors, ranks and memberships in plain Python.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import gen
from polygroth import briangram, cli, grothendieck
from polygroth.constructible import And, Atom, ConstructibleSet, Not, Or, to_signed_combo
from polygroth.euler import chi_polyhedron_closed_form
from polygroth.grothendieck import GradedClass
from polygroth.motivic import IntPoly, VFClass
from polygroth.polyhedron import HPolyhedron

DOCS = Path(__file__).resolve().parent.parent / "docs"


def build(tree):
    """Generator tree -> polygroth expression, without the text parser."""
    kind = tree[0]
    if kind == "atom":
        return Atom(tree[1], Fraction(tree[2]), tree[3])
    if kind == "not":
        return Not(build(tree[1]))
    return (And if kind == "and" else Or)((build(tree[1]), build(tree[2])))


def combo_pair(C):
    """(chi, chi_b) of C as a signed sum of closed polyhedra, each valued by
    the closed form: no arrangement cells, no box."""
    x = y = 0
    for P, c in to_signed_combo(C).terms.items():
        e = chi_polyhedron_closed_form(P)
        x += c * e.chi
        y += c * e.chi_b
    return x, y


def tree_pair(tree, n):
    return combo_pair(ConstructibleSet(n, build(tree)))


def graded_pair(cls, n):
    """(chi, chi_b) read off a class placed in degree n."""
    if cls.c0 != 0 or any(d != n for d, _, _ in cls.terms):
        raise ValueError(f"class {cls.render()} is not homogeneous of degree {n}")
    return sum(a for _, a, _ in cls.terms), sum(b for _, _, b in cls.terms)


# ---------------------------------------------------------------------------
# scissor: class_of on C, D ⊆ C and C \ D, which share one arrangement


def scissor_prepare(op):
    n = op["n"]
    C = ConstructibleSet(n, build(op["C"]))
    D = ConstructibleSet(n, build(op["D"]))
    return C, D, C - D


def scissor_run(sets):
    return tuple(grothendieck.class_of(S) for S in sets)


def scissor_check(op, answer):
    n = op["n"]
    c, d, rest = (graded_pair(cls, n) for cls in answer)
    if c != (d[0] + rest[0], d[1] + rest[1]):
        return f"scissor relation fails: {c} != {d} + {rest}"
    want = tree_pair(op["C"], n)
    if c != want:
        return f"(chi, chi_b) of C is {c}, signed-combo oracle gives {want}"
    return None


# ---------------------------------------------------------------------------
# polytope: Brianchon-Gram check and both face-union Euler characteristics


def polytope_prepare(op):
    return HPolyhedron(op["n"], op["rows"]), op["views"]


def polytope_run(prepared):
    P, views = prepared
    return (briangram.bg_verify(P), briangram.bounded_union_chi(P),
            [briangram.visible_union_chi(P, x) for x in views])


def polytope_check(op, answer):
    ok, bounded, visible = answer
    want = (-1) ** op["ell"]
    if ok is not True:
        return "bg_verify did not return True"
    if bounded != want or len(visible) != len(op["views"]) \
            or any(v != want for v in visible):
        return f"union chis {bounded}, {visible}; expected {want} (ell = {op['ell']})"
    return None


# ---------------------------------------------------------------------------
# cli: in-process calls of polygroth.cli.main


def cli_prepare(op):
    return op["argv"]


def cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_validators = {}


def _validate(cmd, obj):
    if cmd not in _validators:
        import jsonschema
        path = DOCS / f"{cmd.replace('-', '_')}.schema.json"
        schema = json.loads(path.read_text(encoding="utf-8"))
        _validators[cmd] = jsonschema.Draft7Validator(schema)
    errors = list(_validators[cmd].iter_errors(obj))
    if errors:
        raise ValueError(f"JSON fails {cmd} schema: {errors[0].message}")


def _rat(text):
    return Fraction(text)


def _vec(text):
    """'(1/2, -3)' -> (Fraction(1, 2), Fraction(-3))."""
    body = text.strip()[1:-1]
    return tuple(_rat(t) for t in body.split(", ")) if body else ()


def _row(text, op="="):
    lhs, rhs = text.split(f" {op} ")
    return tuple(int(t) for t in lhs.split()), _rat(rhs)


def _json_row(r):
    return tuple(r[:-1]), _rat(r[-1])


def _sgn(q):
    return (q > 0) - (q < 0)


def _parse(cmd, op, out):
    """Structured answer from stdout, either form."""
    if op["json"]:
        obj = json.loads(out)
        _validate(cmd, obj)
        if cmd in ("chi", "ungraded"):
            return obj["chi"], obj["chi_b"]
        if cmd == "class":
            return obj
        if cmd == "chi-gamma":
            return obj["chi_gamma"]
        if cmd == "cells":
            return ([_json_row(h) for h in obj["hyperplanes"]],
                    [(c["signs"], c["dim"], tuple(_rat(x) for x in c["witness"]))
                     for c in obj["cells"]])
        if cmd == "faces":
            return [(f["dim"], tuple(_rat(x) for x in f["witness"])) for f in obj["faces"]]
        if cmd == "recession":
            return obj["ell"], [tuple(_rat(x) for x in v) for v in obj["lin_basis"]]
        if cmd == "tangent":
            return [_json_row(r) for r in obj["rows"]]
        if cmd == "bg":
            return obj["ell"], [(t["sign"], t["face_dim"]) for t in obj["terms"]]
        return obj  # motivic
    lines = out.rstrip("\n").split("\n")
    if cmd == "chi":
        m = re.fullmatch(r"chi=(-?\d+) chi_b=(-?\d+)", lines[0])
        return int(m.group(1)), int(m.group(2))
    if cmd == "ungraded":
        m = re.fullmatch(r"\((-?\d+), (-?\d+)\)", lines[0])
        return int(m.group(1)), int(m.group(2))
    if cmd in ("class", "motivic"):
        return lines
    if cmd == "chi-gamma":
        return int(lines[0])
    if cmd == "cells":
        k = lines.index(next(ln for ln in lines if ln.startswith("cells (")))
        hps = [_row(ln) for ln in lines[1:k]]
        cells = []
        for ln in lines[k + 1:]:
            m = re.fullmatch(r"(\S+) dim=(\d+) witness=(\(.*\))", ln)
            signs = "" if m.group(1) == "*" else m.group(1)
            cells.append((signs, int(m.group(2)), _vec(m.group(3))))
        return hps, cells
    if cmd == "faces":
        out_faces = []
        for ln in lines:
            m = re.fullmatch(r"dim=(\d+) tight=\S+ witness=(\(.*\))", ln)
            out_faces.append((int(m.group(1)), _vec(m.group(2))))
        return out_faces
    if cmd == "recession":
        ell = int(re.fullmatch(r"ell = (\d+)", lines[0]).group(1))
        basis = []
        for ln in lines[2:lines.index("rec:")]:
            basis.append(tuple(_rat(t) for t in ln.split()))
        return ell, basis
    if cmd == "tangent":
        return [_row(ln, ">=") for ln in lines if ln]
    ell = int(re.fullmatch(r"ell = (-?\d+)", lines[0]).group(1))  # bg
    terms = []
    for ln in lines[1:]:
        m = re.fullmatch(r"term sign=([+-]1) face_dim=(\d+)", ln)
        if m:
            terms.append((int(m.group(1)), int(m.group(2))))
    return ell, terms


def chi_gamma_oracle(tree, gamma):
    """Sum of local weights over the points of Gamma, in plain Python; only
    the atoms' boundary points can carry weight."""
    cuts = sorted({Fraction(t[2]) / t[1][0] for t in gen.atoms(tree)})
    total = 0
    for i, c in enumerate(cuts):
        if gamma != "div" and (c / Fraction(gamma)).denominator != 1:
            continue
        lo = (cuts[i - 1] + c) / 2 if i else c - 1
        hi = (cuts[i + 1] + c) / 2 if i + 1 < len(cuts) else c + 1
        left, right = gen.member(tree, (lo,)), gen.member(tree, (hi,))
        if gen.member(tree, (c,)):
            total += 2 - left - right
        else:
            total -= left + right
    return total


def _poly_pow(base, k):
    out = [1]
    for _ in range(k):
        nxt = [0] * (len(out) + 1)
        for i, c in enumerate(out):
            nxt[i] += c * base[0]
            nxt[i + 1] += c * base[1]
        out = nxt
    return out


def _pair_poly(coef, base, n, points):
    """coef * base^n + points as coefficients, low degree first, with no
    trailing zeros."""
    p = [coef * c for c in _poly_pow(base, n)]
    p[0] += points
    while p and p[-1] == 0:
        p.pop()
    return p


def _check_value(cmd, op, got):
    n = op["n"]
    if cmd in ("chi", "ungraded"):
        want = tree_pair(op["tree"], n)
        return None if tuple(got) == want else f"got {tuple(got)}, oracle {want}"
    if cmd == "class":
        want = tree_pair(op["tree"], n)
        text = GradedClass(0, ((n,) + want,)).render()
        if op["json"]:
            pair = graded_pair(GradedClass(got["c0"], [tuple(t) for t in got["terms"]]), n)
            ok = pair == want and got["text"] == text
        else:
            ok = got == [text]
        return None if ok else f"class {got}, oracle {text}"
    if cmd == "chi-gamma":
        want = chi_gamma_oracle(op["tree"], op["gamma"])
        if op["gamma"] == "div" and want != sum(tree_pair(op["tree"], 1)):
            return "weight-sum oracle disagrees with chi + chi_b"
        return None if got == want else f"chi_gamma {got}, oracle {want}"
    if cmd == "cells":
        hps, cells = got
        want = gen.hyperplanes(op["tree"])
        if sorted(hps) != want:
            return f"hyperplanes {hps}, expected {want}"
        seen = set()
        euler = 0
        for signs, dim, w in cells:
            sv = "".join("-=+"[_sgn(gen.dot(a, w) - b) + 1] for a, b in hps)
            eq = [a for (a, _), s in zip(hps, signs) if s == "="]
            if sv != signs or dim != n - gen.rank(eq, n) or signs in seen:
                return f"cell {signs} dim={dim} witness={w} is inconsistent"
            seen.add(signs)
            euler += (-1) ** dim
        return None if euler == (-1) ** n else f"cells sum to chi {euler}"
    if cmd == "faces":
        rows = op["rows"]
        euler = 0
        for dim, w in got:
            if any(gen.dot(a, w) < b for a, b in rows):
                return f"face witness {w} lies outside the polyhedron"
            tight = [a for a, b in rows if gen.dot(a, w) == b]
            if gen.rank(tight, n) != n - dim:
                return f"face of dim {dim} has {len(tight)} tight rows at {w}"
            euler += (-1) ** dim
        tops = [d for d, _ in got if d == n]
        return None if euler == 1 and len(tops) == 1 else \
            f"faces of a full-dimensional polytope sum to {euler}"
    if cmd == "recession":
        ell, basis = got
        if ell != op["ell"] or len(basis) != ell:
            return f"ell {ell} with {len(basis)} basis vectors, expected {op['ell']}"
        if any(gen.dot(a, v) != 0 for v in basis for a, _ in op["rows"]):
            return "a lineality vector leaves the polyhedron"
        return None
    if cmd == "tangent":
        p = op["point"]
        tight = {(tuple(a), Fraction(b)) for a, b in op["rows"] if gen.dot(a, p) == b}
        if any(r not in tight for r in got) or bool(got) != bool(tight):
            return f"tangent rows {got}, rows tight at the point {sorted(tight)}"
        return None
    if cmd == "bg":
        ell, terms = got
        if ell != op["ell"] or any(s != (-1) ** (d + ell) for s, d in terms):
            return f"ell {ell}, terms {terms}"
        return None if sum(s for s, _ in terms) == 1 else "polytope terms do not sum to 1"
    # motivic: f = chi_b (L-1)^n + points, g = chi (1-tau)^n + points
    chi, chib = tree_pair(op["tree"], n)
    f = _pair_poly(chib, (-1, 1), n, op["points"])
    g = _pair_poly(chi, (1, -1), n, op["points"])
    if op["json"]:
        ok = (got["f"], got["g"], got["psi"], got["in_kernel"]) == (f, g, f, not f)
    else:
        cls = VFClass(IntPoly(f), IntPoly(g))
        ok = got == [f"class = {cls.render()}", f"psi = {IntPoly(f).render('L')}",
                     f"in_kernel = {'false' if f else 'true'}"]
    return None if ok else f"motivic output {got}, expected f={f} g={g}"


def cli_check(op, answer):
    code, out, err = answer
    if code != op["expect"]:
        return f"exit code {code}, expected {op['expect']}: {err.strip()[-200:]}"
    if code != 0:
        return None if out == "" and err else "an error exit must print only a diagnostic"
    try:
        got = _parse(op["cmd"], op, out)
        return _check_value(op["cmd"], op, got)
    except (ValueError, KeyError, AttributeError, TypeError, IndexError,
            StopIteration, ZeroDivisionError) as exc:
        return f"unreadable {op['cmd']} output ({exc!r}): {out[:200]!r}"


WORKLOADS = {
    "scissor": (scissor_prepare, scissor_run, scissor_check),
    "polytope": (polytope_prepare, polytope_run, polytope_check),
    "cli": (cli_prepare, cli_run, cli_check),
}
