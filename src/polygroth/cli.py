"""Command-line front end.

One subcommand per engine surface; input comes from a file argument or an
inline ``-e`` expression, never both.  Exit codes: 0 success, 2 parse or
usage errors, 3 resource-cap errors and output that cannot be written;
``verify-suite`` exits 1 when a check fails.  Output is byte-deterministic
for a fixed input.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .briangram import bg_decompose
from .constructible import (
    DEFAULT_MAX_HYPERPLANES,
    cell_complex,
    hyperplanes_of,
    parse_constructible,
)
from .errors import EngineError, ParseError, ResourceError, UsageError
from .euler import euler_pair
from .exactq import format_rat, parse_rat, vec
from .grothendieck import class_of, ungraded
from .motivic import in_kernel_psi, parse_semialg, psi, semialg_class
from .onedim import SubgroupQ, chi_gamma
from .polyhedron import (
    MAX_AMBIENT,
    contains,
    format_polyhedron,
    irredundant,
    is_empty,
    parse_polyhedron,
    recession,
)
from .verify import run_suite


def _read_input(args) -> str:
    if (args.expr is None) == (args.path is None):
        raise UsageError("provide exactly one input: a file path or -e EXPR")
    if args.expr is not None:
        return args.expr
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {args.path}: {exc}") from None


def _check_dim(n, args):
    cap = min(args.max_dim, MAX_AMBIENT)
    if n > cap:
        raise ResourceError(
            f"ambient dimension {n} exceeds the cap {cap} (--max-dim "
            f"{args.max_dim}; the engine's hard cap is {MAX_AMBIENT})")


def _emit(args, text: str, payload):
    if sys.stdout is None:  # the process started with stdout closed
        raise OSError(errno.EBADF, "standard output is closed")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)
    sys.stdout.flush()  # a failed write surfaces here, inside main


def _discard_stdout():
    """Point stdout's descriptor at the null device, so that the flush at
    interpreter exit does not fail a second time on a broken stream."""
    try:
        fd = os.open(os.devnull, os.O_WRONLY)
        os.dup2(fd, sys.stdout.fileno())
        os.close(fd)
    except (AttributeError, OSError, ValueError):
        pass  # a stream without a descriptor has nothing left to flush


def _row_json(row):
    a, b = row
    return list(a) + [format_rat(b)]


def _vec_text(x):
    return "(" + ", ".join(format_rat(c) for c in x) + ")"


# -- subcommand bodies --------------------------------------------------------


def _cmd_faces(args):
    from .polyhedron import faces
    P = parse_polyhedron(_read_input(args), args.dim)
    _check_dim(P.ambient, args)
    if is_empty(P):
        raise UsageError("the empty polyhedron has no faces")
    fs = faces(P)
    lines = [
        f"dim={f.dim} tight={','.join(str(i) for i in sorted(f.tight)) or '-'} "
        f"witness={_vec_text(f.witness)}"
        for f in fs
    ]
    payload = {"faces": [
        {"dim": f.dim, "tight": sorted(f.tight),
         "witness": [format_rat(c) for c in f.witness]} for f in fs]}
    _emit(args, "\n".join(lines), payload)
    return 0


def _cmd_recession(args):
    P = parse_polyhedron(_read_input(args), args.dim)
    _check_dim(P.ambient, args)
    rd = recession(P)
    lines = [f"ell = {rd.ell}"]
    lines.append("lin basis:" if rd.lin_basis else "lin basis: (empty)")
    for v in rd.lin_basis:
        lines.append(" ".join(format_rat(c) for c in v))
    lines.append("rec:")
    body = format_polyhedron(rd.rec)
    if body:
        lines.append(body)
    payload = {
        "ell": rd.ell,
        "lin_basis": [[format_rat(c) for c in v] for v in rd.lin_basis],
        "rec": [_row_json(r) for r in rd.rec.rows],
    }
    _emit(args, "\n".join(lines), payload)
    return 0


def _cmd_tangent(args):
    P = parse_polyhedron(_read_input(args), args.dim)
    _check_dim(P.ambient, args)
    x = vec([parse_rat(t) for t in args.point.replace(",", " ").split()])
    if len(x) != P.ambient:
        raise UsageError(f"--point has length {len(x)}, expected {P.ambient}")
    if not contains(P, x):
        raise UsageError("--point must lie in the polyhedron")
    Q = irredundant(P)
    from .exactq import dot
    cone_rows = [(a, b) for a, b in Q.rows if dot(vec(a), x) == b]
    text = "\n".join(
        f"{' '.join(str(c) for c in a)} >= {format_rat(b)}" for a, b in cone_rows)
    payload = {"rows": [_row_json(r) for r in cone_rows]}
    _emit(args, text, payload)
    return 0


def _cmd_bg(args):
    P = parse_polyhedron(_read_input(args), args.dim)
    _check_dim(P.ambient, args)
    dec = bg_decompose(P)
    lines = [f"ell = {dec.ell}"]
    for t in dec.terms:
        lines.append(f"term sign={'+1' if t.sign > 0 else '-1'} "
                     f"face_dim={t.face.dim}")
        body = format_polyhedron(t.cone)
        if body:
            lines.append(body)
        else:
            lines.append("(no constraints: the whole space)")
    payload = {
        "ell": dec.ell,
        "terms": [{"sign": t.sign, "face_dim": t.face.dim,
                   "cone": [_row_json(r) for r in t.cone.rows]}
                  for t in dec.terms],
    }
    _emit(args, "\n".join(lines), payload)
    return 0


def _cmd_chi(args):
    C = parse_constructible(_read_input(args))
    _check_dim(C.ambient, args)
    pair = euler_pair(C, args.max_hyperplanes)
    _emit(args, f"chi={pair.chi} chi_b={pair.chi_b}",
          {"chi": pair.chi, "chi_b": pair.chi_b})
    return 0


def _cmd_class(args):
    C = parse_constructible(_read_input(args))
    _check_dim(C.ambient, args)
    cls = class_of(C, max_hyperplanes=args.max_hyperplanes)
    payload = {"c0": cls.c0, "terms": [list(t) for t in cls.terms],
               "text": cls.render()}
    _emit(args, cls.render(), payload)
    return 0


def _cmd_ungraded(args):
    C = parse_constructible(_read_input(args))
    _check_dim(C.ambient, args)
    u = ungraded(class_of(C, max_hyperplanes=args.max_hyperplanes))
    _emit(args, f"({u.chi}, {u.chi_b})", {"chi": u.chi, "chi_b": u.chi_b})
    return 0


def _cmd_chi_gamma(args):
    C = parse_constructible(_read_input(args))
    if C.ambient != 1:
        raise UsageError("chi-gamma runs on 1-dimensional sets")
    if args.gamma == "div":
        group = SubgroupQ.rationals()
    else:
        group = SubgroupQ.cyclic(parse_rat(args.gamma))
    value = chi_gamma(C, group)
    _emit(args, str(value), {"chi_gamma": value})
    return 0


def _cmd_cells(args):
    C = parse_constructible(_read_input(args))
    _check_dim(C.ambient, args)
    cc = cell_complex(hyperplanes_of(C), C.ambient, args.max_hyperplanes)
    sym = {-1: "-", 0: "=", 1: "+"}
    lines = ["hyperplanes:"]
    for a, b in cc.hyperplanes:
        lines.append(f"{' '.join(str(c) for c in a)} = {format_rat(b)}")
    lines.append(f"cells ({len(cc.cells)}):")
    for cell in cc.cells:
        sv = "".join(sym[s] for s in cell.signs)
        lines.append(f"{sv or '*'} dim={cell.dim} witness={_vec_text(cell.witness)}")
    payload = {
        "hyperplanes": [_row_json(h) for h in cc.hyperplanes],
        "cells": [{"signs": "".join(sym[s] for s in cell.signs),
                   "dim": cell.dim,
                   "witness": [format_rat(c) for c in cell.witness]}
                  for cell in cc.cells],
    }
    _emit(args, "\n".join(lines), payload)
    return 0


def _cmd_motivic(args):
    S = parse_semialg(_read_input(args))
    _check_dim(S.n, args)
    cls = semialg_class(S)
    image = psi(cls)
    kernel = in_kernel_psi(cls)
    text = "\n".join([
        f"class = {cls.render()}",
        f"psi = {image.render('L')}",
        f"in_kernel = {'true' if kernel else 'false'}",
    ])
    payload = {
        "f": list(cls.f.coeffs),
        "g": list(cls.g.coeffs),
        "psi": list(image.coeffs),
        "in_kernel": kernel,
        "text": cls.render(),
    }
    _emit(args, text, payload)
    return 0


def _cmd_verify_suite(args):
    results = run_suite(args.filter)
    if not results:
        raise UsageError(f"no checks match filter {args.filter!r}")
    passed = sum(1 for _, ok, _ in results if ok)
    lines = []
    for name, ok, detail in results:
        mark = "PASS" if ok else "FAIL"
        lines.append(f"{mark} {name}" + (f" ({detail})" if detail else ""))
    lines.append(f"passed {passed}/{len(results)}")
    payload = {
        "checks": [{"name": n, "passed": ok, "detail": d}
                   for n, ok, d in results],
        "passed": passed,
        "total": len(results),
    }
    _emit(args, "\n".join(lines), payload)
    return 0 if passed == len(results) else 1


# -- argument wiring -----------------------------------------------------------


def _add_io(sub, with_dim=False):
    sub.add_argument("path", nargs="?", help="input file")
    sub.add_argument("-e", "--expr", help="inline input text")
    sub.add_argument("--json", action="store_true", help="emit JSON")
    sub.add_argument("--max-dim", type=int, default=MAX_AMBIENT,
                     help="ambient dimension cap (default %(default)s)")
    sub.add_argument("--max-hyperplanes", type=int,
                     default=DEFAULT_MAX_HYPERPLANES,
                     help="cell-complex hyperplane cap (default %(default)s)")
    if with_dim:
        sub.add_argument("--dim", type=int, default=None,
                         help="ambient dimension when the text has no rows")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polygroth",
        description="Exact invariants of rational polyhedral sets: Euler "
                    "characteristics, graded scissor-relation classes, "
                    "Brianchon-Gram decompositions, and a motivic-volume "
                    "calculator for tropical preimages.")
    subs = ap.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("faces", help="face lattice of a polyhedron")
    _add_io(sp, with_dim=True)
    sp.set_defaults(fn=_cmd_faces)

    sp = subs.add_parser("recession", help="recession cone and lineality data")
    _add_io(sp, with_dim=True)
    sp.set_defaults(fn=_cmd_recession)

    sp = subs.add_parser("tangent", help="tangent cone along the face whose "
                                         "relative interior contains --point")
    _add_io(sp, with_dim=True)
    sp.add_argument("--point", required=True,
                    help="comma-separated rational coordinates")
    sp.set_defaults(fn=_cmd_tangent)

    sp = subs.add_parser("bg", help="Brianchon-Gram decomposition")
    _add_io(sp, with_dim=True)
    sp.set_defaults(fn=_cmd_bg)

    sp = subs.add_parser("chi", help="both Euler characteristics of a "
                                     "constructible set")
    _add_io(sp)
    sp.set_defaults(fn=_cmd_chi)

    sp = subs.add_parser("class", help="graded class in Z[u,v]/(uv)")
    _add_io(sp)
    sp.set_defaults(fn=_cmd_class)

    sp = subs.add_parser("ungraded", help="the (chi, chi_b) pair in Z x Z")
    _add_io(sp)
    sp.set_defaults(fn=_cmd_ungraded)

    sp = subs.add_parser("chi-gamma", help="1-dimensional weight-sum invariant")
    _add_io(sp)
    sp.add_argument("--gamma", required=True,
                    help="'div' for the rationals, or a positive rational "
                         "generator of a cyclic subgroup")
    sp.set_defaults(fn=_cmd_chi_gamma)

    sp = subs.add_parser("cells", help="arrangement cells of a set's "
                                       "hyperplanes")
    _add_io(sp)
    sp.set_defaults(fn=_cmd_cells)

    sp = subs.add_parser("motivic", help="class, volume image and kernel "
                                         "test of a semi-algebraic input")
    _add_io(sp)
    sp.set_defaults(fn=_cmd_motivic)

    sp = subs.add_parser("verify-suite", help="run the named checks")
    sp.add_argument("--filter", default=None,
                    help="shell glob over check names, e.g. 'bg_*'")
    sp.add_argument("--json", action="store_true", help="emit JSON")
    sp.set_defaults(fn=_cmd_verify_suite)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ResourceError as exc:
        print(f"polygroth: resource cap: {exc}", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"polygroth: parse error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"polygroth: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # stdout is closed, full or otherwise unwritable
        print(f"polygroth: cannot write output: {exc}", file=sys.stderr)
        _discard_stdout()
        return 3


if __name__ == "__main__":
    sys.exit(main())
