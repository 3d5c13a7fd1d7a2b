"""An outside tracer: spans around polygroth's public entry points.

``Tracer.install`` rebinds each listed function, in every ``polygroth``
module that holds a reference to it, to a wrapper that records a span
(name, start, end, parent span, op id).  Module globals are looked up at
call time, so calls between modules and inside a module both go through the
wrapper; ``polyhedron.lp_optimize`` and ``exactq.lp_optimize`` are two
bindings of one function and both are rebound.  ``uninstall`` puts every
original object back.  Spans stay in memory in flat arrays until the run
ends; self time is a span's duration minus the durations of its direct
child spans.

No polygroth source is edited.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import gen

ENTRY_POINTS = [
    "exactq.lp_optimize", "exactq.improve_below", "exactq.gauss_solve",
    "constructible.cell_complex", "constructible.eval_point",
    "constructible.functions_equal", "constructible.parse_constructible",
    "polyhedron.irredundant", "polyhedron.faces",
    "polyhedron.is_relatively_bounded", "polyhedron.is_empty",
    "euler.chi", "euler.chi_b", "euler.gamma_star",
    "grothendieck.class_of", "briangram.bg_verify",
    "briangram.bounded_union_chi", "briangram.visible_union_chi",
    "onedim.chi_gamma", "motivic.parse_semialg", "motivic.semialg_class",
    "cli.main", "cli.build_parser",
]

# entry points whose arguments or results the harness inspects for the
# input-property counters
_PROBED = {"constructible.cell_complex", "exactq.improve_below",
           "polyhedron.irredundant", "polyhedron.faces"}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "polygroth" or name.startswith("polygroth."))]


class Tracer:
    def __init__(self):
        self.names = list(ENTRY_POINTS)
        self.op = -1  # id of the op in progress, set by the caller
        self._name = array("H")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack = []
        self._bindings = []  # (module, attribute, original object)
        self.probes = defaultdict(list)

    # -- installation ---------------------------------------------------------

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for nid, name in enumerate(self.names):
            mod_name, fn = name.split(".")
            original = getattr(sys.modules[f"polygroth.{mod_name}"], fn)
            wrapper = self._wrap(nid, original, self._probe_fn(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._bindings.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._bindings):
            setattr(m, attr, original)
        self._bindings = []

    def _wrap(self, nid, original, probe):
        names, parents, ops = self._name, self._parent, self._op
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            result = None
            t0 = clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if probe is not None:
                    probe(args, kwargs, result)

        return traced

    def _probe_fn(self, name):
        if name not in _PROBED:
            return None
        out = self.probes[name]
        if name == "constructible.cell_complex":
            def probe(args, kwargs, result):
                hps = args[0] if args else kwargs["hyperplanes"]
                ambient = args[1] if len(args) > 1 else kwargs["ambient"]
                cells = len(result.cells) if result is not None else 0
                nh = len(result.hyperplanes) if result is not None else 0
                out.append((ambient, tuple(hps), cells, nh))
        elif name == "exactq.improve_below":
            def probe(args, kwargs, result):
                out.append(result is not None)
        elif name == "polyhedron.faces":
            def probe(args, kwargs, result):
                out.append((args[0], len(result) if result is not None else 0))
        else:
            def probe(args, kwargs, result):
                out.append(args[0])
        return probe

    # -- results ----------------------------------------------------------------

    def span_count(self):
        return len(self._name)

    def layer_metrics(self):
        """Calls and self seconds per entry point, plus the input-property
        counters."""
        n = len(self._name)
        child = [0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += self._end[i] - self._start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            k = self._name[i]
            calls[k] += 1
            self_ns[k] += self._end[i] - self._start[i] - child[i]
        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_ns[k] / 1e9
        out.update(self._property_metrics())
        return out

    def _property_metrics(self):
        def repeat_share(keys):
            return 1 - len(set(keys)) / len(keys) if keys else 0.0

        cc = self.probes["constructible.cell_complex"]
        cc_keys = [(amb, frozenset(gen.hyperplane_key(a, b) for a, b in hps))
                   for amb, hps, _, _ in cc]
        found = self.probes["exactq.improve_below"]
        fc = self.probes["polyhedron.faces"]
        return {
            "constructible.cell_complex.cells": sum(c for *_, c, _ in cc) / len(cc) if cc else 0.0,
            "constructible.cell_complex.hyperplanes_max": max((h for *_, h in cc), default=0),
            "constructible.cell_complex.repeat_share": repeat_share(cc_keys),
            "exactq.improve_below.found_share": sum(found) / len(found) if found else 0.0,
            "polyhedron.irredundant.repeat_share": repeat_share(self.probes["polyhedron.irredundant"]),
            "polyhedron.faces.faces": sum(k for _, k in fc) / len(fc) if fc else 0.0,
            "polyhedron.faces.repeat_share": repeat_share([P for P, _ in fc]),
        }

    def write_spans(self, path):
        """One tab-separated line per span: op, span, parent, name, start_ns,
        end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self._name)):
                fh.write(f"{self._op[i]}\t{i}\t{self._parent[i]}\t"
                         f"{self.names[self._name[i]]}\t{self._start[i]}\t{self._end[i]}\n")
