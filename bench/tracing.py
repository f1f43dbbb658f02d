"""Spans around the calls into each fairmix layer, recorded from outside.

The program's source stays untouched: ``install`` rebinds the module
attributes each caller looks up at call time (``engine._argmax_of``,
``envy.solve_lp``, ``cli.load_instance`` ...) to wrappers that record a span
with its parent and operation, and ``restore`` puts the originals back.  A
binding whose attribute no longer exists is reported as missing, so a
renamed private helper costs a layer's numbers, not the run.
"""

from __future__ import annotations

import functools
import importlib
import time


def _argmax_info(args, result):
    own = args[0]
    return {"cells": len(own) * len(own[0]), "tie": len(result) > 1}


def _pe_info(args, result):
    inst = args[1]
    return {"cols": len(inst.allocations) + inst.n, "dominated": not result.ok}


def _lp_info(args, result):
    lp = args[0]
    return {"cells": len(lp.constraints) * lp.num_vars}


def _closure_info(args, result):
    listed = {a.bundles for a in args[0]}
    return {"added": len(result) - len(listed)}


def _ok_info(args, result):
    return {"ok": bool(result.ok)}


def _hit_info(args, result):
    return {"hit": result is not None}


# (module, attribute path, span name, info extractor).  One span name may be
# bound in several modules: each caller holds its own reference.
BINDINGS = (
    ("cli", "find_fixed_point", "engine.solve", None),
    ("engine", "_argmax_of", "engine.argmax", _argmax_info),
    ("engine", "select_p_in_P", "engine.select", None),
    ("engine", "_views", "engine.views", None),
    ("engine", "project_onto_truncated_simplex", "engine.projection", None),
    ("engine", "compute_rho", "engine.rho", None),
    ("engine", "_fallback_search", "engine.fallback", _hit_info),
    ("engine", "certify", "engine.certify", _ok_info),
    ("cli", "certify", "envy.certify", None),
    ("envy", "check_envy_free", "envy.ef", None),
    ("envy", "check_pareto_efficient", "envy.pe", _pe_info),
    ("hard", "check_envy_free", "envy.ef", None),
    ("hard", "check_pareto_efficient", "envy.pe", _pe_info),
    ("engine", "solve_lp", "lp.solve", _lp_info),
    ("envy", "solve_lp", "lp.solve", _lp_info),
    ("serialize", "swap_closure", "model.closure", _closure_info),
    ("engine", "is_swappable", "model.swappable", None),
    ("model", "MixedAllocation.point_mass", "model.lottery", None),
    ("model", "MixedAllocation.from_support", "model.lottery", None),
    ("engine", "expected_utility", "model.expected_utility", None),
    ("envy", "expected_utility", "model.expected_utility", None),
    ("cli", "load_instance", "serialize.load", None),
    ("cli", "load_mixed_allocation", "serialize.load", None),
    ("cli", "dump_solve_result", "serialize.dump", None),
    ("cli", "dump_certificate", "serialize.dump", None),
    ("cli", "dump_instance", "serialize.dump", None),
    ("cli", "dumps", "serialize.dump", None),
)

class Tracer:
    """In-memory spans: [name, start, end, parent index, operation, info]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1
        self._restore = []
        self.missing = []
        self.info_errors = set()

    def install(self):
        self.missing = []
        for module, path, name, info in BINDINGS:
            owner = importlib.import_module(f"fairmix.{module}")
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing.append(f"{module}.{path}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, info))
            else:
                wrapped = self._wrap(name, raw, info)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, raw))

    def restore(self):
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def operation(self, op, fn, *args):
        """Run one operation under a root ``cli`` span."""
        self._op = op
        return self._wrap("cli", fn, None)(*args)

    def _wrap(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if info is not None:
                try:
                    record[5] = info(args, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    self.info_errors.add(name)
            return result

        return traced

    def self_times(self):
        """Span duration minus the union of its children's intervals."""
        children = {}
        for idx, (_, _, _, parent, _, _) in enumerate(self.spans):
            children.setdefault(parent, []).append(idx)
        out = []
        for idx, (_, start, end, _, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c in children.get(idx, ()):
                c_start, c_end = max(self.spans[c][1], reach), self.spans[c][2]
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out


def layer_metrics(tracer):
    """Per-layer counts, ratios and self times over every recorded span."""
    spans = tracer.spans
    own = tracer.self_times()
    calls, self_s = {}, {}
    for (name, *_), t in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t

    def infos(name):
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    in_fallback = []
    for name, _, _, parent, _, _ in spans:
        in_fallback.append(name == "engine.fallback" or (parent >= 0 and in_fallback[parent]))
    argmax = [i for i, s in enumerate(spans) if s[0] == "engine.argmax"]
    select_with_lp = {s[3] for s in spans if s[0] == "lp.solve" and s[3] >= 0 and spans[s[3]][0] == "engine.select"}
    argmax_info = infos("engine.argmax")
    pe_info = infos("envy.pe")
    fallback_info = infos("engine.fallback")
    certify_info = infos("engine.certify")

    def count(name):
        return calls.get(name, 0)

    def busy(name):
        return self_s.get(name, 0.0)

    return {
        "engine.argmax.calls": (count("engine.argmax"), "count"),
        "engine.argmax.cells": (sum(i["cells"] for i in argmax_info), "count"),
        "engine.argmax.self_s": (busy("engine.argmax"), "s"),
        "engine.argmax.tie_ratio": (ratio(sum(i["tie"] for i in argmax_info), len(argmax_info)), "ratio"),
        "engine.select.calls": (count("engine.select"), "count"),
        "engine.select.lp_ratio": (ratio(len(select_with_lp), count("engine.select")), "ratio"),
        "engine.select.self_s": (busy("engine.select"), "s"),
        "engine.views.self_s": (busy("engine.views"), "s"),
        "engine.projection.calls": (count("engine.projection"), "count"),
        "engine.projection.self_s": (busy("engine.projection"), "s"),
        "engine.rho.self_s": (busy("engine.rho"), "s"),
        "engine.phase1.iterations": (sum(1 for i in argmax if not in_fallback[i]), "count"),
        "engine.fallback.entered_ratio": (ratio(count("engine.fallback"), count("engine.solve")), "ratio"),
        "engine.fallback.candidates": (sum(1 for i in argmax if in_fallback[i]), "count"),
        "engine.fallback.hit_ratio": (ratio(sum(i["hit"] for i in fallback_info), len(fallback_info)), "ratio"),
        "engine.fallback.self_s": (busy("engine.fallback"), "s"),
        "engine.certify.calls": (count("engine.certify"), "count"),
        "engine.certify.ok_ratio": (ratio(sum(i["ok"] for i in certify_info), len(certify_info)), "ratio"),
        "envy.ef.calls": (count("envy.ef"), "count"),
        "envy.ef.self_s": (busy("envy.ef"), "s"),
        "envy.pe.calls": (count("envy.pe"), "count"),
        "envy.pe.cols": (sum(i["cols"] for i in pe_info), "count"),
        "envy.pe.dominated_ratio": (ratio(sum(i["dominated"] for i in pe_info), len(pe_info)), "ratio"),
        "envy.pe.self_s": (busy("envy.pe"), "s"),
        "lp.solve.calls": (count("lp.solve"), "count"),
        "lp.solve.cells": (sum(i["cells"] for i in infos("lp.solve")), "count"),
        "lp.solve.self_s": (busy("lp.solve"), "s"),
        "model.closure.added": (sum(i["added"] for i in infos("model.closure")), "count"),
        "model.closure.self_s": (busy("model.closure"), "s"),
        "model.swappable.self_s": (busy("model.swappable"), "s"),
        "model.lottery.calls": (count("model.lottery"), "count"),
        "model.lottery.self_s": (busy("model.lottery"), "s"),
        "model.expected_utility.calls": (count("model.expected_utility"), "count"),
        "model.expected_utility.self_s": (busy("model.expected_utility"), "s"),
        "serialize.load.self_s": (busy("serialize.load"), "s"),
        "serialize.dump.self_s": (busy("serialize.dump"), "s"),
        "cli.self_s": (busy("cli"), "s"),
    }


EXACT_COUNTS = (
    "engine.argmax.calls",
    "engine.argmax.cells",
    "lp.solve.calls",
    "lp.solve.cells",
    "envy.pe.cols",
    "engine.fallback.candidates",
    "model.closure.added",
)
