"""Outside-in tracer: wraps the public functions of the ``schubert`` modules
from the benchmark's side, records one span per call and folds the spans
into per-layer metrics once the pass is over.

A span is ``[name, start, end, parent, op, n_in, n_out]``: ``parent`` is the
index of the enclosing span (-1 for none), ``op`` the benchmark op it ran
under, and ``n_in``/``n_out`` the counts taken at the same boundary (terms
in and out, monomials, raw Leibniz terms).  Spans stay in memory; nothing is
written while ops run.
"""

from __future__ import annotations

import sys
from math import comb
from time import perf_counter

OP = "op"


def _size(v) -> int:
    return len(v.terms)


def _count_pieri(args, out):
    return _size(args[1]), _size(out)


def _count_leibniz(args, out):
    h, v = args[0], args[1]
    k = v.degree
    raw = _size(v) * comb(h + k - 1, k - 1) if h >= 0 and k > 0 else 0
    return raw, _size(out)


def _count_apply(args, out):
    return len(args[0].terms), _size(out)


def _count_reduce(args, out):
    return _size(args[0]), _size(out)


# (module, attribute, span name, counter).  A dotted attribute names a method
# that is rebound on its class; anything missing from the program is skipped.
TARGETS = [
    ("exterior_core", "KVector.__add__", "exterior_core.kvector_add", None),
    ("exterior_core", "KVector.scale", "exterior_core.kvector_scale", None),
    ("exterior_core", "normalize", "exterior_core.normalize", None),
    ("derivations", "pieri_d", "derivations.pieri_d", _count_pieri),
    ("derivations", "leibniz_d", "derivations.leibniz_d", _count_leibniz),
    ("derivations", "apply_operator", "derivations.apply_operator", _count_apply),
    ("giambelli_ring", "giambelli_det", "giambelli_ring.giambelli_det", None),
    ("giambelli_ring", "reduce_generator", "giambelli_ring.reduce_generator", None),
    ("giambelli_ring", "expand_in_low_generators", "giambelli_ring.expand_in_low_generators", None),
    ("giambelli_ring", "verify_presentation", "giambelli_ring.verify_presentation", None),
    ("grassmann_contexts", "multiply", "grassmann_contexts.multiply", None),
    ("grassmann_contexts", "reduce_kvector", "grassmann_contexts.reduce_kvector", _count_reduce),
    ("grassmann_contexts", "quantum_pieri", "grassmann_contexts.quantum_pieri", None),
    ("grassmann_contexts", "structure_table", "grassmann_contexts.structure_table", None),
    ("schur_oracle", "schur_expand", "schur_oracle.schur_expand", None),
    ("schur_oracle", "lr_expansion", "schur_oracle.lr_expansion", None),
    ("schur_oracle", "schur_decompose", "schur_oracle.schur_decompose", None),
    ("schur_oracle", "verify_jacobi_trudi", "schur_oracle.verify_jacobi_trudi", None),
    ("pluecker", "all_minors", "pluecker.all_minors", None),
    ("pluecker", "schubert_symbol", "pluecker.schubert_symbol", None),
]

# The lru cache whose hit ratio is reported for a span.
HIT_RATIO_CACHES = {
    "giambelli_ring.giambelli_det": "giambelli_det",
    "giambelli_ring.reduce_generator": "reduce_generator",
    "grassmann_contexts.multiply": "_multiply_cached",
    "schur_oracle.schur_expand": "schur_expand",
}


class Tracer:
    """Records spans for calls into the wrapped functions."""

    def __init__(self):
        self.spans = []
        self.op_id = -1
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, count=None):
        spans, stack, tracer = self.spans, self._stack, self

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                rec[5], rec[6] = count(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def span(self, name, fn, *args):
        """Call ``fn(*args)`` inside a span that the tracer opens itself."""
        return self.wrap(name, fn)(*args)

    def install(self, package: str = "schubert") -> int:
        """Rebind every target in every loaded module of ``package`` that
        binds it, and the traced methods on their class.  Returns the
        number of bindings replaced."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, attr, name, count in TARGETS:
            home = sys.modules.get(f"{package}.{mod_name}")
            if home is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                original = vars(cls)[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, count))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return len(self._restore)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = {}
    for idx, rec in enumerate(spans):
        if rec[3] >= 0:
            children.setdefault(rec[3], []).append(idx)
    out = []
    for idx, rec in enumerate(spans):
        start, end = rec[1], rec[2]
        covered = 0.0
        cursor = start
        for c in sorted(children.get(idx, ()), key=lambda i: spans[i][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def summarize(spans) -> dict:
    """Fold spans into ``{name: {calls, self_s, n_in, n_out, peak}}`` plus the
    op time and the share of it that the layers' self time accounts for."""
    selfs = self_times(spans)
    by_name = {}
    op_time = 0.0
    layer_self = 0.0
    peak = {}
    for idx, rec in enumerate(spans):
        name = rec[0]
        if name == OP:
            op_time += rec[2] - rec[1]
            continue
        layer_self += selfs[idx]
        agg = by_name.setdefault(name, {"calls": 0, "self_s": 0.0, "n_in": 0, "n_out": 0, "peak": 0})
        agg["calls"] += 1
        agg["self_s"] += selfs[idx]
        agg["n_in"] += rec[5]
        agg["n_out"] += rec[6]
        if name == "derivations.apply_operator":
            peak[idx] = max(peak.get(idx, 0), rec[6])
        elif name == "derivations.pieri_d" and rec[3] >= 0 and spans[rec[3]][0] == "derivations.apply_operator":
            peak[rec[3]] = max(peak.get(rec[3], 0), rec[6])
    if peak:
        by_name["derivations.apply_operator"]["peak"] = max(peak.values())
    return {
        "layers": by_name,
        "op_s": op_time,
        "layer_self_s": layer_self,
        "spans": len(spans),
    }


def cache_stats(package: str = "schubert") -> dict:
    """``{function name: (hits, misses, currsize)}`` for every lru cache
    defined at the top level of a loaded module of ``package``.  Call it
    with the tracer uninstalled."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for key, value in vars(mod).items():
            info = getattr(value, "cache_info", None)
            if callable(info) and getattr(value, "__module__", None) == name:
                ci = info()
                out[key] = (ci.hits, ci.misses, ci.currsize)
    return out
