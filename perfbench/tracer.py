"""Spans around calls into linkhom's layers, recorded from outside.

The tracer swaps each target function for a wrapper in every linkhom
module namespace that holds it (and on its class, for methods), so calls
made inside the library are seen too.  The program itself is unchanged,
and the wrappers are installed only around the traced op calls.  Each
span is kept in memory as [name, start, end, parent, op id, counts] and
written out once, when the run ends.

A target missing from the library is skipped; its layer then reads 0.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute or Class.method, span name).  The span name's prefix
# before the dot is the layer.  The graph builders are wrapped where the
# public homology functions call them; ``_enhanced_cube`` is the builder
# behind ``enhanced_homology`` and ``build_enhanced_complex``.
TARGETS = (
    ("homcore", "smith_normal_form", "homcore.snf"),
    ("homcore", "GradedComplex.verify_d_squared", "homcore.d2"),
    ("homcore", "graded_homology", "homcore.homology"),
    ("khovanov", "build_khovanov_complex", "khovanov.build"),
    ("khovanov", "kauffman_bracket", "khovanov.bracket"),
    ("graphhom", "build_Pn_complex", "graphhom.build"),
    ("graphhom", "build_Qn_complex", "graphhom.build"),
    ("graphhom", "_enhanced_cube", "graphhom.build"),
    ("graphhom", "dichromatic", "graphhom.poly"),
    ("graphhom", "dichromatic_DG", "graphhom.poly"),
    ("graphhom", "tutte", "graphhom.poly"),
    ("homflypt", "hecke_normal_form", "homflypt.hecke"),
    ("homflypt", "markov_trace", "homflypt.trace"),
    ("homflypt", "specialize_Gn", "homflypt.specialize"),
)


def _snf_counts(args, result):
    m = args[0]
    factors, rank = result
    nonunit = sum(1 for f in factors if f != 1)
    return {"rows": m.rows, "cols": m.cols, "nnz": m.nnz, "rank": rank, "nonunit": nonunit}


def _complex_counts(args, result):
    return {"generators": result.total_dim(), "nnz": sum(b.nnz for b in result.diff.values())}


def _hecke_counts(args, result):
    return {"perms": len(result.coeffs)}


COUNTERS = {
    "homcore.snf": _snf_counts,
    "khovanov.build": _complex_counts,
    "graphhom.build": _complex_counts,
    "homflypt.hecke": _hecke_counts,
}


class Tracer:
    """Span recorder over the linkhom modules imported when it is made."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id: int | str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [m for n, m in sys.modules.items() if n == "linkhom" or n.startswith("linkhom.")]
        for mod_name, attr, span_name in TARGETS:
            mod = sys.modules.get(f"linkhom.{mod_name}")
            if mod is None:
                continue
            owner_name, _, meth = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                fn = owner.__dict__.get(meth) if owner is not None else None
                if fn is not None:
                    self._patches.append((owner, meth, fn, self._wrap(fn, span_name)))
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, span_name)
            for m in modules:
                for name, value in vars(m).items():
                    if value is fn:
                        self._patches.append((m, name, fn, wrapper))

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                span[5] = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self.op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()


def subtree(spans: list[list], root: int) -> list[list]:
    """The root span and every span opened under it."""
    end = root + 1
    while end < len(spans) and spans[end][3] is not None:
        end += 1
    return spans[root:end]


def op_summary(spans: list[list], root: int) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
    """Per span name under ``root`` (inclusive): outermost total seconds,
    self seconds, and summed counts; counts are keyed "<span>.<count>"."""
    children: dict[int, list[int]] = {}
    for sid in range(root + 1, root + len(subtree(spans, root))):
        children.setdefault(spans[sid][3], []).append(sid)
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}

    def walk(sid: int, inside: frozenset) -> None:
        name, start, end, _, _, c = spans[sid]
        dur = end - start
        kids = children.get(sid, [])
        self_s[name] = self_s.get(name, 0.0) + dur - sum(spans[k][2] - spans[k][1] for k in kids)
        if name not in inside:
            total[name] = total.get(name, 0.0) + dur
        if c:
            for key, v in c.items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + v
        for k in kids:
            walk(k, inside | {name})

    walk(root, frozenset())
    return total, self_s, counts
