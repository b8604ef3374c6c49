"""In-memory spans and counters around the layers of the subres package.

`Tracer.install()` replaces each traced function wherever a `subres`
module has bound it (the defining module and every module that imported
it by name), so calls between layers pass through a wrapper that records a
span: name, start, end, parent span and case id.  `ParamPoly` operators get
counting wrappers instead of spans.  `uninstall()` puts the originals back.
Nothing is written out; `layer_metrics()` derives the per-layer figures
from the spans once a pass has ended.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (defining module, function, span name or callable giving the span name)
FUNCTION_HOOKS = (
    ("subres.matrix", "det_exact", None),  # named det.rat / det.pp per call
    ("subres.subresultants", "sres_coeff", "sres_coeff"),
    ("subres.subresultants", "sylv_double_sum", "sylv_double_sum"),
    ("subres.roots_formulas", "sres_roots", None),  # named by variant
    ("subres.roots_formulas", "sres_dm1_hermite", "sres_dm1_hermite"),
    ("subres.roots_formulas", "sres_one", "sres_one"),
    ("subres.confluent", "vandermonde_confluent", "confluent.build"),
    ("subres.confluent", "wronskian", "confluent.build"),
    ("subres.confluent", "confluent_inverse", "confluent.inverse"),
    ("subres.mv.duality", "inverse_system", "inverse_system"),
    ("subres.mv.macaulay", "macaulay_matrix", "macaulay_matrix"),
    ("subres.mv.macaulay", "extraneous_factor", "extraneous_factor"),
    ("subres.mv.macaulay", "delta_s", "delta_s"),
    ("subres.mv.poisson", "poisson_delta", "poisson_delta"),
    ("subres.mv.hilbert", "build_monomial_sets", "hilbert"),
    ("subres.mv.hilbert", "hilbert_function", "hilbert"),
    ("subres.verify", "univariate_checks", "verify"),
    ("subres.verify", "mv_checks", "verify"),
    ("subres.serialize", "parse_rootset", "serialize"),
    ("subres.serialize", "parse_system", "serialize"),
)

_SRES_VARIANTS = ("compact", "block", "wronskian_full")


class Tracer:
    """Spans as [name, start, end, parent index, case id], kept in a list."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.case = None
        self._stack: list = []
        self._saved: list = []
        self.missing: list = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.case])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def note_max(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def _span_wrapper(self, fn, namer, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(namer(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(idx, args, result)
            return result

        return traced

    # -- hooks -----------------------------------------------------------

    def _hook_for(self, func: str, span, original):
        if func == "det_exact":
            return self._span_wrapper(original, self._det_name)
        if func == "sres_roots":
            return self._span_wrapper(original, _sres_roots_name)
        if func == "inverse_system":
            return self._span_wrapper(original, lambda a, k: span, self._after_inverse)
        if span == "verify":
            return self._span_wrapper(original, lambda a, k: span, self._after_verify)
        return self._span_wrapper(original, lambda a, k: span)

    def _det_name(self, args, kwargs) -> str:
        from subres.scalar import ParamPoly

        m = args[0] if args else kwargs["m"]
        n = m.nrows
        kind = "pp" if any(isinstance(v, ParamPoly) for row in m.rows for v in row) else "rat"
        self.counts["det.%s.calls" % kind] += 1
        self.note_max("det.%s.max_n" % kind, n)
        # Bareiss step k updates an (n-k-1) x (n-k-1) trailing block.
        self.counts["det.elim_steps"] += sum(j * j for j in range(1, n))
        return "det." + kind

    def _after_inverse(self, idx, args, result) -> None:
        orders = sum(1 for s in self.spans[idx + 1 :] if s[0] == "nullspace" and s[3] == idx)
        self.counts["inverse_system.calls"] += 1
        self.counts["inverse_system.orders"] += orders
        if result.order_stabilized is not None:
            self.counts["inverse_system.useful"] += result.order_stabilized + 1

    def _after_verify(self, idx, args, result) -> None:
        self.counts["verify.checks"] += len(result)

    def _count_op(self, key: str, fn):
        tracer = self
        from subres.scalar import ParamPoly

        @functools.wraps(fn)
        def counted(a, b):
            result = fn(a, b)
            if isinstance(result, ParamPoly):
                tracer.counts[key] += 1
                tracer.note_max("pp.max_terms", len(result.terms))
            return result

        return counted

    def install(self) -> None:
        """Wrap every hook at each of its import sites in loaded subres modules."""
        from subres.matrix import ExactMatrix
        from subres.scalar import ParamPoly

        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "subres"]
        for home, func, span in FUNCTION_HOOKS:
            original = getattr(sys.modules.get(home), func, None)
            if original is None:
                self.missing.append("%s.%s" % (home, func))
                continue
            hook = self._hook_for(func, span, original)
            for mod in modules:
                if mod.__dict__.get(func) is original:
                    self._saved.append((mod, func, original))
                    setattr(mod, func, hook)
        self._saved.append((ExactMatrix, "nullspace", ExactMatrix.nullspace))
        ExactMatrix.nullspace = self._span_wrapper(ExactMatrix.nullspace, lambda a, k: "nullspace")
        for attr, key in (
            ("__mul__", "pp.mul.calls"),
            ("__rmul__", "pp.mul.calls"),
            ("__truediv__", "pp.div.calls"),
        ):
            original = ParamPoly.__dict__[attr]
            self._saved.append((ParamPoly, attr, original))
            setattr(ParamPoly, attr, self._count_op(key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- derived figures ---------------------------------------------------

    def layer_metrics(self, scale) -> dict:
        """Per-layer figures over every span recorded so far.

        ``scale[case]`` converts the wall time of that case's spans to
        reference speed.  A name's time is the summed duration of its
        outermost spans (a span nested in one of the same name is not
        counted twice); self time is a span's duration minus the time its
        direct children cover.
        """
        duration = [(end - start) * scale[case] for _, start, end, _, case in self.spans]
        child_time = [0.0] * len(self.spans)
        outer_time: Counter = Counter()
        self_time: Counter = Counter()
        for idx, (name, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                child_time[parent] += duration[idx]
            up = parent
            while up is not None and self.spans[up][0] != name:
                up = self.spans[up][3]
            if up is None:
                outer_time[name] += duration[idx]
        for idx, (name, _, _, _, _) in enumerate(self.spans):
            self_time[name] += duration[idx] - child_time[idx]

        c = self.counts
        out = {
            "det.rat.calls": c["det.rat.calls"],
            "det.rat.s": outer_time["det.rat"],
            "det.rat.max_n": self.maxima["det.rat.max_n"],
            "det.pp.calls": c["det.pp.calls"],
            "det.pp.s": outer_time["det.pp"],
            "det.pp.max_n": self.maxima["det.pp.max_n"],
            "det.elim_steps": c["det.elim_steps"],
            "nullspace.calls": sum(1 for s in self.spans if s[0] == "nullspace"),
            "nullspace.s": outer_time["nullspace"],
            "pp.mul.calls": c["pp.mul.calls"],
            "pp.div.calls": c["pp.div.calls"],
            "pp.max_terms": self.maxima["pp.max_terms"],
            "sres_roots.self_s": sum(self_time["sres_roots." + v] for v in _SRES_VARIANTS),
            "sres_coeff.calls": sum(1 for s in self.spans if s[0] == "sres_coeff"),
            "sres_coeff.self_s": self_time["sres_coeff"],
            "inverse_system.calls": c["inverse_system.calls"],
            "inverse_system.orders": c["inverse_system.orders"],
            "inverse_system.useful_ratio": (
                c["inverse_system.useful"] / c["inverse_system.orders"]
                if c["inverse_system.orders"]
                else 0.0
            ),
            "verify.self_s": self_time["verify"],
            "verify.checks": c["verify.checks"],
        }
        for name in ("sres_roots." + v for v in _SRES_VARIANTS):
            out[name + ".s"] = outer_time[name]
        for name in (
            "sres_dm1_hermite",
            "sres_one",
            "sres_coeff",
            "sylv_double_sum",
            "confluent.build",
            "confluent.inverse",
            "inverse_system",
            "macaulay_matrix",
            "extraneous_factor",
            "delta_s",
            "poisson_delta",
            "hilbert",
            "serialize",
        ):
            out[name + ".s"] = outer_time[name]
        return out


def _sres_roots_name(args, kwargs) -> str:
    variant = args[3] if len(args) > 3 else kwargs.get("variant", "compact")
    return "sres_roots." + variant.replace("-", "_")
