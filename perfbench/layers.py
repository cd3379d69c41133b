"""Per-layer tracing for one etacheck check, installed from outside the package.

Every public entry point named in SPANS is replaced by a wrapper that records
one span [name, start, end, parent] per call.  A wrapper only sees calls made
through the name it is installed under, so each original function object is
replaced under every name that refers to it in every loaded etacheck module
(``etacheck.ujump.mw_reduce`` as well as ``etacheck.basis.mw_reduce``,
``etacheck.cli.find_t``, the ``convolve_ints`` global that ``QSeries`` looks
up, and so on).  Methods are replaced on their class.

Beside the spans, a few counters are kept at the same boundaries:
enumerated search candidates (counted by a C-level pass-through iterator,
never a span per candidate), the bytes of every integer that
``series._pack`` builds for a Kronecker multiply, image bit sizes, and
requests that rebuilt the basis workspace.
"""

from __future__ import annotations

import itertools
import operator
import sys
import time

# (span name, module, attribute, class or None)
SPANS = (
    ("series.convolve_ints", "series", "convolve_ints", None),
    ("series.inv", "series", "inv", "QSeries"),
    ("eta.eta_expand", "eta", "eta_expand", None),
    ("eta.euler_product", "eta", "euler_product", None),
    ("modcurve.cusp_representatives", "modcurve", "cusp_representatives", None),
    ("modcurve.cusp_image_under_scaling", "modcurve", "cusp_image_under_scaling", None),
    ("modcurve.newman_check", "modcurve", "newman_check", None),
    ("modcurve.eta_order_at_cusp", "modcurve", "eta_order_at_cusp", None),
    ("modcurve.order_vector", "modcurve", "order_vector", None),
    ("search.search_modular_quotients", "search", "search_modular_quotients", None),
    ("tfinder.find_t", "tfinder", "find_t", None),
    ("tfinder.compute_pole_sets", "tfinder", "compute_pole_sets", None),
    ("basis.load_basis_n20", "basis", "load_basis_n20", None),
    ("basis.construct_basis", "basis", "construct_basis", None),
    ("basis.verify_basis", "basis", "verify_basis", None),
    ("basis.monomial", "basis", "monomial", "AlgebraBasis"),
    ("basis.mw_reduce", "basis", "mw_reduce", None),
    ("ujump.compute_m_constants", "ujump", "compute_m_constants", None),
    ("ujump.image", "ujump", "image", "UImageTable"),
    ("ujump.load", "ujump", "_load", "UImageTable"),
    ("ujump.store", "ujump", "_store", "UImageTable"),
    ("ujump.compute", "ujump", "_compute", "UImageTable"),
    ("ujump.u_ell", "ujump", "u_ell", None),
    ("verifier.u_step", "ujump", "u_step", None),
    ("verifier.iterate", "verifier", "iterate", None),
    ("verifier.direct_oracle", "verifier", "direct_oracle", None),
    ("cli.resolve_basis", "cli", "resolve_basis", None),
    ("cli.main", "cli", "main", None),
)


def _max_abs(values) -> int:
    values = list(values)
    return max(max(values), -min(values)) if values else 0


class Tracer:
    """Spans and counters of one process; nothing is written until the end."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}
        self.maxima = {}
        self._candidates = []  # itertools.count objects, one per enumeration

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key, value):
        if value > self.maxima.get(key, value - 1):
            self.maxima[key] = value

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result, rec)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters hooked onto spans -----------------------------------------

    def _after_convolve(self, args, result, rec):
        self.peak("convolve_max_bits", _max_abs(result).bit_length())

    def _after_compute(self, args, result, rec):
        self.peak("image_max_bits", _max_abs(result.terms.values()).bit_length())
        self.peak("image_compute_max_s", rec[2] - rec[1])

    def _after_load(self, args, result, rec):
        if result is not None:
            self.add("images_loaded", 1)

    def _after_u_step(self, args, result, rec):
        self.add("u_step_terms_in", len(args[1].terms))

    def _after_oracle(self, args, result, rec):
        _gen, m, j, _ell, _e, n_max = args
        self.add("oracle_coeffs", m * n_max + j + 1)

    def _after_search(self, args, result, rec):
        self.add("search_hits", len(result))

    def candidates(self) -> int:
        return sum(next(c) for c in self._candidates)

    # -- installation --------------------------------------------------------

    def install(self):
        import etacheck.cli  # noqa: F401  (loads every module of the package)

        mods = {name: mod for name, mod in sys.modules.items()
                if name == "etacheck" or name.startswith("etacheck.")}
        after = {
            "series.convolve_ints": self._after_convolve,
            "ujump.compute": self._after_compute,
            "ujump.load": self._after_load,
            "verifier.u_step": self._after_u_step,
            "verifier.direct_oracle": self._after_oracle,
            "search.search_modular_quotients": self._after_search,
        }
        for name, mod_name, attr, cls_name in SPANS:
            mod = mods["etacheck." + mod_name]
            if cls_name is not None:
                cls = getattr(mod, cls_name)
                orig = cls.__dict__.get(attr)
                if orig is not None:
                    setattr(cls, attr, self.wrap(name, orig, after.get(name)))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapped = self.wrap(name, orig, after.get(name))
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
        self._count_candidates(mods["etacheck.search"])
        self._count_packed(mods["etacheck.series"])
        self._count_workspace(mods["etacheck.basis"].AlgebraBasis)

    def _count_candidates(self, search):
        enumerate_vectors = getattr(search, "iter_exponent_vectors", None)
        if enumerate_vectors is None:
            return
        counters = self._candidates
        first = operator.itemgetter(0)

        def counted(*args, **kwargs):
            counter = itertools.count()
            counters.append(counter)
            return map(first, zip(enumerate_vectors(*args, **kwargs), counter))

        search.iter_exponent_vectors = counted

    def _count_packed(self, series):
        pack = getattr(series, "_pack", None)
        if pack is None:
            return
        counts = self.counts

        def counted(*args, **kwargs):
            operand = pack(*args, **kwargs)
            counts["convolve_operand_bytes"] = (counts.get("convolve_operand_bytes", 0)
                                                + (operand.bit_length() + 7) // 8)
            return operand

        series._pack = counted

    def _count_workspace(self, cls):
        grown = cls.__dict__.get("_grown")
        if grown is None:
            return
        tracer = self

        def counted(basis, prec):
            if basis._cache.get("prec", 0) < prec:
                tracer.add("workspace_rebuilds", 1)
                tracer.peak("workspace_max_prec", prec)
            return grown(basis, prec)

        cls._grown = counted

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        """calls, total and self seconds per span name, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            row = layers.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        counts = dict(self.counts, search_candidates=self.candidates())
        return {"layers": layers, "counts": counts, "maxima": dict(self.maxima)}
