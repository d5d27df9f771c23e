"""Span tracing of the sgb layers, done from outside the package.

``instrument(tracer)`` replaces every public function of the layer modules
with a wrapper that records a span, at each place the function is looked up:
``from .engine import buchberger`` binds ``buchberger`` in ``sgb.analysis``,
so the wrapper goes into ``sgb.analysis`` as well as ``sgb.engine``.  On exit
every original binding is restored; nothing under ``src/`` is edited.

Spans are kept in memory as ``[id, parent id, item id, name, start, end]``
and written out once, by the caller, when the run ends.  Counts recorded at
the same boundaries depend only on the work done, so two traced passes over
the same inputs must give identical counts.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import time

LAYERS = ("core", "hilbert", "engine", "analysis", "io", "cli")

# Monomial and field primitives run 10^5-10^6 times per item inside the
# Buchberger and normal-form loops; a span each would make the traced run
# measure the tracer.  Their cost stays in the self time of their caller.
UNTRACED = frozenset(
    "core." + name
    for name in ("mono_deg", "mono_mul", "mono_divides", "mono_div", "mono_lcm",
                 "drl_key", "drl_compare", "fp_inv")
)


def _basis_role(system, inputs) -> str:
    """Which basis of the verifier this is, judged from its generators:
    the input I, the extension <I, l>, I^sigma, or <I^sigma, x_n>."""
    if not inputs:
        return "other"
    base = inputs[-1].polys
    polys = system.polys
    if polys == base:
        return "input"
    if len(polys) == len(base) + 1:
        return "extension" if polys[:-1] == base else "sigma_xn"
    return "sigma" if len(polys) == len(base) else "other"


def _before_verify(tracer, span, args, kwargs):
    tracer.inputs.append(args[0] if args else kwargs["system"])


def _before_basis(tracer, span, args, kwargs):
    system = args[0] if args else kwargs["system"]
    tracer.tags[span[0]] = _basis_role(system, tracer.inputs)


def _after_verify(tracer, args, kwargs, report):
    c = tracer.counts
    c["analysis.search.attempts"] += report.attempts_used
    c["analysis.sigma.nonidentity"] += not report.sigma.is_identity()
    c["analysis.fallback.capped"] += report.engine == "capped"


def _after_normal_form(tracer, args, kwargs, rem):
    tracer.counts["engine.normal_form.zero"] += rem.is_zero()


def _after_buchberger(tracer, args, kwargs, basis):
    tracer.counts["engine.buchberger.basis_len"] += len(basis)


def _after_build_macaulay(tracer, args, kwargs, mac):
    rows, cols = mac.matrix.shape
    c = tracer.counts
    c["engine.macaulay.rows"] += rows
    c["engine.macaulay.cols"] += cols
    c["engine.macaulay.cells"] += rows * cols


def _after_rref(tracer, args, kwargs, res):
    rows = res.matrix.shape[0]
    c = tracer.counts
    c["engine.rref.rows"] += rows
    c["engine.rref.rank"] += res.rank
    c["engine.rref.zero_rows"] += rows - res.rank


def _after_profile(tracer, args, kwargs, profile):
    ideal = args[0] if args else kwargs["J"]
    tracer.counts["hilbert.lm_gens"] += len(ideal.gens)


BEFORE = {
    "analysis.verify_main_theorem": _before_verify,
    "analysis.groebner_basis": _before_basis,
}
AFTER = {
    "analysis.verify_main_theorem": _after_verify,
    "engine.normal_form": _after_normal_form,
    "engine.buchberger": _after_buchberger,
    "engine.build_macaulay": _after_build_macaulay,
    "engine.rref_naive": _after_rref,
    "hilbert.regularity_profile": _after_profile,
}


class Tracer:
    """Spans and counts of one traced pass.  ``item`` is set by the caller
    before each CLI invocation and stamped on every span it opens."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.tags = {}
        self.inputs = []
        self.counts = collections.Counter()

    def call(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        span = [len(self.spans), parent, self.item, name, 0.0, 0.0]
        self.spans.append(span)
        self.stack.append(span[0])
        before = BEFORE.get(name)
        if before is not None:
            before(self, span, args, kwargs)
        span[4] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            self.stack.pop()
            if name == "analysis.verify_main_theorem":
                self.inputs.pop()
        after = AFTER.get(name)
        if after is not None:
            after(self, args, kwargs, result)
        return result

    def all_counts(self) -> dict:
        """Span counts per name plus the counts the hooks recorded."""
        out = collections.Counter(self.counts)
        for span in self.spans:
            out[span[3] + ".calls"] += 1
        for role in self.tags.values():
            out[f"analysis.basis.{role}.calls"] += 1
        return dict(sorted(out.items()))

    def times(self) -> dict:
        """Self time per span name and per layer, plus the total time of
        each basis role.  Self time is a span's duration minus the
        durations of its direct children."""
        self_s = collections.defaultdict(float)
        for span in self.spans:
            self_s[span[0]] += span[5] - span[4]
            if span[1] is not None:
                self_s[span[1]] -= span[5] - span[4]
        out = collections.defaultdict(float)
        for span in self.spans:
            name = span[3]
            out[name + ".self_s"] += self_s[span[0]]
            out["layer." + name.split(".")[0] + ".self_s"] += self_s[span[0]]
        for sid, role in self.tags.items():
            span = self.spans[sid]
            out[f"analysis.basis.{role}.total_s"] += span[5] - span[4]
        out["trace.root_s"] = sum(s[5] - s[4] for s in self.spans if s[1] is None)
        return dict(out)


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return wrapper


@contextlib.contextmanager
def instrument(tracer):
    """Route every public layer function through ``tracer`` while active."""
    modules = [importlib.import_module("sgb." + layer) for layer in LAYERS]
    wrappers = {}
    for layer, module in zip(LAYERS, modules):
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                    or name in UNTRACED):
                continue
            wrappers[id(obj)] = _wrap(tracer, name, obj)
    saved = []
    for module in modules:
        for attr, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                saved.append((module, attr, obj))
                setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, obj in saved:
            setattr(module, attr, obj)
