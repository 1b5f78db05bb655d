"""Per-layer spans recorded from outside the library.

`Tracer.install()` wraps the public entry points of each gsl layer in
every gsl namespace that binds them, so calls through a `from .x import f`
binding are recorded too.  Spans are kept in memory while items run and
are aggregated (and optionally written out) at the end.

A layer's busy time counts only its outermost entries; its self time is
busy time minus the time covered by child spans in other layers.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import Counter

LAYERS = ("cli", "applications", "specialize", "covers", "nfield", "padic", "modp", "exact")

# The public entry points wrapped in each layer.
ENTRY_POINTS = {
    "cli": ("main",),
    "applications": (
        "adequacy_certificate", "adequacy_certificate_for_field",
        "find_frobenius_primes", "grunwald_obstruction",
        "parametric_obstruction_report",
    ),
    "specialize": (
        "verify_specialization", "predict_decomposition", "specialize_poly",
        "meeting_primes",
    ),
    "covers": (
        "load_cover", "bundled_covers", "branch_points", "puiseux_at",
        "conservative_bad_primes",
    ),
    "nfield": (
        "factor_rational", "factor_nf", "adjoin_root", "relative_min_poly",
        "is_irreducible_rational",
    ),
    "padic": ("local_splitting_type",),
    "modp": (
        "factor_over", "roots_over", "factor_mod_p", "roots_mod_p",
        "frobenius_data", "reduce_relative",
    ),
    "exact": ("disc_y", "resultant", "discriminant", "squarefree_part", "factor_int"),
}

# Cross-module bindings that the named per-layer counts depend on.  If one
# disappears (a rename, a changed import), calls would escape their span
# and read as 0; installing fails instead.
REQUIRED_BINDINGS = {
    "padic.local_splitting_type": ("specialize", "applications"),
    "modp.factor_over": ("padic", "nfield"),
    "specialize.verify_specialization": ("cli",),
    "covers.branch_points": ("specialize", "applications", "cli"),
    "exact.disc_y": ("covers", "specialize"),
    "nfield.factor_nf": ("covers",),
}

SMALL_PRIME = 50


class TraceSetupError(RuntimeError):
    """An expected entry point or binding is missing."""


class Tracer:
    def __init__(self):
        self.names: list[str] = []       # span name by id: "layer.function"
        self.layer_of: list[int] = []    # layer index by name id
        # One span: [name id, start, end, parent index or -1, item, failed].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.item = -1
        self.branch_points_returned = 0
        self.oracle_inputs: list[tuple] = []  # (f, p, ctx) per oracle call
        self.report_entries = 0
        self.checked_entries = 0
        self._patched: list[tuple] = []   # (module, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"gsl.{layer}") for layer in LAYERS}
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "gsl" or name.startswith("gsl."))]
        bound: dict[str, set[str]] = {}
        for layer, funcs in ENTRY_POINTS.items():
            for fname in funcs:
                qual = f"{layer}.{fname}"
                orig = getattr(modules[layer], fname, None)
                if not callable(orig):
                    self.uninstall()
                    raise TraceSetupError(f"entry point gsl.{qual} is missing")
                wrapper = self._wrap(qual, LAYERS.index(layer), orig)
                bound[qual] = set()
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            self._patched.append((ns, attr, orig))
                            setattr(ns, attr, wrapper)
                            bound[qual].add(ns.__name__.rpartition(".")[2])
        for qual, where in REQUIRED_BINDINGS.items():
            missing = [m for m in where if m not in bound[qual]]
            if missing:
                self.uninstall()
                raise TraceSetupError(
                    f"gsl.{qual} is no longer bound in {missing}; calls from "
                    "there would escape their span")

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._patched):
            setattr(ns, attr, orig)
        self._patched.clear()

    def _wrap(self, qual: str, layer: int, fn):
        name_id = len(self.names)
        self.names.append(qual)
        self.layer_of.append(layer)
        after = _AFTER.get(qual)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.item, False]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                stack.pop()
                span[5] = True
                if after is not None:
                    after(self, args, kwargs, None)
                raise
            span[2] = clock()
            stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    # -- aggregation --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """<layer>.calls / busy_s / self_s / failed for every layer."""
        n_layers = len(LAYERS)
        calls = [0] * n_layers
        failed = [0] * n_layers
        busy = [0.0] * n_layers
        self_s = [0.0] * n_layers
        spans = self.spans
        layer = [self.layer_of[s[0]] for s in spans]
        # Bit mask of the layers among each span's ancestors.
        above = [0] * len(spans)
        for i, s in enumerate(spans):
            parent = s[3]
            if parent >= 0:
                above[i] = above[parent] | (1 << layer[parent])
        # Time each span spends in other layers: a child in another layer
        # counts whole, a child in the same layer passes on its own figure.
        foreign = [0.0] * len(spans)
        for i in range(len(spans) - 1, -1, -1):
            s = spans[i]
            parent = s[3]
            if parent >= 0:
                foreign[parent] += (s[2] - s[1]) if layer[parent] != layer[i] else foreign[i]
        for i, s in enumerate(spans):
            L = layer[i]
            calls[L] += 1
            failed[L] += s[5]
            if not above[i] >> L & 1:
                busy[L] += s[2] - s[1]
                self_s[L] += s[2] - s[1] - foreign[i]
        out = {}
        for L, name in enumerate(LAYERS):
            out[f"{name}.calls"] = calls[L]
            out[f"{name}.busy_s"] = busy[L]
            out[f"{name}.self_s"] = self_s[L]
            out[f"{name}.failed"] = failed[L]
        return out

    def named_metrics(self) -> dict[str, float]:
        """The named counts and ratios; a ratio whose base is 0 reads 0."""
        from gsl.errors import GslError
        from gsl.padic import PadicPrecisionCtx

        counts = Counter(self.names[s[0]] for s in self.spans)
        oracle = len(self.oracle_inputs)
        precisions = []
        for f, p, ctx in self.oracle_inputs:
            try:
                precisions.append((ctx or PadicPrecisionCtx.for_input(f, p)).precision)
            except GslError:
                continue  # the oracle refused this input as well
        loci = counts["covers.puiseux_at"]
        return {
            "covers.branch_points.calls": counts["covers.branch_points"],
            "covers.puiseux_at.calls": loci,
            "covers.ramified_frac": self.branch_points_returned / loci if loci else 0.0,
            "exact.disc_y.calls": counts["exact.disc_y"],
            "nfield.factor_nf.calls": counts["nfield.factor_nf"],
            "modp.factor_over.calls": counts["modp.factor_over"],
            "padic.local_splitting_type.calls": counts["padic.local_splitting_type"],
            "padic.small_prime_frac":
                sum(p < SMALL_PRIME for _, p, _ in self.oracle_inputs) / oracle if oracle else 0.0,
            "padic.precision_mean": sum(precisions) / len(precisions) if precisions else 0.0,
            "specialize.report_entries": self.report_entries,
            "specialize.checked_frac":
                self.checked_entries / self.report_entries if self.report_entries else 0.0,
        }

    def write(self, path) -> None:
        """All spans as gzipped TSV: name, start, end, parent, item, failed."""
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\titem\tfailed\n")
            for name_id, start, end, parent, item, bad in self.spans:
                fh.write(f"{self.names[name_id]}\t{start:.9f}\t{end:.9f}\t"
                         f"{parent}\t{item}\t{int(bad)}\n")


# Counters read from arguments and results after the span has closed;
# result is None when the call raised.

def _after_branch_points(tracer, args, kwargs, result):
    if result is not None:
        tracer.branch_points_returned += len(result)


def _after_oracle(tracer, args, kwargs, result):
    f = args[0] if len(args) > 0 else kwargs["f"]
    p = args[1] if len(args) > 1 else kwargs["p"]
    ctx = args[2] if len(args) > 2 else kwargs.get("ctx")
    tracer.oracle_inputs.append((f, p, ctx))


def _after_verify(tracer, args, kwargs, result):
    if result is None:
        return
    tracer.report_entries += len(result.entries)
    tracer.checked_entries += sum(e.oracle is not None for e in result.entries)


_AFTER = {
    "covers.branch_points": _after_branch_points,
    "padic.local_splitting_type": _after_oracle,
    "specialize.verify_specialization": _after_verify,
}
