"""Spans around arithlab's public functions, and the per-layer metrics read from them.

arithlab modules bind the functions they use into their own namespaces
(``from .core import integer_kernel``), so a wrapper goes into every
module namespace that holds the original function, not only the module
that defines it.  Each call records a span: its name, start, end and the
index of the span that was open when it began.  Spans stay in memory and
are written out when the run ends.

Nothing here imports arithlab; ``install`` receives the package.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# Modules whose namespaces get wrappers, when loaded.
MODULES = ("core", "symbols", "progressions", "cohomology", "bounds", "experiments", "cli")

# (defining module, function) -> span name is "<module>.<function>".
FUNCTIONS = (
    ("core", "is_prime"),
    ("core", "factor"),
    ("core", "determinant"),
    ("core", "smith_normal_form"),
    ("core", "integer_kernel"),
    ("symbols", "legendre"),
    ("symbols", "hilbert_symbol"),
    ("symbols", "hilbert_product_check"),
    ("progressions", "primes_up_to"),
    ("progressions", "natural_density_estimate"),
    ("cohomology", "h1"),
    ("cohomology", "_quotient_invariants"),
    ("cohomology", "norm_one_lattice"),
    ("cohomology", "induced_lattice"),
    ("bounds", "psi"),
    ("experiments", "build_biased_prime_sets"),
    ("experiments", "artin_kernel_evidence"),
)

# (defining module, class, method): patched on the class itself.
METHODS = (
    ("cohomology", "GLattice", "__init__"),
    ("cohomology", "GLattice", "direct_sum"),
    ("progressions", "AbelianExtensionDescriptor", "__init__"),
)

BENCH_OP = "bench.op"


def _kernel_shape(args, result, parent_name):
    return [args[0].rows, args[0].cols]


def _snf_entry_bits(args, result, parent_name):
    # Only direct calls from the benchmark; inside h1 the transforms are huge.
    if parent_name != BENCH_OP:
        return None
    entries = result.diagonal + result.left_transform.entries + result.right_transform.entries
    return max(abs(x).bit_length() for x in entries)


HOOKS = {
    "core.integer_kernel": _kernel_shape,
    "core.smith_normal_form": _snf_entry_bits,
}


class Tracer:
    """Span recorder; ``install`` and ``uninstall`` swap the wrappers in and out."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.values: dict[int, object] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def __len__(self) -> int:
        return len(self.starts)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.starts.append(perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.ends[idx] = perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        name_id = self._name_id(name)
        hook = HOOKS.get(name)
        cached = hasattr(fn, "cache_info")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = fn.cache_info().misses if cached else 0
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if cached:  # the span's value: 1 for a cache miss, 0 for a hit
                self.values[idx] = fn.cache_info().misses - misses
            if hook is not None:
                parent = self.parents[idx]
                value = hook(args, result, self.names[self.name_ids[parent]] if parent >= 0 else None)
                if value is not None:
                    self.values[idx] = value
            return result

        return wrapper

    def install(self, package) -> None:
        """Put a wrapper wherever arithlab binds one of the traced functions."""
        if not self._patches:
            loaded = (sys.modules.get(f"{package.__name__}.{m}") for m in MODULES)
            modules = [package] + [m for m in loaded if m is not None]
            wrappers = {}
            for mod, fname in FUNCTIONS:
                original = getattr(getattr(package, mod), fname, None)
                if original is not None:  # a function arithlab no longer has reads 0
                    wrappers[id(original)] = (original, self.wrap(original, f"{mod}.{fname}"))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers and wrappers[id(value)][0] is value:
                        self._patches.append((module, attr, value, wrappers[id(value)][1]))
            for mod, cls_name, meth in METHODS:
                cls = getattr(getattr(package, mod), cls_name)
                original = vars(cls).get(meth)
                if original is not None:
                    wrapper = self.wrap(original, f"{mod}.{cls_name}.{meth}")
                    self._patches.append((cls, meth, original, wrapper))
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def absorb(self, records: list, parent: int) -> None:
        """Append spans recorded by another process, hung under ``parent``."""
        base = len(self.starts)
        for name, start, end, par, value in records:
            idx = len(self.starts)
            self.name_ids.append(self._name_id(name))
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(base + par if par >= 0 else parent)
            if value is not None:
                self.values[idx] = value

    def records(self) -> list:
        """Every span as [name, start, end, parent index or -1, value or None]."""
        return [
            [self.names[self.name_ids[i]], self.starts[i], self.ends[i], self.parents[i],
             self.values.get(i)]
            for i in range(len(self))
        ]

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics.
# ---------------------------------------------------------------------------


class SpanView:
    """Queries over the spans with index in [lo, hi)."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self.t = tracer
        self.lo, self.hi = lo, hi
        self.child_time = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = tracer.parents[i]
            if p >= lo:
                self.child_time[p - lo] += tracer.ends[i] - tracer.starts[i]

    def _ids(self, names) -> set[int]:
        return {self.t._name_ids[n] for n in names if n in self.t._name_ids}

    def _has_ancestor_in(self, i: int, ids: set[int]) -> bool:
        p = self.t.parents[i]
        while p >= 0:
            if self.t.name_ids[p] in ids:
                return True
            p = self.t.parents[p]
        return False

    def spans(self, *names: str):
        ids = self._ids(names)
        return [i for i in range(self.lo, self.hi) if self.t.name_ids[i] in ids]

    def outer_ms(self, *names: str) -> float:
        """Time inside any of the named spans, nested ones counted once."""
        ids = self._ids(names)
        return 1000 * sum(
            self.t.ends[i] - self.t.starts[i]
            for i in self.spans(*names)
            if not self._has_ancestor_in(i, ids)
        )

    def self_ms(self, name: str) -> float:
        """Time inside the named spans minus the time their child spans cover."""
        return 1000 * sum(
            self.t.ends[i] - self.t.starts[i] - self.child_time[i - self.lo]
            for i in self.spans(name)
        )

    def direct_ms(self, name: str) -> float:
        """Time in the named spans opened straight from a benchmark op."""
        op = self.t._name_ids.get(BENCH_OP)
        return 1000 * sum(
            self.t.ends[i] - self.t.starts[i]
            for i in self.spans(name)
            if self.t.parents[i] >= 0 and self.t.name_ids[self.t.parents[i]] == op
        )

    def count(self, name: str) -> int:
        return len(self.spans(name))

    def values(self, name: str) -> list:
        return [self.t.values[i] for i in self.spans(name) if i in self.t.values]


LATTICE_BUILD = (
    "cohomology.GLattice.__init__",
    "cohomology.GLattice.direct_sum",
    "cohomology.norm_one_lattice",
    "cohomology.induced_lattice",
)

# metric -> (unit, how it aggregates over set-up and passes, reader).
# "sum" metrics add the set-up's value to the phase's value per pass;
# "max" metrics take the largest value seen anywhere.
LAYER_READERS = {
    "cohomology.h1_ms": ("ms", "sum", lambda v: v.outer_ms("cohomology.h1")),
    "cohomology.assembly_ms": ("ms", "sum", lambda v: v.self_ms("cohomology.h1")),
    "cohomology.kernel_ms": ("ms", "sum", lambda v: v.outer_ms("core.integer_kernel")),
    "cohomology.quotient_ms": ("ms", "sum", lambda v: v.outer_ms("cohomology._quotient_invariants")),
    "cohomology.relation_cells": (
        "count", "sum", lambda v: sum(r * c for r, c in v.values("core.integer_kernel"))),
    "cohomology.relation_rows_max": (
        "count", "max", lambda v: max((r for r, _ in v.values("core.integer_kernel")), default=0)),
    "cohomology.lattice_build_ms": ("ms", "sum", lambda v: v.outer_ms(*LATTICE_BUILD)),
    "core.determinant_ms": ("ms", "sum", lambda v: v.outer_ms("core.determinant")),
    "core.snf_ms": ("ms", "sum", lambda v: v.direct_ms("core.smith_normal_form")),
    "core.snf_entry_bits_max": (
        "bits", "max", lambda v: max(v.values("core.smith_normal_form"), default=0)),
    "core.is_prime_ms": ("ms", "sum", lambda v: v.outer_ms("core.is_prime")),
    "core.is_prime_calls": ("count", "sum", lambda v: v.count("core.is_prime")),
    "core.factor_ms": ("ms", "sum", lambda v: v.outer_ms("core.factor")),
    "progressions.sieve_cache_hits": (
        "count", "sum", lambda v: v.values("progressions.primes_up_to").count(0)),
    "progressions.sieve_cache_misses": (
        "count", "sum", lambda v: sum(v.values("progressions.primes_up_to"))),
    "progressions.sieve_ms": ("ms", "sum", lambda v: v.outer_ms("progressions.primes_up_to")),
    "progressions.estimate_ms": (
        "ms", "sum", lambda v: v.self_ms("progressions.natural_density_estimate")),
    "progressions.descriptor_ms": (
        "ms", "sum", lambda v: v.outer_ms("progressions.AbelianExtensionDescriptor.__init__")),
    "bounds.psi_ms": ("ms", "sum", lambda v: v.outer_ms("bounds.psi")),
    "symbols.legendre_ms": ("ms", "sum", lambda v: v.outer_ms("symbols.legendre")),
    "symbols.legendre_calls": ("count", "sum", lambda v: v.count("symbols.legendre")),
    "symbols.hilbert_ms": (
        "ms", "sum", lambda v: v.outer_ms("symbols.hilbert_symbol", "symbols.hilbert_product_check")),
    "experiments.biased_sets_ms": (
        "ms", "sum", lambda v: v.outer_ms("experiments.build_biased_prime_sets")),
    "experiments.artin_ms": ("ms", "sum", lambda v: v.outer_ms("experiments.artin_kernel_evidence")),
}


def layer_metrics(tracer: Tracer, setup_end: int, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures for one set-up plus one pass of the traced phase."""
    setup = SpanView(tracer, 0, setup_end)
    phase = SpanView(tracer, setup_end, len(tracer))
    out = {}
    for name, (unit, how, read) in LAYER_READERS.items():
        a, b = read(setup), read(phase)
        out[name] = (max(a, b) if how == "max" else a + b / passes, unit)
    return out

