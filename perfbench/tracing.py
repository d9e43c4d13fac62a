"""Spans around calls into dpcov's public functions, recorded from outside.

A :class:`Tracer` replaces each target function with a wrapper that records
a span (name, start, end, parent) and restores the originals on
:meth:`Tracer.uninstall`.  The package binds functions by name in several
modules (``from .linalg import covariance``), so a wrapper is installed on
every ``dpcov`` module attribute that holds the original object.  Methods
are patched on their class, which every instance sees.

Spans are kept in memory and reduced to per-function totals at the end.
The recorder keeps a single stack, so it is only valid for single-threaded
callers (the benchmark runs the harness with ``workers=1``).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute); an attribute "Class.method" patches the class.
TARGETS = (
    ("linalg.Dataset.__post_init__", "dpcov.linalg", "Dataset.__post_init__"),
    ("linalg.Dataset.norms", "dpcov.linalg", "Dataset.norms"),
    ("linalg.radius", "dpcov.linalg", "radius"),
    ("linalg.covariance", "dpcov.linalg", "covariance"),
    ("linalg.clip_dataset", "dpcov.linalg", "clip_dataset"),
    ("linalg.trace_stat", "dpcov.linalg", "trace_stat"),
    ("linalg.tail_gamma", "dpcov.linalg", "tail_gamma"),
    ("linalg.eig_sym", "dpcov.linalg", "eig_sym"),
    ("linalg.reconstruct", "dpcov.linalg", "reconstruct"),
    ("linalg.frobenius_dist", "dpcov.linalg", "frobenius_dist"),
    ("randomness.RandomStream.__init__", "dpcov.randomness", "RandomStream.__init__"),
    ("randomness.RandomStream.child", "dpcov.randomness", "RandomStream.child"),
    ("randomness.sgw_matrix", "dpcov.randomness", "sgw_matrix"),
    ("randomness.slw_matrix", "dpcov.randomness", "slw_matrix"),
    ("randomness.gaussian_vector", "dpcov.randomness", "gaussian_vector"),
    ("randomness.laplace_vector", "dpcov.randomness", "laplace_vector"),
    ("randomness.laplace_scalar", "dpcov.randomness", "laplace_scalar"),
    ("bounds.eta", "dpcov.bounds", "eta"),
    ("bounds.upsilon", "dpcov.bounds", "upsilon"),
    ("bounds.omega", "dpcov.bounds", "omega"),
    ("bounds.lap_vec_bound", "dpcov.bounds", "lap_vec_bound"),
    ("bounds.slw_op_bound", "dpcov.bounds", "slw_op_bound"),
    ("bounds.slw_frob_bound", "dpcov.bounds", "slw_frob_bound"),
    ("adaptive.svt", "dpcov.adaptive", "svt"),
    ("adaptive.priv_radius", "dpcov.adaptive", "priv_radius"),
    ("adaptive.private_trace_ub", "dpcov.adaptive", "private_trace_ub"),
    ("adaptive.build_histogram", "dpcov.adaptive", "build_histogram"),
    ("adaptive.adaptive_cov", "dpcov.adaptive", "adaptive_cov"),
    ("adaptive.adaptive_cov_pure", "dpcov.adaptive", "adaptive_cov_pure"),
    ("mechanisms.gauss_cov", "dpcov.mechanisms", "gauss_cov"),
    ("mechanisms.lap_cov", "dpcov.mechanisms", "lap_cov"),
    ("mechanisms.separate_cov", "dpcov.mechanisms", "separate_cov"),
    ("mechanisms.separate_cov_pure", "dpcov.mechanisms", "separate_cov_pure"),
    ("mechanisms.clip_mechanism", "dpcov.mechanisms", "clip_mechanism"),
    ("mechanisms.zero_cov", "dpcov.mechanisms", "zero_cov"),
    ("mechanisms.MechanismReport.__post_init__", "dpcov.mechanisms", "MechanismReport.__post_init__"),
    ("harness.run_plan", "dpcov.harness", "run_plan"),
    ("harness.write_results", "dpcov.harness", "write_results"),
    ("datagen.synth", "dpcov.datagen", "synth"),
    ("datagen.load_csv", "dpcov.datagen", "load_csv"),
    ("datagen.rescale_radius", "dpcov.datagen", "rescale_radius"),
)

# The SVT consumes its query iterable lazily; counting the items it pulls
# gives the number of queries actually evaluated.
SVT_QUERIES = "adaptive.svt.queries"


class Tracer:
    """Records spans around the :data:`TARGETS` while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def _wrap_svt(self, name: str, fn):
        traced = self._wrap(name, fn)
        counts = self.counts

        def counted(queries):
            for q in queries:
                counts[SVT_QUERIES] += 1
                yield q

        @functools.wraps(fn)
        def svt(queries, *args, **kwargs):
            return traced(counted(queries), *args, **kwargs)

        return svt

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items()) if key == "dpcov" or key.startswith("dpcov.")]
        for name, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = (self._wrap_svt if name == "adaptive.svt" else self._wrap)(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    The recorder's single stack nests spans strictly, so children never
    overlap each other or outlast their parent."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def count_calls(spans, names: set[str], delegates: set[str]) -> int:
    """Calls of the functions in ``names``.  A call of one of ``delegates``
    counts only when none of its direct children is in ``names``: its work
    is then counted there."""
    delegated = {parent for name, _, _, parent in spans if name in names and parent >= 0}
    return sum(
        1
        for index, (name, _, _, _) in enumerate(spans)
        if name in names and not (name in delegates and index in delegated)
    )


def totals(spans) -> dict[str, dict]:
    """Per span name: number of calls, summed self time and summed duration
    (nanoseconds)."""
    out: dict[str, dict] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = out.setdefault(name, {"calls": 0, "self_ns": 0, "total_ns": 0})
        entry["calls"] += 1
        entry["self_ns"] += own
        entry["total_ns"] += end - start
    return out


def self_under(spans, roots: set[str]) -> tuple[dict[str, int], int]:
    """Self time per span name inside the subtrees of spans named in
    ``roots``, and the summed duration of those root spans."""
    owner = [-1] * len(spans)
    root_ns = 0
    for index, (name, start, end, parent) in enumerate(spans):
        if name in roots and (parent < 0 or owner[parent] < 0):
            owner[index] = index
            root_ns += end - start
        elif parent >= 0:
            owner[index] = owner[parent]
    shares: dict[str, int] = defaultdict(int)
    for index, own in enumerate(self_times(spans)):
        if owner[index] >= 0:
            shares[spans[index][0]] += own
    return dict(shares), root_ns
