"""Spans and counters recorded around qundet's public functions.

Nothing in qundet is changed on disk: ``Tracer.install`` replaces the
public functions (and three methods) by wrappers, in every qundet
module that holds them, so calls made inside the package are seen too.
A span records its name, start, end and parent; spans stay in memory
and are written out when the run ends.  A layer's self time is its
span minus the time its direct child spans cover.

Peak allocations need tracemalloc, which slows every allocation, so
``PeakProbe`` measures them in a pass of their own, with no spans.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

from qundet import dense, protocols, stabilizer
from qundet import undetermined as und
from qundet.pauli import PauliOperator
from qundet.stabilizer import StabilizerGroup

# span name -> the module functions it covers
SPANNED = {
    "stabilizer.coset_min_weight": [stabilizer.coset_min_weight],
    "stabilizer.code_distance": [stabilizer.code_distance],
    "stabilizer.logical_x_set": [stabilizer.logical_x_set],
    "undetermined.unconditional_D": [und.unconditional_D],
    "undetermined.necessary_ED": [und.necessary_ED],
    "undetermined.analyze_code": [und.analyze_code],
    "dense.build_density": [dense.build_density, dense.build_mixed_density],
    "dense.partial_trace": [dense.partial_trace],
    "dense.frobenius_distance": [dense.frobenius_distance],
    "protocols.qss_run": [protocols.qss_run],
}
QUERIED = und.reduced_equal_on
# metric -> functions whose peak allocation it reports
PEAKED = {
    "stabilizer.coset_min_weight_peak_mb": [stabilizer.coset_min_weight],
    "undetermined.first_query_peak_mb": [und.reduced_equal_on],
    "dense.build_density_peak_mb": [dense.build_density, dense.build_mixed_density],
    "protocols.qss_run_peak_mb": [protocols.qss_run],
}
FIRST_QUERY = "undetermined.first_query"
QUERY = "undetermined.query"

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = [
    ("codes.catalog_s", "s"),
    ("stabilizer.coset_min_weight_s", "s"),
    ("stabilizer.coset_elements", "count"),
    ("pauli.products", "count"),
    ("stabilizer.normalizer_elements", "count"),
    ("stabilizer.code_distance_s", "s"),
    ("stabilizer.logical_x_set_s", "s"),
    ("undetermined.unconditional_D_s", "s"),
    ("undetermined.first_query_s", "s"),
    ("undetermined.query_s", "s"),
    ("undetermined.subsets_decided", "count"),
    ("undetermined.witnesses", "count"),
    ("undetermined.necessary_ED_s", "s"),
    ("undetermined.analyze_code_s", "s"),
    ("dense.build_density_s", "s"),
    ("dense.pauli_matrices", "count"),
    ("dense.bytes_densified", "bytes"),
    ("dense.partial_trace_s", "s"),
    ("dense.partial_traces", "count"),
    ("dense.frobenius_distance_s", "s"),
    ("protocols.qss_run_s", "s"),
    ("stabilizer.coset_min_weight_peak_mb", "MB"),
    ("undetermined.first_query_peak_mb", "MB"),
    ("dense.build_density_peak_mb", "MB"),
    ("protocols.qss_run_peak_mb", "MB"),
]


def qundet_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "qundet" or name.startswith("qundet.")]


def replace_everywhere(original, wrapper) -> None:
    """Point every qundet module's name for ``original`` at ``wrapper``."""
    for module in qundet_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


class Tracer:
    """Span and counter wrappers, installed for the rest of the process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._seen_specs: set = set()

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def _query(self, fn):
        """reduced_equal_on: first call per spec builds the table."""
        counts, seen = self.counts, self._seen_specs
        first, warm = self.span(FIRST_QUERY, fn), self.span(QUERY, fn)

        def wrapper(spec, *args, **kwargs):
            is_first = spec not in seen
            seen.add(spec)
            result = (first if is_first else warm)(spec, *args, **kwargs)
            counts["undetermined.subsets_decided"] += 1
            counts["undetermined.witnesses"] += result[1] is not None
            return result

        return wrapper

    def install(self) -> None:
        counts = self.counts
        for name, fns in SPANNED.items():
            for fn in fns:
                replace_everywhere(fn, self.span(name, fn))
        replace_everywhere(QUERIED, self._query(QUERIED))

        mul = PauliOperator.__mul__

        def counted_mul(a, b):
            counts["pauli.products"] += 1
            return mul(a, b)

        elements = StabilizerGroup.elements

        def counted_elements(group, *args, **kwargs):
            out = elements(group, *args, **kwargs)
            counts["stabilizer.coset_elements"] += len(out)
            return out

        normalizer = StabilizerGroup.normalizer_masks

        def counted_normalizer(group, *args, **kwargs):
            for pair in normalizer(group, *args, **kwargs):
                counts["stabilizer.normalizer_elements"] += 1
                yield pair

        matrix = dense.pauli_matrix

        def counted_matrix(p):
            counts["dense.pauli_matrices"] += 1
            counts["dense.bytes_densified"] += 16 << (2 * p.n)  # computed, complex128
            return matrix(p)

        PauliOperator.__mul__ = counted_mul
        StabilizerGroup.elements = counted_elements
        StabilizerGroup.normalizer_masks = counted_normalizer
        replace_everywhere(matrix, counted_matrix)

    def self_times(self) -> dict[str, list[float]]:
        """Span name -> self time of each span with that name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name].append(end - start - child)
        return out

    def layer_values(self, passes: int) -> dict[str, float]:
        """Span and counter metrics: sums and counts per pass.

        Two exceptions: undetermined.query_s is the median warm query,
        and protocols.qss_run_s is the mean time of one run.
        """
        selfs = self.self_times()
        values = {f"{name}_s": sum(times) / passes for name, times in selfs.items()}
        values.update({k: v / passes for k, v in self.counts.items()})
        warm = selfs.get(QUERY)
        values["undetermined.query_s"] = statistics.median(warm) if warm else 0.0
        runs = selfs.get("protocols.qss_run")
        values["protocols.qss_run_s"] = statistics.fmean(runs) if runs else 0.0
        values["dense.partial_traces"] = len(selfs.get("dense.partial_trace", [])) / passes
        return values

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans], "counts": dict(self.counts)}


def layer_report(values: dict[str, float]) -> dict:
    """Every per-layer metric by name and unit; 0 where nothing ran."""
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in LAYER_METRICS}


class PeakProbe:
    """Peak traced allocation inside the calls that hold the big tables."""

    def __init__(self):
        self.peaks: dict[str, float] = defaultdict(float)
        self._seen_specs: set = set()

    def _peak(self, name: str, fn, when=None):
        peaks = self.peaks

        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing() or (when is not None and not when(*args)):
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                peaks[name] = max(peaks[name], peak)

        return wrapper

    def _first(self, spec, *args) -> bool:
        is_first = spec not in self._seen_specs
        self._seen_specs.add(spec)
        return is_first

    def install(self) -> None:
        for name, fns in PEAKED.items():
            for fn in fns:
                # wrap whatever qundet holds now: the tracer's wrapper, if any
                current = getattr(sys.modules[fn.__module__], fn.__name__)
                when = self._first if fn is QUERIED else None
                replace_everywhere(current, self._peak(name, current, when))
