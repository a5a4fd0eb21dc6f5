"""In-memory spans around the public entry points of each ``optsmp`` layer.

The program is not modified: :func:`install` replaces each traced function,
in every ``optsmp`` module namespace that binds it (or on its class, for
methods), by a wrapper that records a span, and returns a function that puts
the originals back. A span is ``(name, start_ns, end_ns, parent, request,
outermost, attr)``: ``parent`` is the index of the enclosing span (-1 at the
top), ``outermost`` is false when a span of the same name encloses it, and
``attr`` is a per-name count taken from the arguments or the result.
"""

from __future__ import annotations

import functools
import sys
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request = -1
        self._stack: list[int] = []
        self._active: dict[str, int] = {}

    def wrap(self, name, fn, attr=None):
        """Wrap ``fn``; ``name`` is a span name or a function of the call's
        positional arguments that returns one."""
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter_ns
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name_of(args) if name_of else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            depth = active.get(span_name, 0)
            active[span_name] = depth + 1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                active[span_name] = depth
                value = attr(args, result) if attr is not None and result is not None else 0
                spans[idx] = (span_name, start, end, parent, self.request, depth == 0, value)

        return traced


def _support(state) -> int:
    size = getattr(state, "support_size", None)
    return size() if size is not None else 0


def _binding(args, result) -> int:
    state, cutoff = args[0], args[1]
    cutoff = getattr(cutoff, "cutoff", cutoff)
    if hasattr(state, "max_total_photons"):
        top = state.max_total_photons()
    else:
        top = max(sum(occ) for occ in state.basis)
    return int(top > cutoff)


def _suite_counts(args, result) -> tuple[int, int]:
    return (sum(r.cases for r in result), sum(1 for r in result if not r.passed))


def targets():
    """(owner, attribute, span name, attr function) for every traced entry
    point. Module functions are patched wherever ``optsmp`` binds them."""
    from optsmp import bounds, combinatorics, fock, smp, truncation, verify

    product = fock.ProductPureState

    def referee_kind(args) -> str:
        _, a, b = args[:3]
        if (
            isinstance(a, product)
            and isinstance(b, product)
            and len(a.factors) == len(b.factors)
            and all(f.modes == 1 for f in a.factors + b.factors)
        ):
            return "smp.referee_product"
        return "smp.referee_joint"

    def product_lookups(args, result) -> int:
        return len(args[1].factors) if isinstance(args[1], product) else 0

    return (
        (smp, "load_protocol", "smp.load_protocol", None),
        (smp, "evaluate_error", "smp.evaluate_error", lambda a, r: len(r.pair_errors)),
        (smp.InterferenceVacuumReferee, "output_one_probability", referee_kind, product_lookups),
        (smp.DiagonalMapReferee, "output_one_probability", "smp.referee_diagonal", None),
        (smp, "beamsplitter_pair", "smp.beamsplitter_pair", None),
        (smp, "apply_beamsplitter", "smp.apply_beamsplitter", lambda a, r: _support(a[0])),
        (smp, "deterministic_cc_matrix", "smp.deterministic_cc_matrix", None),
        (fock, "tensor", "fock.tensor", lambda a, r: _support(r)),
        (fock.ProductPureState, "to_pure_state", "fock.to_pure_state", lambda a, r: _support(r)),
        (fock, "mean_photon_number", "fock.mean_photon_number", None),
        (fock, "trace_distance", "fock.trace_distance", None),
        (fock, "fidelity", "fock.fidelity", None),
        (truncation, "project_below_cutoff", "truncation.project_below_cutoff", _binding),
        (truncation, "transform_protocol", "truncation.transform_protocol", None),
        (combinatorics, "count_rank", "combinatorics.count_rank", None),
        (combinatorics, "log_rank_bounds", "combinatorics.log_rank_bounds", None),
        (bounds, "build_report", "bounds.build_report", None),
        (bounds, "default_references", "bounds.default_references", None),
        (verify, "run_suites", "verify.run_suites", _suite_counts),
    )


def _patch(owner, attr, make, undo: list) -> None:
    """Replace ``owner.attr`` by ``make(original)``, in every ``optsmp``
    module that binds the same function when ``owner`` is a module."""
    if isinstance(owner, type):
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        undo.append((owner, attr, original))
        return
    original = getattr(owner, attr)
    replacement = make(original)
    for key, mod in list(sys.modules.items()):
        if key == "optsmp" or key.startswith("optsmp."):
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, replacement)
                    undo.append((mod, name, original))


def _undo(undo: list):
    def restore() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore


def install(tracer: Tracer):
    """Patch every target with a tracing wrapper; returns the undo function."""
    undo: list = []
    for owner, attr, name, count in targets():
        _patch(owner, attr, lambda fn, name=name, count=count: tracer.wrap(name, fn, count), undo)
    return _undo(undo)


def count_pairs(counter: list[int]):
    """Add the pair count of every ``evaluate_error`` report to ``counter[0]``.

    Untraced runs carry only this wrapper: one addition per evaluation, not
    per pair. Returns the undo function.
    """
    from optsmp import smp

    def make(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            report = fn(*args, **kwargs)
            counter[0] += len(report.pair_errors)
            return report

        return counted

    undo: list = []
    _patch(smp, "evaluate_error", make, undo)
    return _undo(undo)


def measure_memory(peaks: list[tuple[int, int]]):
    """Record ``(peak traced bytes, pairs)`` of every ``evaluate_error`` call
    while ``tracemalloc`` is tracing. Returns the undo function."""
    import tracemalloc

    from optsmp import smp

    def make(fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            report = fn(*args, **kwargs)
            peaks.append((tracemalloc.get_traced_memory()[1] - base, len(report.pair_errors)))
            return report

        return measured

    undo: list = []
    _patch(smp, "evaluate_error", make, undo)
    return _undo(undo)


#: Per-name metrics reported as ``<name>.calls`` / ``<name>.busy_s``.
CALLS = (
    "smp.referee_product", "smp.referee_joint", "smp.referee_diagonal", "smp.evaluate_error",
    "smp.apply_beamsplitter", "smp.deterministic_cc_matrix", "fock.tensor", "fock.to_pure_state",
    "truncation.project_below_cutoff", "combinatorics.count_rank", "bounds.default_references",
)
BUSY = tuple(name for name in CALLS if name != "fock.to_pure_state") + (
    "truncation.transform_protocol", "bounds.build_report", "verify.run_suites", "fock.trace_distance",
    "fock.fidelity", "combinatorics.log_rank_bounds", "smp.load_protocol", "fock.mean_photon_number",
)
LAYERS = ("cli", "smp", "truncation", "fock", "combinatorics", "bounds", "verify")


def summarize(spans: list[tuple], wall_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced pass of wall time ``wall_s``."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: dict[str, int] = {}
    busy_ns: dict[str, int] = {}
    attr_sum: dict[str, int] = {}
    self_ns = dict.fromkeys(LAYERS, 0)
    cases = failed_suites = binding = materialised = 0
    for i, (name, start, end, parent, _, outermost, value) in enumerate(spans):
        self_ns[name.split(".", 1)[0]] += end - start - child_ns[i]
        if name == "fock.to_pure_state":
            p = parent
            while p >= 0 and spans[p][0] != "truncation.project_below_cutoff":
                p = spans[p][3]
            if p >= 0:
                materialised += value
        if not outermost:
            continue
        calls[name] = calls.get(name, 0) + 1
        busy_ns[name] = busy_ns.get(name, 0) + end - start
        if name == "verify.run_suites":
            cases += value[0]
            failed_suites += value[1]
        elif name == "truncation.project_below_cutoff":
            binding += value
        else:
            attr_sum[name] = attr_sum.get(name, 0) + value

    out: dict[str, float] = {}
    for name in CALLS:
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in BUSY:
        out[f"{name}.busy_s"] = busy_ns.get(name, 0) / 1e9
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_ns[layer] / 1e9
    lookups = attr_sum.get("smp.referee_product", 0)
    misses = calls.get("smp.beamsplitter_pair", 0)
    out["smp.pair_cache.hits"] = lookups - misses
    out["smp.pair_cache.misses"] = misses
    out["smp.pair_cache.hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
    out["smp.evaluate_error.pairs"] = attr_sum.get("smp.evaluate_error", 0)
    out["smp.apply_beamsplitter.terms_in"] = attr_sum.get("smp.apply_beamsplitter", 0)
    out["fock.tensor.terms_out"] = attr_sum.get("fock.tensor", 0)
    out["fock.to_pure_state.terms_out"] = attr_sum.get("fock.to_pure_state", 0)
    projections = calls.get("truncation.project_below_cutoff", 0)
    out["truncation.binding_ratio"] = binding / projections if projections else 0.0
    out["truncation.materialised_terms"] = materialised
    out["verify.cases"] = cases
    out["verify.failed_suites"] = failed_suites
    out["smp.referee_product.share"] = out["smp.referee_product.busy_s"] / wall_s
    out["truncation.joint_and_projection.share"] = (
        out["smp.referee_joint.busy_s"] + out["truncation.project_below_cutoff.busy_s"]
    ) / wall_s
    out["smp.deterministic_cc_matrix.share"] = out["smp.deterministic_cc_matrix.busy_s"] / wall_s
    return out


def write_spans(spans: list[tuple], path) -> None:
    """One CSV row per span; a tuple ``attr`` is written joined by ``/``."""
    with open(path, "w") as handle:
        handle.write("id,parent,request,name,start_ns,end_ns,attr\n")
        for i, (name, start, end, parent, request, _, value) in enumerate(spans):
            attr = "/".join(map(str, value)) if isinstance(value, tuple) else value
            handle.write(f"{i},{parent},{request},{name},{start},{end},{attr}\n")
