"""Spans and counters around the public functions of every regio layer.

``instrument()`` wraps each public function and public method defined in a
``regio`` module, and patches the wrapper in at every name a caller looks it
up by: ``regio.imputation.fit_gbrt`` and ``regio.gbrt.fit_gbrt`` are the same
function, so both names get the same wrapper. A few tiny accessors that run
millions of times per pass only count their calls; everything else records a
span (name, start, end, parent). Spans stay in memory; ``layer_metrics``
turns them into the per-layer metrics once the pass is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = (
    "cli", "config", "hierarchy", "series", "formulas",
    "disaggregation", "gbrt", "imputation", "validation",
)

# Accessors called once per region and variable; a span each would cost more
# than the work they do, so they only count calls.
COUNT_ONLY = {
    "hierarchy.RegionHierarchy.node",
    "hierarchy.RegionHierarchy.children",
    "hierarchy.SpatialLevel.from_token",
    "hierarchy.SpatialLevel.is_finer_than",
    "hierarchy.SpatialLevel.is_coarser_than",
    "series.ConfidenceLevel.from_token",
    "series.VariableSeries.value",
    "series.VariableSeries.confidence",
    "series.VariableStore.get",
    "series.VariableStore.has",
}


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name, start, end=0.0, parent=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent


class Tracer:
    """Collects spans, call counts and work amounts for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # calls of COUNT_ONLY functions
        self.work: Counter = Counter()  # rows, trees, regions ... from hooks
        self.texts: set[str] = set()  # distinct formula texts parsed
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span_wrapper(self, name, fn, hook):
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # A pool worker's first span belongs to whatever the main
                # thread is waiting in (the call that submitted the work).
                parent = self._main_stack[-1] if self._main_stack else None
            span = Span(name, clock(), 0.0, parent)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                with self._lock:
                    hook(self, args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, name, fn):
        counts = self.counts
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def restore(self) -> None:
        """Put every patched name back to the original function."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _hook_ingest(t, args, kwargs, result):
    t.work["series.ingest_rows"] += len(result.observations)


def _hook_write(t, args, kwargs, result):
    t.work["series.write_rows"] += len((args[0] if args else kwargs["series"]).observations)


def _hook_parse(t, args, kwargs, result):
    t.texts.add(args[0] if args else kwargs["text"])


def _hook_evaluate(t, args, kwargs, result):
    t.work["formulas.evaluate_regions"] += len(result.observations)


def _hook_disaggregate(t, args, kwargs, result):
    t.work["disaggregation.output_values"] += len(result.series.observations)
    t.work["disaggregation.fallback_parents"] += len(
        {p.source_region for p in result.provenance.values() if p.fallback}
    )


def _hook_fit(t, args, kwargs, result):
    t.work["gbrt.trees"] += len(result.trees)


def _hook_best_split(t, args, kwargs, result):
    t.work["gbrt.best_split_rows"] += len(args[1] if len(args) > 1 else kwargs["r"])


def _hook_grid_search(t, args, kwargs, result):
    from regio.imputation import grid_search_cv

    bound = _bound(inspect.unwrap(grid_search_cv), args, kwargs)
    t.work["imputation.cv_scores"] += len(bound["grid"]) * bound["k"]


def _hook_impute(t, args, kwargs, result):
    from regio.imputation import ENSEMBLE

    report = result[1]
    if report.best_hyperparams is None and report.method == ENSEMBLE:
        return  # nothing was missing; no model was fit
    key = "ensemble_vars" if report.method == ENSEMBLE else "fallback_vars"
    t.work[f"imputation.{key}"] += 1


def _hook_run_pipeline(t, args, kwargs, result):
    from regio.disaggregation import run_pipeline

    t.work["disaggregation.jobs"] = _bound(inspect.unwrap(run_pipeline), args, kwargs)["jobs"]


def _hook_compare(t, args, kwargs, result):
    t.work["validation.rows"] += len(result.rows)


HOOKS = {
    "series.ingest_series": _hook_ingest,
    "series.write_series_csv": _hook_write,
    "formulas.parse": _hook_parse,
    "formulas.evaluate": _hook_evaluate,
    "disaggregation.disaggregate": _hook_disaggregate,
    "disaggregation.run_pipeline": _hook_run_pipeline,
    "gbrt.fit_gbrt": _hook_fit,
    "gbrt.best_split": _hook_best_split,
    "imputation.grid_search_cv": _hook_grid_search,
    "imputation.impute_series": _hook_impute,
    "validation.compare_at_level": _hook_compare,
}


def _public_callables(layer: str):
    """(owner, attribute, function, span name) for the layer's public API."""
    module = importlib.import_module(f"regio.{layer}")
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, obj, f"{layer}.{attr}"
        elif inspect.isclass(obj):
            for name, member in sorted(vars(obj).items()):
                if name.startswith("_"):
                    continue
                if isinstance(member, classmethod):
                    yield obj, name, member, f"{layer}.{attr}.{name}"
                elif inspect.isfunction(member):
                    yield obj, name, member, f"{layer}.{attr}.{name}"


def instrument() -> Tracer:
    """Wrap regio's public functions and methods; returns the live tracer."""
    importlib.import_module("regio")
    tracer = Tracer()
    functions = {}  # original function -> wrapper, for re-export patching
    for layer in LAYERS:
        for owner, attr, member, name in list(_public_callables(layer)):
            fn = member.__func__ if isinstance(member, classmethod) else member
            if name in COUNT_ONLY:
                wrapped = tracer.count_wrapper(name, fn)
            else:
                wrapped = tracer.span_wrapper(name, fn, HOOKS.get(name))
            tracer._restore.append((owner, attr, member))
            if isinstance(member, classmethod):
                setattr(owner, attr, classmethod(wrapped))
            else:
                setattr(owner, attr, wrapped)
                if inspect.ismodule(owner):
                    functions[fn] = wrapped
    # Functions imported by name elsewhere (``from .gbrt import fit_gbrt``)
    # are looked up in the importing module, so patch those names too.
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "regio" or mod_name.startswith("regio.")):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in functions:
                tracer._restore.append((module, attr, obj))
                setattr(module, attr, functions[obj])
    return tracer


# -- turning spans into metrics ------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span (by position): duration minus the time its children cover.

    Children of one span may overlap when they ran on different threads, so
    the covered time is the length of the union of their intervals, clipped
    to the parent's own interval.
    """
    index = {id(s): i for i, s in enumerate(spans)}
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[index[id(span.parent)]].append(span)
    out = {}
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(i, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[i] = (span.end - span.start) - covered
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see README for the list)."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls: Counter = Counter(tracer.counts)
    total: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        calls[span.name] += 1
        total[span.name] += span.end - span.start
        layer_self[span.name.split(".", 1)[0]] += selfs[i]
    config_self = sum(
        selfs[i] for i, s in enumerate(spans)
        if s.name.startswith("config.") and s.name != "config.read_reference_csv"
    )
    fits_in_cv = sum(
        1 for s in spans
        if s.name == "gbrt.fit_gbrt" and s.parent is not None
        and s.parent.name == "imputation.grid_search_cv"
    )
    pipeline_wall = total["disaggregation.run_pipeline"]
    task_time = total["disaggregation.disaggregate"] + total[
        "disaggregation.AllocationResult.conservation_residuals"
    ]
    jobs = tracer.work["disaggregation.jobs"] or 1
    parses = calls["formulas.parse"]
    w = tracer.work
    return {
        "cli.self_s": layer_self["cli"],
        "config.load_s": config_self,
        "config.read_reference_s": total["config.read_reference_csv"],
        "hierarchy.load_s": total["hierarchy.load_hierarchy"],
        "hierarchy.load_calls": calls["hierarchy.load_hierarchy"],
        "hierarchy.descendants_calls": calls["hierarchy.RegionHierarchy.descendants"],
        "hierarchy.descendants_s": total["hierarchy.RegionHierarchy.descendants"],
        "hierarchy.ancestor_calls": calls["hierarchy.RegionHierarchy.ancestor"],
        "hierarchy.ancestor_s": total["hierarchy.RegionHierarchy.ancestor"],
        "series.ingest_s": total["series.ingest_series"],
        "series.ingest_calls": calls["series.ingest_series"],
        "series.ingest_rows": w["series.ingest_rows"],
        "series.read_csv_s": total["series.read_series_csv"],
        "series.write_csv_s": total["series.write_series_csv"],
        "series.write_rows": w["series.write_rows"],
        "series.aggregate_s": total["series.aggregate"],
        "series.aggregate_calls": calls["series.aggregate"],
        "series.value_calls": calls["series.VariableSeries.value"],
        "series.pearson_calls": calls["series.pearson"],
        "formulas.parse_calls": parses,
        "formulas.parse_useful_ratio": len(tracer.texts) / parses if parses else 0.0,
        "formulas.evaluate_calls": calls["formulas.evaluate"],
        "formulas.evaluate_s": total["formulas.evaluate"],
        "formulas.evaluate_regions": w["formulas.evaluate_regions"],
        "disaggregation.run_pipeline_s": pipeline_wall,
        "disaggregation.disaggregate_s": total["disaggregation.disaggregate"],
        "disaggregation.allocate_calls": calls["disaggregation.allocate"],
        "disaggregation.allocate_s": total["disaggregation.allocate"],
        "disaggregation.residuals_s": total[
            "disaggregation.AllocationResult.conservation_residuals"
        ],
        "disaggregation.output_values": w["disaggregation.output_values"],
        "disaggregation.fallback_parents": w["disaggregation.fallback_parents"],
        "disaggregation.load_pipeline_s": total["disaggregation.load_pipeline_config"],
        "disaggregation.pool_busy_ratio": (
            task_time / (jobs * pipeline_wall) if pipeline_wall else 0.0
        ),
        "gbrt.fit_calls": calls["gbrt.fit_gbrt"],
        "gbrt.fit_s": total["gbrt.fit_gbrt"],
        "gbrt.trees": w["gbrt.trees"],
        "gbrt.best_split_calls": calls["gbrt.best_split"],
        "gbrt.best_split_s": total["gbrt.best_split"],
        "gbrt.best_split_rows": w["gbrt.best_split_rows"],
        "gbrt.predict_calls": calls["gbrt.TrainedEnsemble.predict"],
        "gbrt.predict_s": total["gbrt.TrainedEnsemble.predict"],
        "imputation.impute_series_s": total["imputation.impute_series"],
        "imputation.grid_search_s": total["imputation.grid_search_cv"],
        "imputation.select_predictors_s": total["imputation.select_predictors"],
        "imputation.fits_per_cv_score": (
            fits_in_cv / w["imputation.cv_scores"] if w["imputation.cv_scores"] else 0.0
        ),
        "imputation.ensemble_vars": w["imputation.ensemble_vars"],
        "imputation.fallback_vars": w["imputation.fallback_vars"],
        "validation.compare_s": total["validation.compare_at_level"],
        "validation.rows": w["validation.rows"],
        "validation.write_s": total["validation.write_deviation_csv"]
        + total["validation.markdown_table"],
    }


def function_table(tracer: Tracer) -> list[tuple[str, int, float, float]]:
    """(name, calls, total s, self s) per traced function, slowest self first."""
    selfs = self_times(tracer.spans)
    rows: dict[str, list] = {}
    for i, span in enumerate(tracer.spans):
        row = rows.setdefault(span.name, [span.name, 0, 0.0, 0.0])
        row[1] += 1
        row[2] += span.end - span.start
        row[3] += selfs[i]
    for name, n in tracer.counts.items():
        rows.setdefault(name, [name, n, 0.0, 0.0])
    return sorted((tuple(r) for r in rows.values()), key=lambda r: -r[3])
