"""Outside-in layer tracing for the benchmark's traced run.

:func:`install` wraps every public function of the ``ipsmf`` layer modules
(plus the two private entry points that bound a sweep cell and a training
loop) and rebinds each wrapped object under every name in every ``ipsmf``
module that refers to it, so ``predict_many`` is traced whether ``optim``,
``metrics`` or ``model`` calls it. Nothing in ``src/ipsmf`` is edited.

Each call records a span: process id, span id, parent span id, name, start,
end, time covered by direct child spans, and a few workload facts taken from
the call's arguments or result. Spans stay in memory. A forked pool worker
appends its spans to ``spans-<pid>.pkl`` in the trace directory each time its
outermost span (a sweep cell) ends; :meth:`Tracer.collect` merges them with
the parent's. :func:`layer_metrics` turns the merged spans into the
per-layer metrics of ``LAYER_METRICS``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import pickle
import statistics
import sys
import time
from pathlib import Path

LAYERS = ("cli", "sim", "data", "propensity", "optim", "model", "metrics")

# private functions traced as layer boundaries, with the span name they get
PRIVATE_SPANS = {"ipsmf.cli._run_cell": "cli.cell", "ipsmf.optim._fit": "optim.fit"}

D, Y, R = "desk-sweep", "yahoo-train", "raw-tune"

# (metric, unit, better, end-to-end metric and workload it should move)
LAYER_METRICS = [
    ("cli.run_method.calls", "count", "lower", f"wall_s on {D}"),
    ("cli.run_method.s", "s", "lower", f"wall_s on {D}"),
    ("cli.run_method.p50_ms", "ms", "lower", f"wall_s on {D}"),
    ("cli.run_method.tail_ms", "ms", "lower", f"wall_s on {D}"),
    ("cli.cell.p50_s", "s", "lower", f"wall_s on {D}"),
    ("cli.cell.tail_s", "s", "lower", f"wall_s on {D}"),
    ("cli.pool_busy_frac", "frac", "higher", f"wall_s on {D}"),
    ("cli.build_propensity_model.calls", "count", "lower", f"wall_s on {R}"),
    ("cli.build_propensity_model.s", "s", "lower", f"wall_s on {R}"),
    ("cli.propensity_fits_per_distinct", "ratio", "lower",
     f"wall_s on {R}; predicted 1.0 on {D} and {Y}"),
    ("cli.load_experiment_data.s", "s", "lower", f"wall_s on {Y}"),
    ("cli.cmd_summarize.s", "s", "lower", f"wall_s on {D}"),
    ("sim.simulate.s", "s", "lower", f"wall_s and peak_rss_mb on {Y}; flat on {D}"),
    ("sim.generate_engagement.s", "s", "lower", f"wall_s and peak_rss_mb on {Y}"),
    ("sim.convert_to_ratings.s", "s", "lower", f"wall_s and peak_rss_mb on {Y}"),
    ("sim.build_item_propensities.s", "s", "lower", f"wall_s on {Y}"),
    ("sim.sample_observations.s", "s", "lower", f"wall_s and peak_rss_mb on {Y}"),
    ("sim.sample_unbiased.s", "s", "lower", f"wall_s and peak_rss_mb on {Y}"),
    ("sim.cells", "count", "lower", f"wall_s and peak_rss_mb on {Y}; absent on {R}"),
    ("data.load_rating_pair.s", "s", "lower", f"wall_s on {R}"),
    ("data.filter_to_test_users.s", "s", "lower", f"wall_s on {R}"),
    ("data.reindex_users.s", "s", "lower", f"wall_s on {R}"),
    ("data.split_biased.s", "s", "lower", f"wall_s on {R} and {Y}"),
    ("data.split_unbiased.s", "s", "lower", f"wall_s on {R}"),
    ("data.lines_parsed", "count", "lower", f"wall_s on {R}"),
    ("data.lines_per_s", "1/s", "higher", f"wall_s on {R}"),
    ("propensity.estimate_popularity.calls", "count", "lower", f"wall_s on {D} (small)"),
    ("propensity.estimate_popularity.s", "s", "lower", f"wall_s on {D} (small)"),
    ("propensity.estimate_positivity.calls", "count", "lower", f"wall_s on {D} (small)"),
    ("propensity.estimate_positivity.s", "s", "lower", f"wall_s on {D} (small)"),
    ("propensity.estimate_multifactorial.calls", "count", "lower", f"wall_s on {D} and {R}"),
    ("propensity.estimate_multifactorial.s", "s", "lower", f"wall_s on {D} and {R}"),
    ("propensity.estimate_mf_propensity.calls", "count", "lower", f"wall_s on {R}"),
    ("propensity.estimate_mf_propensity.s", "s", "lower", f"wall_s on {R}"),
    ("propensity.prepare.calls", "count", "lower", f"wall_s on {D}"),
    ("propensity.prepare.s", "s", "lower", f"wall_s on {D}"),
    ("propensity.score_dataset.calls", "count", "lower", f"wall_s on {D}"),
    ("propensity.score_dataset.s", "s", "lower", f"wall_s on {D}"),
    ("optim.fit.calls", "count", "lower", f"wall_s on {D} and {Y}"),
    ("optim.fit.s", "s", "lower", f"wall_s on {D} and {Y}"),
    ("optim.fit.self_s", "s", "lower", f"wall_s on {D} and {Y}"),
    ("optim.epochs", "count", "lower", f"wall_s on {D} and {Y}"),
    ("optim.epoch_ms.p50", "ms", "lower", f"wall_s on {D} and {Y}"),
    ("optim.useful_epoch_frac", "frac", "higher", f"wall_s on {D} and {Y}"),
    ("optim.train_triples_per_s", "1/s", "higher", f"wall_s on {D} and {Y}"),
    ("optim.adam_step.calls", "count", "lower", f"wall_s on {Y}, less on {D}"),
    ("optim.adam_step.s", "s", "lower", f"wall_s on {Y}, less on {D}"),
    ("optim.adam_step.computed_mb", "MB", "lower", f"wall_s on {Y}, less on {D}"),
    ("optim.ips_loss.s", "s", "lower", f"wall_s on {D}"),
    ("model.predict_many.calls", "count", "lower", f"wall_s on {D}"),
    ("model.predict_many.s", "s", "lower", f"wall_s on {D}"),
    ("model.init_params.s", "s", "lower", f"wall_s on {Y}"),
    ("model.save_checkpoint.s", "s", "lower", f"wall_s on {Y}"),
    ("metrics.evaluate.s", "s", "lower", f"wall_s on {D}"),
    ("metrics.bootstrap_interval.s", "s", "lower", f"wall_s on {D}"),
    ("trace.overhead_frac", "frac", "lower", "none: traced wall_s / untraced wall_s - 1"),
]


# --------------------------------------------------------------------------
# facts recorded with a span, from the call's arguments and result


def _bound(fn):
    signature = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return arguments


def _fit_facts(fn):
    arguments = _bound(fn)

    def facts(args, kwargs, result):
        a = arguments(args, kwargs)
        return {
            "epochs": len(result.history),
            "best_epoch": result.best_epoch,
            "n_train": len(a["data"].train),
        }
    return facts


def _adam_facts(fn):
    arguments = _bound(fn)

    def facts(args, kwargs, result):
        # the training loop passes (params, grads, state, mask, lr) positionally
        if len(args) >= 4:
            params, mask = args[0], args[3]
        else:
            a = arguments(args, kwargs)
            params, mask = a["params"], a["mask"]
        # computed, not measured: every masked group's parameter, gradient,
        # first and second moment arrays are each read and written once
        return {"bytes": 4 * sum(params.group(name).nbytes for name in mask)}
    return facts


def _propensity_key_facts(fn):
    arguments = _bound(fn)

    def facts(args, kwargs, result):
        a = arguments(args, kwargs)
        train = a["bundle"].train
        digest = hashlib.blake2b(train.users.tobytes(), digest_size=8)
        digest.update(train.items.tobytes())
        pipeline = tuple(sorted(a["pipeline"].items()))
        return {"key": repr((a["method"], pipeline, a["seed"], digest.hexdigest()))}
    return facts


def _simulate_facts(fn):
    def facts(args, kwargs, result):
        spec = args[0] if args else kwargs["spec"]
        return {"cells": spec.num_users * spec.num_items}
    return facts


def _rating_pair_facts(fn):
    def facts(args, kwargs, result):
        return {"lines": len(result[0]) + len(result[1])}
    return facts


FACTS = {
    "optim.fit": _fit_facts,
    "optim.adam_step": _adam_facts,
    "cli.build_propensity_model": _propensity_key_facts,
    "sim.simulate": _simulate_facts,
    "data.load_rating_pair": _rating_pair_facts,
}


# --------------------------------------------------------------------------
# the tracer


class Tracer:
    """Span recorder. Spans are tuples
    ``(pid, sid, parent_sid, name, start, end, child_s, facts)``."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.main_pid = os.getpid()
        self._reset()
        self._originals: list[tuple[object, str, object]] = []

    def _reset(self):
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [sid, child_s] of the open spans
        self.next_sid = 0

    def wrap(self, name: str, fn):
        tracer = self
        facts = FACTS[name](fn) if name in FACTS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                # first call in a forked worker: drop the spans inherited from
                # the parent, which stay the parent's to report
                tracer._reset()
            stack = tracer.stack
            sid = tracer.next_sid
            tracer.next_sid += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            result, ok = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                info = facts(args, kwargs, result) if facts and ok else None
                tracer.spans.append((tracer.pid, sid, parent, name, start, end, frame[1], info))
                if not stack and tracer.pid != tracer.main_pid:
                    tracer._spill()
        return traced

    def _spill(self):
        with open(self.spill_dir / f"spans-{self.pid}.pkl", "ab") as fh:
            pickle.dump(self.spans, fh, protocol=pickle.HIGHEST_PROTOCOL)
        self.spans = []

    def collect(self) -> list[tuple]:
        """The parent's spans plus every span the pool workers spilled."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.pkl")):
            with open(path, "rb") as fh:
                while True:
                    try:
                        spans.extend(pickle.load(fh))
                    except EOFError:
                        break
        return spans

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


def install(spill_dir: Path) -> Tracer:
    """Wrap the layer functions and rebind them in every loaded ipsmf module."""
    tracer = Tracer(spill_dir)
    wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        module = importlib.import_module(f"ipsmf.{layer}")
        for attr, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            qualified = f"{module.__name__}.{attr}"
            if attr.startswith("_") and qualified not in PRIVATE_SPANS:
                continue
            name = PRIVATE_SPANS.get(qualified, f"{layer}.{attr}")
            wrapped[id(obj)] = (obj, tracer.wrap(name, obj))
    for module_name, module in list(sys.modules.items()):
        if module_name != "ipsmf" and not module_name.startswith("ipsmf."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                tracer._originals.append((module, attr, obj))
                setattr(module, attr, wrapped[id(obj)][1])
    return tracer


# --------------------------------------------------------------------------
# per-layer metrics from spans


def tail(values: list[float]) -> tuple[float, str]:
    """The highest order statistic with at least ten samples above it, and its
    label; the maximum when that statistic would lie below the median (fewer
    than 21 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, "n=0"
    if n < 21:
        return ordered[-1], f"max of n={n}"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.0f} of n={n}"


def layer_metrics(spans: list[tuple], wall_s: float, workers: int) -> tuple[dict, dict]:
    """Per-layer metric values (every name in LAYER_METRICS but the tracing
    overhead) and notes on how the spreads were taken."""
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[3], []).append(span)

    def facts(name):
        return [s[7] for s in by_name.get(name, []) if s[7] is not None]

    def durations(name):
        return [s[5] - s[4] for s in by_name.get(name, [])]

    def total(name):
        return float(sum(durations(name)))

    def calls(name):
        return len(by_name.get(name, []))

    def median(values):
        return float(statistics.median(values)) if values else 0.0

    out: dict[str, float] = {}
    notes: dict[str, str] = {}
    for name in (
        "cli.run_method", "cli.build_propensity_model", "propensity.estimate_popularity",
        "propensity.estimate_positivity", "propensity.estimate_multifactorial",
        "propensity.estimate_mf_propensity", "propensity.prepare",
        "propensity.score_dataset", "optim.fit", "optim.adam_step", "model.predict_many",
    ):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = total(name)
    for name in (
        "cli.load_experiment_data", "cli.cmd_summarize", "sim.simulate",
        "sim.generate_engagement", "sim.convert_to_ratings", "sim.build_item_propensities",
        "sim.sample_observations", "sim.sample_unbiased", "data.load_rating_pair",
        "data.filter_to_test_users", "data.reindex_users", "data.split_biased",
        "data.split_unbiased", "optim.ips_loss", "model.init_params",
        "model.save_checkpoint", "metrics.evaluate", "metrics.bootstrap_interval",
    ):
        out[f"{name}.s"] = total(name)

    run_ms = [d * 1e3 for d in durations("cli.run_method")]
    out["cli.run_method.p50_ms"] = median(run_ms)
    out["cli.run_method.tail_ms"], notes["cli.run_method.tail_ms"] = tail(run_ms)
    cells = durations("cli.cell")
    out["cli.cell.p50_s"] = median(cells)
    out["cli.cell.tail_s"], notes["cli.cell.tail_s"] = tail(cells)
    out["cli.pool_busy_frac"] = float(sum(cells)) / (wall_s * workers) if wall_s > 0 else 0.0
    notes["cli.pool_busy_frac"] = f"{workers} worker(s)"

    keys = [f["key"] for f in facts("cli.build_propensity_model")]
    out["cli.propensity_fits_per_distinct"] = len(keys) / len(set(keys)) if keys else 0.0

    out["sim.cells"] = sum(f["cells"] for f in facts("sim.simulate"))
    lines = sum(f["lines"] for f in facts("data.load_rating_pair"))
    out["data.lines_parsed"] = lines
    parse_s = out["data.load_rating_pair.s"]
    out["data.lines_per_s"] = lines / parse_s if parse_s > 0 else 0.0

    fits = by_name.get("optim.fit", [])
    out["optim.fit.self_s"] = float(sum(s[5] - s[4] - s[6] for s in fits))
    epochs = sum(f["epochs"] for f in facts("optim.fit"))
    out["optim.epochs"] = epochs
    out["optim.useful_epoch_frac"] = (
        sum(f["best_epoch"] for f in facts("optim.fit")) / epochs if epochs else 0.0)
    fit_s = out["optim.fit.s"]
    out["optim.train_triples_per_s"] = (
        sum(f["n_train"] * f["epochs"] for f in facts("optim.fit")) / fit_s
        if fit_s > 0 else 0.0)
    notes["optim.train_triples_per_s"] = "train triples x epochs / optim.fit.s"
    out["optim.epoch_ms.p50"] = median(_epoch_ms(fits, by_name.get("optim.ips_loss", [])))
    notes["optim.epoch_ms.p50"] = "gaps between successive ips_loss starts in one fit"
    out["optim.adam_step.computed_mb"] = sum(f["bytes"] for f in facts("optim.adam_step")) / 1e6
    notes["optim.adam_step.computed_mb"] = "computed from the masked group shapes, not measured"
    return out, notes


def _epoch_ms(fits: list[tuple], losses: list[tuple]) -> list[float]:
    """Epoch times: the training loop scores the train loss once at the end of
    every epoch, so the gaps between successive ips_loss starts inside one fit
    span are whole epochs."""
    starts: dict[tuple[int, int], list[float]] = {}
    for span in losses:
        starts.setdefault((span[0], span[2]), []).append(span[4])
    out = []
    for fit in fits:
        ticks = sorted(starts.get((fit[0], fit[1]), []))
        out += [(b - a) * 1e3 for a, b in zip(ticks, ticks[1:])]
    return out
