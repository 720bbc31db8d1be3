"""Span tracer and the wrappers that time calls into steinsure's layers.

The wrappers replace attributes of the imported package: module functions,
the entries of ``harness.EXPERIMENTS``, ``RngStream.generator`` and the
callbacks of the click commands.  ``Tracer.uninstall`` puts the originals
back.  Nothing under ``src/`` changes, and a wrapper returns exactly what
the wrapped function returns.

Spans are kept in memory as ``[name, start, end, parent, op, attrs]`` and
written out at the end of a run.  Only spans opened on the thread that
created the tracer are recorded; the traced runs keep every call on that
thread (the ``debias`` workload runs its traced replications in-process).
"""

from __future__ import annotations

import collections
import functools
import json
import os
import threading
import time

import numpy as np

from steinsure import cli, core, debias, divergence_mc, harness, solvers, stein

# stein functions that harness and cli call
STEIN_ENTRY_POINTS = (
    "sure", "sure_from_fit", "model_size_ci", "model_size_variance_bound",
    "symmetric_deviation_quantile", "lower_deviation_quantile",
    "default_field_corpus", "verify_sos_identity",
)

HARNESS_KINDS = ("unbiasedness", "coverage", "selection", "model_size",
                 "mc_divergence", "debias")

CLI_COMMANDS = ("lasso", "enet", "sure", "sure4sure", "tune", "svt-df",
                "mc-div", "model-size", "run")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.op = None
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str):
        if threading.get_ident() != self._thread:
            return None
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, {}])
        self._stack.append(idx)
        return idx

    def end(self, idx, attrs=None) -> None:
        if idx is None:
            return
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if attrs:
            span[5].update(attrs)
        self._stack.pop()

    def timed(self, name: str, fn, attrs=None):
        """Wrap ``fn`` in a span; ``attrs(out, args, kwargs)`` adds fields."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.end(idx, {"failed": 1})
                raise
            self.end(idx, attrs(out, args, kwargs) if attrs else None)
            return out
        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, name, new):
        if isinstance(owner, dict):
            self._undo.append((owner.__setitem__, name, owner[name]))
            owner[name] = new
        else:
            self._undo.append((functools.partial(setattr, owner), name,
                               getattr(owner, name)))
            setattr(owner, name, new)

    def install(self) -> None:
        t = self
        self._patch(solvers, "fit_lasso_batch", t.timed(
            "solvers.fit_lasso_batch", solvers.fit_lasso_batch,
            lambda out, a, k: {"rows": int(out.shape[0])}))

        def lasso_attrs(fit, args, kwargs):
            beta0 = kwargs.get("beta0")
            attrs = {"sweeps": fit.n_iter, "unconverged": int(not fit.converged),
                     "warm": int(beta0 is not None)}
            if beta0 is not None:
                attrs["same_support"] = int(np.array_equal(
                    fit.support, np.flatnonzero(beta0)))
            return attrs
        self._patch(solvers, "fit_lasso", t.timed(
            "solvers.fit_lasso", solvers.fit_lasso, lasso_attrs))
        self._patch(solvers, "svt", t.timed(
            "solvers.svt", solvers.svt,
            lambda out, a, k: {"degenerate": int(out.degenerate)}))
        self._patch(solvers, "check_kkt", t.timed(
            "solvers.check_kkt", solvers.check_kkt,
            lambda out, a, k: {"strict": int(out.strict)}))

        mc = t.timed("divergence_mc.mc_divergence", divergence_mc.mc_divergence)

        @functools.wraps(divergence_mc.mc_divergence)
        def mc_divergence(f, *args, **kwargs):
            return mc(t.timed("divergence_mc.map", f), *args, **kwargs)
        self._patch(divergence_mc, "mc_divergence", mc_divergence)

        self._patch(debias, "debias_theta", t.timed(
            "debias.debias_theta", debias.debias_theta,
            lambda out, a, k: {"frozen": int(out.frozen_support)}))
        for name in STEIN_ENTRY_POINTS:
            self._patch(stein, name, t.timed("stein." + name,
                                             getattr(stein, name)))
        for kind in list(harness.EXPERIMENTS):
            self._patch(harness.EXPERIMENTS, kind, t.timed(
                "harness." + kind, harness.EXPERIMENTS[kind]))
        self._patch(harness, "load_matrix_csv", t.timed(
            "harness.io", harness.load_matrix_csv,
            lambda out, a, k: {"bytes": os.path.getsize(a[0])}))

        generator = core.RngStream.generator

        @functools.wraps(generator)
        def counted_generator(stream):
            t.counts["core.generator.calls"] += 1
            return generator(stream)
        self._patch(core.RngStream, "generator", counted_generator)

        for name, command in cli.main.commands.items():
            self._patch(command, "callback",
                        t.timed("cli." + name, command.callback))

    def uninstall(self) -> None:
        while self._undo:
            setter, name, original = self._undo.pop()
            setter(name, original)

    # -- output ----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op, attrs."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, attrs in self.spans:
                handle.write(json.dumps({"name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "op": op, **attrs}) + "\n")


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer counts, busy time and self time derived from the spans.

    Busy time sums the spans of a name that do not sit inside another span
    of the same name (for the ``stein`` layer: of any stein function).
    Self time is a span's duration minus the time its child spans cover.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    by_name = collections.defaultdict(list)
    for idx, span in enumerate(spans):
        by_name[span[0]].append(idx)

    def outermost(names):
        """Spans of these names that sit inside no other span of them."""
        found = []
        for idx in (i for n in names for i in by_name[n]):
            parent = spans[idx][3]
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent < 0:
                found.append(idx)
        return found

    def calls(name):
        return len(by_name[name])

    def busy(*names):
        return sum(spans[i][2] - spans[i][1] for i in outermost(names))

    def self_time(names):
        return sum(spans[i][2] - spans[i][1] - child_time[i]
                   for n in names for i in by_name[n])

    def attr(name, key):
        return sum(spans[i][5].get(key, 0) for i in by_name[name])

    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    fb = "solvers.fit_lasso_batch"
    put(fb + ".calls", calls(fb), "count")
    put(fb + ".rows", attr(fb, "rows"), "count")
    put(fb + ".busy_s", busy(fb), "s")
    put(fb + ".failed", attr(fb, "failed"), "count")

    fl = "solvers.fit_lasso"
    warm = attr(fl, "warm")
    put(fl + ".calls", calls(fl), "count")
    put(fl + ".busy_s", busy(fl), "s")
    put(fl + ".sweeps", attr(fl, "sweeps"), "count")
    put(fl + ".unconverged", attr(fl, "unconverged"), "count")
    put(fl + ".warm_frac", _frac(warm, calls(fl)), "ratio")
    put(fl + ".same_support_frac", _frac(attr(fl, "same_support"), warm),
        "ratio")

    put("solvers.svt.calls", calls("solvers.svt"), "count")
    put("solvers.svt.busy_s", busy("solvers.svt"), "s")
    put("solvers.svt.degenerate", attr("solvers.svt", "degenerate"), "count")

    kkt = "solvers.check_kkt"
    put(kkt + ".calls", calls(kkt), "count")
    put(kkt + ".strict_frac", _frac(attr(kkt, "strict"), calls(kkt)), "ratio")

    mc = "divergence_mc.mc_divergence"
    put(mc + ".calls", calls(mc), "count")
    put(mc + ".map_evals", calls("divergence_mc.map"), "count")
    put(mc + ".busy_s", busy(mc), "s")
    put(mc + ".self_s", self_time([mc]), "s")

    db = "debias.debias_theta"
    put(db + ".calls", calls(db), "count")
    put(db + ".busy_s", busy(db), "s")
    put(db + ".self_s", self_time([db]), "s")
    put(db + ".frozen_frac", _frac(attr(db, "frozen"), calls(db)), "ratio")

    stein_names = ["stein." + n for n in STEIN_ENTRY_POINTS]
    put("stein.calls", len(outermost(stein_names)), "count")
    put("stein.busy_s", busy(*stein_names), "s")

    for kind in HARNESS_KINDS:
        put("harness.%s.busy_s" % kind, busy("harness." + kind), "s")
        put("harness.%s.self_s" % kind, self_time(["harness." + kind]), "s")
    put("harness.io.busy_s", busy("harness.io"), "s")
    put("harness.io.bytes", attr("harness.io", "bytes"), "B")

    put("core.generator.calls", tracer.counts["core.generator.calls"], "count")

    for name in CLI_COMMANDS:
        put("cli.%s.busy_s" % name, busy("cli." + name), "s")
    put("cli.self_s", self_time(["cli.main"] + ["cli." + n for n in
                                                 cli.main.commands]), "s")
    return out
