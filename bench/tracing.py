"""In-memory tracing of grwlab's layers, installed from outside the package.

Every target is a public function or method of one grwlab module.  Its
wrapper is bound in place of the original in every loaded ``grwlab``
module namespace that holds it (or on its class, for methods), so calls made
through ``from .x import f`` imports are seen as well.

Two kinds of wrapper:

* timed: keeps per-name calls, total time and self time (total minus the
  time spent in timed callees).  Coarse calls also keep one span each:
  (id, parent id, name, start, end).  Hot per-step calls are aggregated
  only, since fig1 makes about a million of them.
* counted: counts calls without timing them, so their time stays with the
  caller (used for the network forward pass, which runs inside
  ``predict`` and ``jacobian``).

A target that no longer exists is recorded in ``missing``; its metrics are
reported as missing and the run goes on.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import dataclass, field

# (metric base name, module, attribute path, kind).  kind is "span" for a
# coarse call, "hot" for a per-step call and "count" for a counted call.
TARGETS = (
    ("trainer.train", "grwlab.trainer", "train", "span"),
    ("losses.loss_value", "grwlab.losses", "loss_value", "hot"),
    ("losses.loss_grad", "grwlab.losses", "loss_grad", "hot"),
    ("reweighting.update", "grwlab.reweighting", "StaticScheme.update", "hot"),
    ("reweighting.update", "grwlab.reweighting", "GroupDroScheme.update", "hot"),
    ("reweighting.update", "grwlab.reweighting", "CvarScheme.update", "hot"),
    ("reweighting.check_assumption1", "grwlab.reweighting", "check_assumption1", "span"),
    ("models.predict", "grwlab.models", "LinearModel.predict", "hot"),
    ("models.predict", "grwlab.models", "WideNet.predict", "hot"),
    ("models.predict", "grwlab.models", "LinearizedNet.predict", "hot"),
    ("models.jacobian", "grwlab.models", "LinearModel.jacobian", "hot"),
    ("models.jacobian", "grwlab.models", "WideNet.jacobian", "hot"),
    ("models.jacobian", "grwlab.models", "LinearizedNet.jacobian", "hot"),
    ("models.linearize", "grwlab.models", "linearize", "span"),
    ("models.forward_passes", "grwlab.models", "nn_forward_batch", "count"),
    ("linalg.extreme_eigenvalues", "grwlab.linalg", "extreme_eigenvalues", "hot"),
    ("linalg.span_residual", "grwlab.linalg", "span_residual", "hot"),
    ("oracles.min_norm_interpolator", "grwlab.oracles", "min_norm_interpolator", "span"),
    ("oracles.ridge_closed_form", "grwlab.oracles", "ridge_closed_form", "span"),
    ("oracles.max_margin_direction", "grwlab.oracles", "max_margin_direction", "span"),
    ("oracles.ntk_limiting_kernel", "grwlab.oracles", "ntk_limiting_kernel", "hot"),
    ("data_io.export_trace", "grwlab.data_io", "export_trace", "span"),
    ("experiments.run_experiment", "grwlab.experiments", "run_experiment", "span"),
)


@dataclass
class Tracer:
    """Spans, per-name aggregates and counters of one traced round."""

    agg: dict = field(default_factory=dict)  # name -> [calls, total_s, self_s]
    spans: list = field(default_factory=list)  # [id, parent, name, start, end]
    counts: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    epochs: int = 0
    bytes_written: int = 0
    _stack: list = field(default_factory=list)  # frames: [child_s, span_id]

    def timed(self, name: str, fn, span: bool, post=None):
        stack, agg, spans, clock = self._stack, self.agg, self.spans, time.perf_counter
        agg.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            frame = [0.0, len(spans) if span else parent]
            if span:
                spans.append([frame[1], parent, name, 0.0, 0.0])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                entry = agg[name]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span:
                    spans[frame[1]][3:5] = [start, start + dur]
            if post is not None:
                post(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn as the root span of the round."""
        return self.timed(name, fn, span=True)(*args, **kwargs)

    def _post_train(self, args, result):
        try:
            self.epochs += int(result[1].epochs[-1])
        except (AttributeError, IndexError, TypeError):
            pass

    def _post_export(self, args, result):
        try:
            self.bytes_written += os.path.getsize(args[1])
        except (IndexError, OSError, TypeError):
            pass

    def install(self) -> None:
        """Wrap every target; record the ones that no longer exist."""
        posts = {"trainer.train": self._post_train, "data_io.export_trace": self._post_export}
        for name, module_name, attr, kind in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner, leaf = module, attr
                if "." in attr:
                    cls_name, leaf = attr.split(".")
                    owner = getattr(module, cls_name)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            if kind == "count":
                wrapped = self.counted(name, original)
            else:
                wrapped = self.timed(name, original, span=kind == "span", post=posts.get(name))
            if owner is not module:
                setattr(owner, leaf, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "grwlab" or mod_name.startswith("grwlab."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def summary(self) -> dict:
        return {
            "agg": self.agg,
            "counts": self.counts,
            "missing": self.missing,
            "epochs": self.epochs,
            "bytes_written": self.bytes_written,
        }
