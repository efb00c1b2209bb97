"""Outside-in tracing of satguide: wrap public functions, keep spans in memory.

Each traced function is replaced, in every satguide module that holds it,
by a wrapper under the same name, so callers that imported it by name
(``saturation.subsumes``, ``saturation.evaluate``, ``pipeline.prove``) hit
the wrapper too.  A wrapper records one span per call: the function, its
start and end, and the index of the span that was open when it was called.
A span's self time is its duration minus the durations of its child spans.
Spans stay in flat arrays until :meth:`Tracer.collect` folds them into
per-function totals and clears them.

Some targets also count what their calls produced (resolvents made,
subsumption hits, positive predictions), so ratios are measured at the
same boundary as the time.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


def _resolvents(counters, result, args):
    counters["saturation.resolvents_made"] += len(result)


def _subsumes(counters, result, args):
    counters["saturation.subsume_hits"] += bool(result)


def _predict(counters, result, args):
    counters["guidance.predicted_pos"] += result == "pos"


def _solve(counters, result, args):
    _, info = result
    counters["svm.fits"] += 1
    counters["svm.epochs"] += info.epochs
    counters["svm.converged"] += info.converged
    counters["svm.examples"] += len(args[0])
    counters["svm.model_dim"] = max(counters["svm.model_dim"], args[2])


def _prove(counters, result, args):
    counters["saturation.generated"] += result.stats["generated"]
    counters["saturation.kept"] += result.stats["kept"]


def _loop(counters, result, args):
    counters["pipeline.rounds_run"] += max(r.round for r in result.rounds) \
        if result.rounds else 0
    counters["pipeline.stalled"] += result.stalled


# (defining module, function name, result observer or None)
TARGETS = (
    ("tptp", "parse_problem", None),
    ("tptp", "parse_clause_text", None),
    ("tptp", "format_clause", None),
    ("saturation", "prove", _prove),
    ("saturation", "resolvents", _resolvents),
    ("saturation", "factors", None),
    ("saturation", "subsumes", _subsumes),
    ("saturation", "save_record", None),
    ("saturation", "load_record", None),
    ("guidance", "evaluate", None),
    ("features", "clause_features", None),
    ("features", "vectorize", None),
    ("features", "read_examples", None),
    ("features", "write_examples", None),
    ("svm", "predict", _predict),
    ("svm", "score_vector", None),
    ("svm", "solve_l2svm", _solve),
    ("svm", "accuracy", None),
    ("svm", "save_model", None),
    ("svm", "load_model", None),
    ("pipeline", "loop", _loop),
    ("pipeline", "run_grid", None),
    ("pipeline", "run_corpus", None),
    ("pipeline", "pool_examples", None),
    ("pipeline", "training_set", None),
    ("pipeline", "greedy_cover", None),
)

LAYERS = ("tptp", "saturation", "guidance", "features", "svm", "pipeline")


class Tracer:
    """Installs span-recording wrappers; removes them on :meth:`uninstall`."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn, _ in TARGETS]
        self._patched: list[tuple[object, str, object]] = []
        self.counters: Counter = Counter()
        self._fn = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    def _wrap(self, fn_id: int, fn, observe):
        fns, parents, starts, ends, stack = (
            self._fn, self._parent, self._start, self._end, self._stack)
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(fns)
            fns.append(fn_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if observe is not None:
                observe(counters, result, args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        importlib.import_module("satguide.cli")
        modules = [m for name, m in sys.modules.items()
                   if name == "satguide" or name.startswith("satguide.")]
        for fn_id, (mod, name, observe) in enumerate(TARGETS):
            original = getattr(sys.modules[f"satguide.{mod}"], name)
            wrapper = self._wrap(fn_id, original, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def collect(self) -> tuple[dict[str, float], dict[str, int], Counter, float]:
        """Fold the recorded spans into per-function self time and calls.

        Returns (self seconds by function, calls by function, counters,
        seconds covered by root spans) and clears spans and counters.  Root
        coverage equals the sum of all self times.
        """
        fn = np.array(self._fn, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        dur = np.array(self._end) - np.array(self._start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = np.bincount(fn, weights=dur - child, minlength=len(TARGETS))
        calls = np.bincount(fn, minlength=len(TARGETS))
        root = float(dur[~has_parent].sum())
        self_s = {name: float(self_time[k]) for k, name in enumerate(self.names)}
        n_calls = {name: int(calls[k]) for k, name in enumerate(self.names)}
        counters = Counter(self.counters)
        for spans in (self._fn, self._parent, self._start, self._end):
            del spans[:]
        self.counters.clear()
        return self_s, n_calls, counters, root
