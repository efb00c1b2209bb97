#!/usr/bin/env python3
"""satguide benchmark: run one workload, check its outputs, print metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fixture-loop|hard-prove|learn \\
        --seed N --seconds S --trace 0|1 [--smoke]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run spends half
its time untraced and half with every layer wrapped, and the metrics are
the per-layer ones.  ``--smoke`` shrinks every workload to a few seconds.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

# One thread per run: keep numpy's BLAS from starting its own threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
LEDGER = os.path.join(WORK, "digests.json")

# fresh interpreters timed per run for setup_s
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "attempt_p50_s": "s",
    "given_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "tptp.self_s": "s",
    "tptp.parse_s": "s",
    "tptp.parse_calls": "count",
    "tptp.format_s": "s",
    "tptp.clause_text_parse_s": "s",
    "saturation.self_s": "s",
    "saturation.prove_self_s": "s",
    "saturation.resolve_s": "s",
    "saturation.resolve_calls": "count",
    "saturation.resolve_yield": "ratio",
    "saturation.factor_s": "s",
    "saturation.subsume_s": "s",
    "saturation.subsume_calls": "count",
    "saturation.subsume_hit_rate": "ratio",
    "saturation.record_io_s": "s",
    "saturation.generated": "count",
    "saturation.kept": "count",
    "guidance.self_s": "s",
    "guidance.evaluate_s": "s",
    "guidance.evaluate_calls": "count",
    "guidance.learned_pos_rate": "ratio",
    "features.self_s": "s",
    "features.featurize_s": "s",
    "features.featurize_calls": "count",
    "features.vectorize_s": "s",
    "features.examples_io_s": "s",
    "svm.self_s": "s",
    "svm.train_s": "s",
    "svm.epochs": "count",
    "svm.converged": "ratio",
    "svm.score_s": "s",
    "svm.accuracy_s": "s",
    "svm.model_io_s": "s",
    "svm.model_dim": "count",
    "svm.examples_per_s": "1/s",
    "svm.train_accuracy": "ratio",
    "svm.pos_recall": "ratio",
    "pipeline.self_s": "s",
    "pipeline.corpus_s": "s",
    "pipeline.attempts": "count",
    "pipeline.pool_s": "s",
    "pipeline.cover_s": "s",
    "pipeline.rounds_run": "count",
    "pipeline.stalled": "count",
    "pipeline.solved": "count",
    "pipeline.given_clauses": "count",
    "pipeline.guided_work_ratio": "ratio",
    "pipeline.attempt_p90_s": "s",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_frac": "ratio",
}

# percentile reported only when at least this many attempts lie beyond it
TAIL_SAMPLES = 10


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload for a quick self-test")
    return parser.parse_args(argv)


def source_hash() -> str:
    """Digest of the program and benchmark sources, keying the ledger."""
    h = hashlib.sha256()
    for folder in (os.path.join(ROOT, "src", "satguide"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fp:
                    h.update(name.encode() + fp.read())
    return h.hexdigest()


def ledger_errors(key: str, digests: dict) -> list[str]:
    """Compare digests with earlier runs of the same code, workload and seed."""
    ledger = {}
    if os.path.exists(LEDGER):
        with open(LEDGER, encoding="utf-8") as fp:
            ledger = json.load(fp)
    earlier = ledger.get(key)
    if earlier is None:
        ledger[key] = digests
        tmp = LEDGER + f".{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fp:
            json.dump(ledger, fp, indent=1, sort_keys=True)
        os.replace(tmp, LEDGER)
        return []
    return [f"{name} digest differs from an earlier run of this code"
            for name in digests if earlier.get(name) != digests[name]]


def run_metadata(args, passes: int) -> dict:
    """Where and how this run was made; printed on the line before the result."""
    import numpy
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": passes, "commit": commit,
        "source": source_hash(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def measure_setup(workload, repeats: int) -> float:
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), ROOT,
             *workload.probe_args()]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        done = subprocess.run(probe, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return statistics.median(times)


def run_passes(workload, seconds: float, on_pass=None) -> list:
    """Closed loop: run passes while the next one, as long as the last,
    still ends within ``seconds``; always at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or \
            time.perf_counter() - start + passes[-1].wall <= seconds:
        passes.append(workload.run_pass())
        if on_pass is not None:
            on_pass(passes[-1])
    return passes


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, or 0.0 with too few samples beyond it."""
    if len(values) * (100 - q) / 100 < TAIL_SAMPLES:
        return 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(passes, setup_s: float) -> dict:
    attempts = [t for p in passes for t in p.attempt_times]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "attempt_p50_s": statistics.median(attempts),
        "given_per_s": statistics.median(p.rate for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(self_s: dict, calls: dict, counters: Counter, root: float,
                  wall: float) -> dict:
    """Per-layer figures of one traced pass."""
    from tracer import LAYERS
    m = {f"{layer}.self_s": sum(t for name, t in self_s.items()
                                 if name.startswith(layer + "."))
         for layer in LAYERS}
    m.update({
        "tptp.parse_s": self_s["tptp.parse_problem"],
        "tptp.parse_calls": calls["tptp.parse_problem"],
        "tptp.format_s": self_s["tptp.format_clause"],
        "tptp.clause_text_parse_s": self_s["tptp.parse_clause_text"],
        "saturation.prove_self_s": self_s["saturation.prove"],
        "saturation.resolve_s": self_s["saturation.resolvents"],
        "saturation.resolve_calls": calls["saturation.resolvents"],
        "saturation.resolve_yield": ratio(counters["saturation.resolvents_made"],
                                          calls["saturation.resolvents"]),
        "saturation.factor_s": self_s["saturation.factors"],
        "saturation.subsume_s": self_s["saturation.subsumes"],
        "saturation.subsume_calls": calls["saturation.subsumes"],
        "saturation.subsume_hit_rate": ratio(counters["saturation.subsume_hits"],
                                             calls["saturation.subsumes"]),
        "saturation.record_io_s": self_s["saturation.save_record"]
        + self_s["saturation.load_record"],
        "saturation.generated": counters["saturation.generated"],
        "saturation.kept": counters["saturation.kept"],
        "guidance.evaluate_s": self_s["guidance.evaluate"],
        "guidance.evaluate_calls": calls["guidance.evaluate"],
        "guidance.learned_pos_rate": ratio(counters["guidance.predicted_pos"],
                                           calls["svm.predict"]),
        "features.featurize_s": self_s["features.clause_features"],
        "features.featurize_calls": calls["features.clause_features"],
        "features.vectorize_s": self_s["features.vectorize"],
        "features.examples_io_s": self_s["features.read_examples"]
        + self_s["features.write_examples"],
        "svm.train_s": self_s["svm.solve_l2svm"],
        "svm.epochs": counters["svm.epochs"],
        "svm.converged": ratio(counters["svm.converged"], counters["svm.fits"]),
        "svm.score_s": self_s["svm.score_vector"] + self_s["svm.predict"],
        "svm.accuracy_s": self_s["svm.accuracy"],
        "svm.model_io_s": self_s["svm.save_model"] + self_s["svm.load_model"],
        "svm.model_dim": counters["svm.model_dim"],
        "svm.examples_per_s": ratio(counters["svm.examples"],
                                    self_s["svm.solve_l2svm"]),
        "pipeline.corpus_s": self_s["pipeline.run_corpus"],
        "pipeline.attempts": calls["saturation.prove"],
        "pipeline.pool_s": self_s["pipeline.pool_examples"],
        "pipeline.cover_s": self_s["pipeline.greedy_cover"],
        "pipeline.rounds_run": counters["pipeline.rounds_run"],
        "pipeline.stalled": counters["pipeline.stalled"],
        "trace.wall_s": wall,
        "trace.self_sum_s": root,
    })
    return m


def traced_run(workload, seconds: float) -> tuple[list, dict, list[str]]:
    """Half the time untraced, half traced; per-layer medians over passes."""
    from tracer import Tracer
    plain = run_passes(workload, seconds / 2)
    tracer = Tracer()
    tracer.install()
    per_pass = []
    errors = []

    def on_pass(result):
        self_s, calls, counters, root = tracer.collect()
        per_pass.append(layer_metrics(self_s, calls, counters, root,
                                      result.wall))
        if root > result.wall:
            errors.append(f"traced self times sum to {root:.3f} s, more "
                          f"than the pass wall time {result.wall:.3f} s")

    try:
        traced = run_passes(workload, seconds / 2, on_pass)
    finally:
        tracer.uninstall()
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    outcome = plain[0]
    metrics.update({
        "svm.train_accuracy": outcome.train_accuracy,
        "svm.pos_recall": outcome.pos_recall,
        "pipeline.solved": outcome.solved,
        "pipeline.given_clauses": outcome.given,
        "pipeline.guided_work_ratio": outcome.guided_work_ratio,
        "pipeline.attempt_p90_s": percentile(
            [t for p in plain for t in p.attempt_times], 90),
        "trace.overhead_frac": statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in plain) - 1.0,
    })
    return plain + traced, metrics, errors


def consistency_errors(passes) -> list[str]:
    errors = []
    for k, p in enumerate(passes):
        errors += [f"pass {k}: {e}" for e in p.errors]
        if p.digests != passes[0].digests:
            errors.append(f"pass {k}: digests differ from pass 0")
        if p.given != passes[0].given:
            errors.append(f"pass {k}: {p.given} given clauses, "
                          f"pass 0 had {passes[0].given}")
    return errors


def main(argv=None) -> int:
    args = parse_args(argv)
    for needed in (os.path.join("src", "satguide", "__init__.py"),
                   os.path.join("tests", "fixtures", "corpus", "manifest.txt")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found under {ROOT}; run from a satguide checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        workload = workloads.WORKLOADS[args.workload](
            ROOT, workdir, args.seed, args.smoke)
        workload.prepare()
        # one untimed pass first, so lazy set-up and caches have settled
        warmup = workload.run_pass()
        if args.trace:
            passes, metrics, errors = traced_run(workload, args.seconds)
            units = PER_LAYER
        else:
            setup_s = measure_setup(workload, 1 if args.smoke else SETUP_REPEATS)
            passes = run_passes(workload, args.seconds)
            metrics, errors = end_to_end(passes, setup_s), []
            units = END_TO_END
        errors += consistency_errors([warmup, *passes])
        key = "/".join((args.workload, str(args.seed),
                        "smoke" if args.smoke else "full", source_hash()))
        errors += ledger_errors(key, passes[0].digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in errors:
        print(f"perfbench: incorrect: {error}", file=sys.stderr)
    print(json.dumps({"run": run_metadata(args, len(passes))}))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(len(p.attempt_times) for p in [warmup, *passes]),
        "failed": sum(p.failed for p in [warmup, *passes]),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
