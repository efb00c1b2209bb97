"""The three benchmark workloads.

Each workload writes its inputs from the seed in :meth:`prepare` (not
timed), then runs passes of the same work in a closed loop with one caller:
the next pass starts when the previous one has returned.  Every pass goes
through ``satguide.cli.main`` in this process, with ``--jobs 1``, no
threads and no ``--timeout``, so verdicts, counters and digests repeat
exactly.  A pass returns its timings, its digests and the correctness
errors it found.

``fixture-loop``  ``loop --rounds 2`` with the default grid over the
    24-problem fixture corpus: the paper's whole pipeline.
``hard-prove``    baseline ``prove --record`` under a fixed processed cap
    over the generated hard tier; the only workload where the prover works
    hard, and the one with no feature or SVM work.
``learn``         ``extract`` -> ``train`` -> ``eval`` with boost 2 over every
    proof record of a round-1 fixture grid; no saturation runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checks
import hardtier

# hard-prove: processed-clause cap for every attempt.  Cost grows steeply
# with it (a group problem takes ~0.5 s at 100, ~1.3 s at 150, ~5 s at
# 200); 120 keeps a pass near 5 s, so a run holds several passes, while
# forward subsumption still takes most of the time.
HARD_CAP = 120
SMOKE_HARD_CAP = 30
# learn: how often extract repeats each positive example
LEARN_BOOST = 2
# (gammas, frequencies): the loop subcommand's default grid, spelled out
# so the benchmark does not move when the defaults do
GRID = ((0.0, 0.2, 8.0), (1, 5, 10, 30, 50))
SMOKE_GRID = ((0.2,), (5,))
SMOKE_PROBLEMS = 4


@dataclass
class PassResult:
    wall: float
    # time to verdict of each attempt: a proof attempt, or a CLI command
    # for learn
    attempt_times: list[float]
    # given clauses handled in the pass
    given: int
    # given clauses per second of proof-attempt time in the pass (learn:
    # input given clauses per second of the pass)
    rate: float
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    # outcome figures reported with the per-layer metrics
    solved: int = 0
    guided_work_ratio: float = 0.0
    train_accuracy: float = 0.0
    pos_recall: float = 0.0


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run one satguide command in-process; returns (exit code, stdout, s)."""
    from satguide import cli
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue(), time.perf_counter() - start


@contextlib.contextmanager
def capture(module, name: str, sink: list, timed: bool = False):
    """Replace ``module.name`` by a wrapper that appends each call's result
    (and, if ``timed``, its duration) to ``sink``; restores on exit."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        sink.append((result, time.perf_counter() - start) if timed else result)
        return result

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, original)


_SYMBOL_RE = re.compile(r"(?<![$A-Za-z0-9_])[a-z][A-Za-z0-9_]*")
_KEYWORDS = {"cnf", "axiom", "hypothesis", "negated_conjecture"}


def renamed_symbols(texts: list[str], rng: random.Random) -> list[str]:
    """The problems with every symbol renamed by one seeded map.

    Interning order, and so every symbol id, feature and search step, is
    unchanged; only the names differ.  New names never start with a Skolem
    prefix.
    """
    names: dict[str, str] = {}

    def rename(m: re.Match) -> str:
        old = m.group()
        if old in _KEYWORDS:
            return old
        if old not in names:
            new = old
            while new == old or new in names.values():
                new = f"{rng.choice('abcdfghkmnpqrtvwxyz')}{rng.randrange(10 ** 5)}"
            names[old] = new
        return names[old]

    return ["".join(line if line.startswith("%") else _SYMBOL_RE.sub(rename, line)
                    for line in text.splitlines(keepends=True))
            for text in texts]


def fixture_corpus(root: str, workdir: str, seed: int, smoke: bool) -> str:
    """Manifest of the fixture corpus for ``seed``.

    Seed 0 is the committed corpus.  Any other seed renames every symbol of
    the committed corpus with one seeded map and shuffles the problem order.
    Each seed thus does the same proof work, while training sees its
    examples in another order.  (Corpora regenerated by
    ``tests/make_corpus.problem_text`` from other random seeds differ in
    total proof work by about 8% between seeds, which would swamp the
    benchmark's bounds.)
    """
    committed = os.path.join(root, "tests", "fixtures", "corpus")
    with open(os.path.join(committed, "manifest.txt"), encoding="utf-8") as fp:
        entries = [line.split() for line in fp if line.strip()]
    if smoke:
        entries = entries[:SMOKE_PROBLEMS]
    texts = []
    for _, name in entries:
        with open(os.path.join(committed, name), encoding="utf-8") as fp:
            texts.append(fp.read())
    if seed != 0:
        rng = random.Random(seed)
        texts = renamed_symbols(texts, rng)
        order = list(range(len(entries)))
        rng.shuffle(order)
        entries = [entries[k] for k in order]
        texts = [texts[k] for k in order]
    outdir = os.path.join(workdir, "corpus")
    os.makedirs(outdir, exist_ok=True)
    for (_, name), text in zip(entries, texts):
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as fp:
            fp.write(text)
    manifest = os.path.join(outdir, "manifest.txt")
    with open(manifest, "w", encoding="utf-8") as fp:
        fp.writelines(f"{pid} {name}\n" for pid, name in entries)
    return manifest


def grid_flags(smoke: bool) -> list[str]:
    gammas, frequencies = SMOKE_GRID if smoke else GRID
    return ["--gammas", ",".join(f"{g:g}" for g in gammas),
            "--frequencies", ",".join(str(f) for f in frequencies)]


def guided_work_ratio(grid) -> float:
    """Given clauses of the cheapest learned row that solves everything the
    baseline row solves, over the baseline row's, on those problems.
    0.0 when no learned row qualifies."""
    base = grid.rows[0]
    base_given = sum(base.processed[pid] for pid in base.solved)
    best = None
    for row in grid.rows[1:]:
        if base.solved <= row.solved:
            given = sum(row.processed[pid] for pid in base.solved)
            best = given if best is None else min(best, given)
    return best / base_given if best is not None and base_given else 0.0


class Workload:
    name = ""

    def __init__(self, root: str, workdir: str, seed: int, smoke: bool):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.smoke = smoke

    def prepare(self) -> None:
        raise NotImplementedError

    def probe_args(self) -> list[str]:
        """Arguments of ``setup_probe.py`` that read this workload's inputs."""
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError


class FixtureLoop(Workload):
    name = "fixture-loop"

    def prepare(self) -> None:
        self.manifest = fixture_corpus(self.root, self.workdir, self.seed,
                                       self.smoke)
        with open(self.manifest, encoding="utf-8") as fp:
            self.problems = [os.path.join(os.path.dirname(self.manifest),
                                          line.split()[1]) for line in fp]
        self.outdir = os.path.join(self.workdir, "loop-out")

    def probe_args(self) -> list[str]:
        return ["problems", *self.problems]

    def run_pass(self) -> PassResult:
        from satguide import pipeline, saturation
        proofs: list = []
        grids: list = []
        reports: list = []
        failed = 0
        shutil.rmtree(self.outdir, ignore_errors=True)
        with capture(pipeline, "prove", proofs, timed=True), \
                capture(pipeline, "run_grid", grids), \
                capture(pipeline, "loop", reports):
            rc, _, wall = run_cli(["loop", self.manifest, "--rounds", "2",
                                   "-o", self.outdir, *grid_flags(self.smoke)])
        errors = []
        if rc != 0:
            errors.append(f"loop exited {rc}")
            failed += 1
        records = [saturation.record_to_json(rec) for rec, _ in proofs]
        for record in records:
            errors += [f"{record['problem']}: {e}" for e in
                       checks.verdict_errors(record, checks.THEOREM)
                       + checks.dag_errors(record)]
        models = sorted(f for f in os.listdir(self.outdir) if f.endswith(".bin"))
        given = sum(len(r["given_sequence"]) for r in records)
        proving = sum(dt for _, dt in proofs)
        result = PassResult(
            wall=wall, attempt_times=[dt for _, dt in proofs], given=given,
            rate=given / proving if proving else 0.0, failed=failed,
            errors=errors,
            digests={"records": checks.record_digest(records),
                     "models": checks.file_digest(
                         os.path.join(self.outdir, f) for f in models)})
        if reports:
            report = reports[0]
            result.solved = len(report.rounds[-1].solved) if report.rounds else 0
            trained = [r for r in report.rounds if r.n_positive]
            if trained:
                result.train_accuracy = trained[-1].accuracy
                result.pos_recall = trained[-1].positive_recall or 0.0
            if result.solved != len(self.problems):
                errors.append(f"loop solved {result.solved} of "
                              f"{len(self.problems)} theorems")
        if grids:
            result.guided_work_ratio = guided_work_ratio(grids[0])
        return result


class HardProve(Workload):
    name = "hard-prove"

    def prepare(self) -> None:
        self.cap = SMOKE_HARD_CAP if self.smoke else HARD_CAP
        self.tier = hardtier.generate(self.seed)
        tierdir = os.path.join(self.workdir, "hard")
        os.makedirs(tierdir, exist_ok=True)
        self.paths = []
        for problem in self.tier:
            path = os.path.join(tierdir, f"{problem.name}.p")
            with open(path, "w", encoding="utf-8") as fp:
                fp.write(problem.text)
            self.paths.append(path)
        self.record_path = os.path.join(tierdir, "record.json")

    def probe_args(self) -> list[str]:
        return ["problems", *self.paths]

    def run_pass(self) -> PassResult:
        start = time.perf_counter()
        times = []
        proving = 0.0
        records = []
        errors = []
        failed = 0
        for problem, path in zip(self.tier, self.paths):
            rc, _, dt = run_cli(["prove", path, "--record", self.record_path,
                                 "--max-processed", str(self.cap)])
            times.append(dt)
            if rc != 0:
                errors.append(f"{problem.name}: prove exited {rc}")
                failed += 1
                continue
            with open(self.record_path, encoding="utf-8") as fp:
                record = json.load(fp)
            records.append(record)
            proving += dt
            errors += [f"{problem.name}: {e}" for e in
                       checks.verdict_errors(record, problem.status)
                       + checks.dag_errors(record)]
        wall = time.perf_counter() - start
        given = sum(len(r["given_sequence"]) for r in records)
        return PassResult(
            wall=wall, attempt_times=times,
            given=given, rate=given / proving if proving else 0.0,
            failed=failed, errors=errors,
            digests={"records": checks.record_digest(records)},
            solved=sum(r["outcome"] == "proof_found" for r in records))


def prepare_learn_records(src: str, manifest: str, outdir: str,
                          gammas, frequencies) -> None:
    """Write every proof record of one round-1 grid on the corpus.

    Round 0 solves the corpus with the baseline and trains on its proofs,
    as ``loop`` does; round 1 runs the grid around that model.
    """
    sys.path.insert(0, src)
    from satguide import pipeline, saturation
    from satguide.clauses import Signature
    from satguide.guidance import baseline_strategy
    from satguide.svm import SolverConfig

    problems = pipeline.load_manifest(manifest)
    base = baseline_strategy()
    limits = saturation.Limits()
    base_records = pipeline.run_corpus(problems, {pipeline.BASE_ALONE: base},
                                       limits)
    proofs = [r for r in base_records.values()
              if r.outcome == saturation.OUTCOME_PROOF]
    sig = Signature()
    model = pipeline.train_from_examples(pipeline.pool_examples(proofs, sig),
                                         sig, SolverConfig())
    grid = pipeline.run_grid(problems, model, base,
                             pipeline.GridSpec(list(gammas), list(frequencies)),
                             limits, model_path="<round0>")
    os.makedirs(outdir, exist_ok=True)
    n = 0
    for row in grid.rows:
        for pid in sorted(row.records):
            saturation.save_record(row.records[pid],
                                   os.path.join(outdir, f"{n:04d}.json"))
            n += 1


_COUNTS_RE = re.compile(r"(\d+) (?:examples )?\((\d+) positive, (\d+) negative\)")
_RECALL_RE = re.compile(r"^positive recall: (\S+)$", re.M)
_ACCURACY_RE = re.compile(r"^accuracy: (\S+)$", re.M)


class Learn(Workload):
    name = "learn"

    def prepare(self) -> None:
        manifest = fixture_corpus(self.root, self.workdir, self.seed, self.smoke)
        recdir = os.path.join(self.workdir, "records")
        # in a child process, so this process's peak memory is learn's own;
        # subprocess.run waits for it to end
        gammas, frequencies = SMOKE_GRID if self.smoke else GRID
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "prepare-learn",
             os.path.join(self.root, "src"), manifest, recdir,
             json.dumps([gammas, frequencies])],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if child.returncode != 0:
            raise RuntimeError(f"preparing learn records failed "
                               f"(exit {child.returncode}): "
                               f"{child.stderr.strip()}")
        self.records = [os.path.join(recdir, f) for f in sorted(os.listdir(recdir))]
        loaded = []
        for path in self.records:
            with open(path, encoding="utf-8") as fp:
                loaded.append(json.load(fp))
        self.input_digest = checks.record_digest(loaded)
        pos = neg = 0
        for record in loaded:
            p, n = checks.example_counts(record)
            pos += p
            neg += n
        self.given = pos + neg
        self.expected = (pos * LEARN_BOOST, neg)
        self.examples = os.path.join(self.workdir, "train.examples")
        self.model = os.path.join(self.workdir, "model.bin")

    def probe_args(self) -> list[str]:
        return ["records", *self.records]

    def run_pass(self) -> PassResult:
        steps = [
            ["extract", *self.records, "-o", self.examples,
             "--boost", str(LEARN_BOOST)],
            ["train", self.examples, "-o", self.model],
            ["eval", self.model, self.examples],
        ]
        times = []
        outputs = []
        errors = []
        failed = 0
        start = time.perf_counter()
        for argv in steps:
            rc, out, dt = run_cli(argv)
            times.append(dt)
            outputs.append(out)
            if rc != 0:
                errors.append(f"{argv[0]} exited {rc}")
                failed += 1
                break
        wall = time.perf_counter() - start
        result = PassResult(
            wall=wall, attempt_times=times, given=self.given,
            rate=self.given / wall, failed=failed, errors=errors,
            digests={"inputs": self.input_digest})
        if failed:
            return result
        want = (self.expected[0] + self.expected[1], *self.expected)
        for step, out in (("extract", outputs[0]), ("eval", outputs[2])):
            m = _COUNTS_RE.search(out)
            got = tuple(int(g) for g in m.groups()) if m else None
            if got != want:
                errors.append(f"{step} reported (total, positive, negative) "
                              f"examples {got}, expected {want}")
        accuracy = _ACCURACY_RE.search(outputs[2])
        recall = _RECALL_RE.search(outputs[2])
        if accuracy is None or recall is None:
            errors.append(f"eval printed no accuracy: {outputs[2].strip()!r}")
        else:
            result.train_accuracy = float(accuracy.group(1))
            result.pos_recall = float(recall.group(1))
            if not 0.0 < result.train_accuracy <= 1.0:
                errors.append(f"accuracy {result.train_accuracy} out of range")
        result.digests["examples"] = checks.file_digest([self.examples])
        result.digests["model"] = checks.file_digest([self.model])
        return result


WORKLOADS = {w.name: w for w in (FixtureLoop, HardProve, Learn)}


if __name__ == "__main__":
    # python3 workloads.py prepare-learn <src> <manifest> <outdir> <grid json>
    if len(sys.argv) != 6 or sys.argv[1] != "prepare-learn":
        sys.exit("usage: workloads.py prepare-learn SRC MANIFEST OUTDIR GRID_JSON")
    prepare_learn_records(*sys.argv[2:5], *json.loads(sys.argv[5]))
