"""Training pipeline: example extraction, boosting, grids, cover, retrain loop.

Given clauses from a successful proof search split into positives (those in
the ancestry of the empty clause) and negatives (the rest).  Examples pooled
across problems train a classifier; a grid of strategies built around the
classifier is evaluated on the corpus; a greedy cover picks the strategies
whose proofs feed the next round.  Proofs accumulate across rounds, so the
training set only grows.

Each problem is parsed into its own signature (seeded from the model's
snapshot when a learned CEF is in play), so corpus runs are independent and
can execute in a process pool; records carry clause text and are re-read
under the trainer's signature when examples are collected.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .clauses import Clause, Signature
from .features import clause_features, vectorize
from .guidance import Strategy, baseline_strategy, learned_cef
from .saturation import Limits, OUTCOME_PROOF, ProofSearchRecord, prove
from .svm import Model, SolverConfig, accuracy, train_vectors
from .tptp import parse_problem

log = logging.getLogger("satguide")

MODEL_ALONE = "inf"
BASE_ALONE = "0"


class NoProof(Exception):
    """Example extraction needs a record whose outcome is proof_found."""


@dataclass
class GridSpec:
    gammas: list[float]
    frequencies: list[int]

    def __post_init__(self):
        if not self.gammas or not self.frequencies:
            raise ValueError("grid needs at least one gamma and one frequency")
        if not all(0 <= gamma < math.inf for gamma in self.gammas):
            raise ValueError("gammas must be finite and nonnegative")
        if any(freq < 1 for freq in self.frequencies):
            raise ValueError("frequencies must be >= 1")


@dataclass
class CorpusProblem:
    pid: str
    path: str


def load_manifest(path: str) -> list[CorpusProblem]:
    """Read a corpus manifest: one ``<id> <path>`` pair per line.

    Relative problem paths are resolved against the manifest's directory.
    Ids must be unique: corpus runs key their records by id.
    """
    base = os.path.dirname(os.path.abspath(path))
    problems = []
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split()
            if len(cells) != 2:
                raise ValueError(f"{path}:{lineno}: expected '<id> <path>'")
            pid, ppath = cells
            if pid in first_line:
                raise ValueError(f"{path}:{lineno}: problem id {pid!r} "
                                 f"repeats line {first_line[pid]}")
            first_line[pid] = lineno
            if not os.path.isabs(ppath):
                ppath = os.path.join(base, ppath)
            problems.append(CorpusProblem(pid, ppath))
    return problems


def ancestor_ids(record: ProofSearchRecord) -> set[int]:
    """Ids reachable backwards from the empty clause through the DAG."""
    if record.empty_clause is None:
        return set()
    seen = {record.empty_clause}
    stack = [record.empty_clause]
    while stack:
        for parent in record.dag[stack.pop()]:
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return seen


def extract_examples(record: ProofSearchRecord,
                     sig: Signature) -> tuple[list[Clause], list[Clause]]:
    """Split the record's given clauses into proof members and the rest."""
    if record.outcome != OUTCOME_PROOF:
        raise NoProof(f"record for {record.problem!r} has outcome {record.outcome}")
    ancestors = ancestor_ids(record)
    positives = []
    negatives = []
    for cid in record.given_sequence:
        clause = record.clause(cid, sig)
        if cid in ancestors:
            positives.append(clause)
        else:
            negatives.append(clause)
    return positives, negatives


def pool_examples(records,
                  sig: Signature) -> tuple[list[Clause], list[Clause]]:
    """Extract and pool ``(positives, negatives)`` from many proof records.

    Labels are pooled as-is: a clause can be positive in one search and
    negative in another, and both examples are kept.
    """
    positives: list[Clause] = []
    negatives: list[Clause] = []
    for record in records:
        pos, neg = extract_examples(record, sig)
        positives.extend(pos)
        negatives.extend(neg)
    return positives, negatives


def boost_rows(rows: list, k: int) -> list:
    """Repeat every positive ``(vector, label)`` row ``k`` times, then the
    negative rows, in their order."""
    if k < 1:
        raise ValueError("boost factor must be >= 1")
    positives = [row for row in rows if row[1] > 0]
    negatives = [row for row in rows if row[1] < 0]
    return positives * k + negatives


def training_set(examples: tuple[list[Clause], list[Clause]],
                 sig: Signature) -> list:
    """``(vector, label)`` rows: positives labelled +1, then negatives -1,
    vectorized against the signature's current snapshot."""
    frozen = sig.freeze()
    return [(vectorize(clause_features(clause, sig), frozen), label)
            for clauses, label in zip(examples, (1, -1))
            for clause in clauses]


def train_from_examples(examples: tuple[list[Clause], list[Clause]],
                        sig: Signature,
                        cfg: SolverConfig | None = None) -> Model:
    """Train a clause classifier on ``(positives, negatives)``.

    Freezes the signature, so the model's feature space is fixed at the
    current symbol table.
    """
    return train_vectors(training_set(examples, sig), sig.freeze(), cfg)


def signature_for_strategy(strategy: Strategy) -> Signature:
    frozen = None
    for _, cef in strategy.entries:
        if cef.model is not None:
            snap = cef.model.signature
            if frozen is not None and snap is not frozen:
                raise ValueError("strategies may reference only one model")
            frozen = snap
    if frozen is None:
        return Signature()
    return Signature.from_frozen(frozen)


def run_problem(problem: CorpusProblem, strategy: Strategy,
                limits: Limits) -> ProofSearchRecord:
    """Run one proof search; the problem gets a fresh signature."""
    sig = signature_for_strategy(strategy)
    with open(problem.path, "r", encoding="utf-8") as fp:
        clauses = parse_problem(fp.read(), sig, problem.path)
    return prove(clauses, strategy, limits, sig, problem_id=problem.pid)


# set once per pool worker, so tasks need not carry the strategies
_POOL_STATE: dict = {}


def _pool_init(strategies: dict, limits: Limits) -> None:
    _POOL_STATE["strategies"] = strategies
    _POOL_STATE["limits"] = limits


def _pool_run(task: tuple[str, str, str]) -> tuple[str, str, ProofSearchRecord]:
    key, pid, path = task
    record = run_problem(CorpusProblem(pid, path),
                         _POOL_STATE["strategies"][key], _POOL_STATE["limits"])
    return key, pid, record


def run_corpus(problems, strategies: dict[str, Strategy], limits: Limits,
               jobs: int = 1) -> dict[tuple[str, str], ProofSearchRecord]:
    """Run every (strategy, problem) pair, optionally in a process pool."""
    tasks = [(key, p.pid, p.path) for key in strategies for p in problems]
    if jobs <= 1 or len(tasks) <= 1:
        return {(key, pid): run_problem(CorpusProblem(pid, path),
                                        strategies[key], limits)
                for key, pid, path in tasks}
    with ProcessPoolExecutor(max_workers=jobs, initializer=_pool_init,
                             initargs=(strategies, limits)) as pool:
        return {(key, pid): record
                for key, pid, record in pool.map(_pool_run, tasks)}


@dataclass
class StrategyResult:
    key: str
    gamma: float | None
    frequency: str
    strategy: Strategy
    solved: set[str] = field(default_factory=set)
    processed: dict[str, int] = field(default_factory=dict)
    records: dict[str, ProofSearchRecord] = field(default_factory=dict)


@dataclass
class GridResult:
    rows: list[StrategyResult]
    gammas: list[float]
    frequencies: list[int]

    def by_key(self, key: str) -> StrategyResult:
        for row in self.rows:
            if row.key == key:
                return row
        raise KeyError(key)


def grid_strategies(model: Model, base: Strategy, grid: GridSpec,
                    model_path: str = "<memory>") -> list[StrategyResult]:
    """The strategy rows of a grid, in their canonical (tie-break) order.

    Frequency "0" is the base strategy alone; "inf" is the learned CEF
    alone; frequency f adds the learned CEF to the base entries with
    frequency f.
    """
    rows = [StrategyResult(BASE_ALONE, None, BASE_ALONE, base)]
    for gamma in grid.gammas:
        cef = learned_cef(model, gamma, model_path)
        for freq in grid.frequencies:
            strategy = Strategy(base.entries + ((freq, cef),))
            rows.append(StrategyResult(f"f{freq}:g{gamma:g}", gamma,
                                       str(freq), strategy))
        rows.append(StrategyResult(f"finf:g{gamma:g}", gamma,
                                   MODEL_ALONE, Strategy(((1, cef),))))
    return rows


def run_grid(problems, model: Model, base: Strategy, grid: GridSpec,
             limits: Limits, jobs: int = 1,
             model_path: str = "<memory>") -> GridResult:
    """Run the whole strategy grid over the corpus and tabulate solves."""
    rows = grid_strategies(model, base, grid, model_path)
    strategies = {row.key: row.strategy for row in rows}
    records = run_corpus(problems, strategies, limits, jobs)
    for row in rows:
        for problem in problems:
            record = records[(row.key, problem.pid)]
            row.processed[problem.pid] = record.stats["processed"]
            if record.outcome == OUTCOME_PROOF:
                row.solved.add(problem.pid)
                row.records[problem.pid] = record
        log.info("grid %s: solved %d/%d", row.key, len(row.solved), len(problems))
    return GridResult(rows, list(grid.gammas), list(grid.frequencies))


def _grid_rows(result: GridResult) -> list[list[str]]:
    """Header plus one row per gamma of solved counts; the base strategy's
    count fills every row's "0" column."""
    columns = [BASE_ALONE] + [str(f) for f in result.frequencies] + [MODEL_ALONE]
    cells = {(f"{row.gamma:g}", row.frequency): str(len(row.solved))
             for row in result.rows if row.gamma is not None}
    base_cell = str(len(result.by_key(BASE_ALONE).solved))
    rows = [["gamma"] + columns]
    for gamma in result.gammas:
        key = f"{gamma:g}"
        rows.append([key, base_cell] + [cells[(key, col)] for col in columns[1:]])
    return rows


def grid_table_csv(result: GridResult) -> str:
    """Solved counts as CSV: one row per gamma, one column per frequency."""
    out = io.StringIO()
    csv.writer(out).writerows(_grid_rows(result))
    return out.getvalue()


def grid_table_text(result: GridResult) -> str:
    return "".join("\t".join(row) + "\n" for row in _grid_rows(result))


def greedy_cover(items) -> list:
    """Greedy set cover over (key, solved-set) pairs.

    Repeatedly picks the item covering the most still-uncovered elements;
    ties go to the earlier item.  Covers exactly the union of all sets.
    """
    remaining = set()
    pairs = [(key, frozenset(solved)) for key, solved in items]
    for _, solved in pairs:
        remaining |= solved
    chosen = []
    while remaining:
        best = None
        best_gain = 0
        for key, solved in pairs:
            gain = len(solved & remaining)
            if gain > best_gain:
                best, best_gain = (key, solved), gain
        chosen.append(best[0])
        remaining -= best[1]
    return chosen


@dataclass
class RoundReport:
    round: int
    solved: set[str]
    new_solved: set[str]
    cover: list[str]
    n_positive: int
    n_negative: int
    accuracy: float
    positive_recall: float | None
    negative_recall: float | None
    grid_csv: str = ""


@dataclass
class LoopReport:
    rounds: list[RoundReport]
    models: list[Model]
    stalled: bool = False


def loop(problems, base: Strategy | None, rounds: int, grid: GridSpec,
         boost_k: int = 1, limits: Limits | None = None,
         cfg: SolverConfig | None = None, jobs: int = 1) -> LoopReport:
    """Solve with the base strategy, then retrain and re-grid per round.

    Proof records accumulate across rounds (cumulative union keyed by
    problem and strategy), so training data never shrinks.  A round that
    contributes no new proof record ends the loop early.
    """
    base = base or baseline_strategy()
    limits = limits or Limits()
    cfg = cfg or SolverConfig()
    if rounds < 1:
        raise ValueError("rounds must be >= 1")

    proof_records: dict[tuple[str, str], ProofSearchRecord] = {}
    report = LoopReport(rounds=[], models=[])

    base_records = run_corpus(problems, {BASE_ALONE: base}, limits, jobs)
    solved_total: set[str] = set()
    for (key, pid), record in base_records.items():
        if record.outcome == OUTCOME_PROOF:
            proof_records[(key, pid)] = record
            solved_total.add(pid)

    def train_round(round_no: int, cover_keys: list[str],
                    new_solved: set[str], grid_csv: str) -> Model | None:
        sig = Signature()
        positives, negatives = pool_examples(proof_records.values(), sig)
        if not positives or not negatives:
            log.warning("round %d: not enough examples to train", round_no)
            return None
        # featurized once: the model trains on the boosted rows and is
        # scored on the unboosted ones
        rows = training_set((positives, negatives), sig)
        model = train_vectors(boost_rows(rows, boost_k), sig.freeze(), cfg)
        acc = accuracy(model, rows)
        report.rounds.append(RoundReport(
            round=round_no, solved=set(solved_total), new_solved=new_solved,
            cover=cover_keys, n_positive=boost_k * len(positives),
            n_negative=len(negatives), accuracy=acc.accuracy,
            positive_recall=acc.positive_recall,
            negative_recall=acc.negative_recall, grid_csv=grid_csv))
        report.models.append(model)
        return model

    model = train_round(0, [BASE_ALONE], set(solved_total), "")
    if model is None:
        return report

    for round_no in range(1, rounds + 1):
        result = run_grid(problems, model, base, grid, limits, jobs,
                          model_path=f"<round{round_no - 1}>")
        cover_keys = greedy_cover((row.key, row.solved) for row in result.rows)
        added = 0
        new_solved: set[str] = set()
        for key in cover_keys:
            row = result.by_key(key)
            for pid, record in row.records.items():
                if (key, pid) not in proof_records:
                    proof_records[(key, pid)] = record
                    added += 1
                new_solved.add(pid)
        new_solved -= solved_total
        solved_total |= new_solved
        csv_table = grid_table_csv(result)
        if added == 0:
            log.info("round %d: no new proofs, stopping early", round_no)
            report.stalled = True
            report.rounds.append(RoundReport(
                round=round_no, solved=set(solved_total), new_solved=set(),
                cover=cover_keys, n_positive=0, n_negative=0, accuracy=0.0,
                positive_recall=None, negative_recall=None,
                grid_csv=csv_table))
            break
        model = train_round(round_no, cover_keys, new_solved, csv_table)
        if model is None:
            break
    return report
