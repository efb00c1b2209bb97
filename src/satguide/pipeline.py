"""Training pipeline: example extraction, boosting, grids, cover, retrain loop.

Given clauses from a successful proof search split into positives (those in
the ancestry of the empty clause) and negatives (the rest).  Examples pooled
across problems train a classifier; a grid of strategies built around the
classifier is evaluated on the corpus; a greedy cover picks the strategies
whose proofs feed the next round.  Proofs accumulate across rounds, so the
training set only grows.

A corpus run hands out one task per problem, serially or in a process
pool.  The task reads the problem with ``read_problem``, once, into a fresh
signature; all strategies share that parse and one content memo, a model
maps the problem's symbols into its own table by name, and each record is
the one an independent search would make.  A problem that cannot be read
(OSError) or parsed (ParseError), or whose search raises, is logged and
counted as unsolved, and the run carries on.  Records carry clause text,
which :func:`pool_examples`, the one extractor, re-reads under the
trainer's signature; an example is a clause's literal tuple.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field

from .clauses import Signature, SymbolMap
from .features import clause_features, vectorize
from .guidance import Strategy, baseline_strategy, learned_cef
from .saturation import (
    ContentMemo, Limits, OUTCOME_PROOF, ProofSearchRecord, prove,
)
from .svm import Model, SolverConfig, accuracy, train_vectors
from .tptp import ParseError, parse_clause_text, read_problem

log = logging.getLogger("satguide")

MODEL_ALONE = "inf"
BASE_ALONE = "0"


class NoProof(ValueError):
    """Example extraction needs a record whose outcome is proof_found; a
    ValueError, as a malformed record is."""


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
        if len(set(self.frequencies)) < len(self.frequencies):
            raise ValueError("frequencies must not repeat")
        # a row key holds a gamma's %g form, so gammas that print alike collide
        keys = [f"g{gamma:g}" for gamma in self.gammas]
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise ValueError(f"gammas {self.gammas[keys.index(key)]!r} and "
                                 f"{self.gammas[i]!r} share the row key {key}")


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
        try:
            lines = fp.readlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
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


def pool_examples(records, sig: Signature) -> tuple[list, list]:
    """Split the given clauses of proof records into proof members
    (``positives``) and the rest (``negatives``), literal tuples in record
    and given-clause order; a single record is ``pool_examples([record],
    sig)``.

    Labels are pooled as-is: a clause can be positive in one search and
    negative in another, and both examples are kept.  Each distinct clause
    text is parsed once, so its copies share one literal tuple.  A record
    that is not a proof is a :class:`NoProof`; a text that does not parse,
    or that uses a symbol at another arity than ``sig`` holds, is a
    ValueError naming the clause id.
    """
    positives = []
    negatives = []
    parsed: dict = {}
    for record in records:
        if record.outcome != OUTCOME_PROOF:
            raise NoProof(f"record for {record.problem!r} has outcome "
                          f"{record.outcome}")
        ancestors = ancestor_ids(record)
        for cid in record.given_sequence:
            text = record.clause_texts[cid]
            literals = parsed.get(text)
            if literals is None:
                try:
                    literals = parsed[text] = parse_clause_text(
                        text, sig, f"clause {cid}")
                except ParseError as exc:
                    raise ValueError(str(exc)) from exc
            if cid in ancestors:
                positives.append(literals)
            else:
                negatives.append(literals)
    return positives, negatives


def boost_rows(rows: list, k: int) -> list:
    """Repeat every positive ``(vector, label)`` row ``k`` times, then the
    negative rows, in their order."""
    if k < 1:
        raise ValueError("boost factor must be >= 1")
    positives = [row for row in rows if row[1] > 0]
    negatives = [row for row in rows if row[1] < 0]
    return positives * k + negatives


def training_set(examples: tuple[list, list],
                 sig: Signature) -> list:
    """``(vector, label)`` rows: positives labelled +1, then negatives -1,
    vectorized against the signature's current snapshot, through the map of
    the signature into it.  Each distinct literal tuple is featurized
    once."""
    frozen = sig.freeze()
    symbols = SymbolMap(sig, frozen)
    vectors: dict = {}
    rows = []
    for clauses, label in zip(examples, (1, -1)):
        for clause in clauses:
            vec = vectors.get(clause)
            if vec is None:
                vec = vectors[clause] = vectorize(
                    clause_features(clause, symbols), frozen)
            rows.append((vec, label))
    return rows


def train_from_examples(examples: tuple[list, list],
                        sig: Signature,
                        cfg: SolverConfig | None = None) -> Model:
    """Train a clause classifier on ``(positives, negatives)``.

    Freezes the signature, so the model's feature space is fixed at the
    current symbol table.
    """
    return train_vectors(training_set(examples, sig), sig.freeze(), cfg)


def run_problem(problem: CorpusProblem, strategy: Strategy,
                limits: Limits) -> ProofSearchRecord:
    """Run one proof search with its own file read, fresh signature and
    private memo: the search :func:`run_corpus` must agree with."""
    sig = Signature()
    return prove(read_problem(problem.path, sig), strategy, limits, sig,
                 problem_id=problem.pid)


def _solve_problem(problem: CorpusProblem, strategies: dict[str, Strategy],
                   limits: Limits):
    """Run every strategy on one problem: ``(records by key, failure)``.

    The file is read and parsed once, into a fresh signature, and the
    searches share one :class:`ContentMemo`; their records equal those of
    independent :func:`run_problem` searches.  A file that cannot be read
    or parsed, or a search that raises, gives no records and a message
    naming the file.
    """
    sig = Signature()
    try:
        clauses = read_problem(problem.path, sig)
    except OSError as exc:
        return {}, f"{problem.path}: cannot read: {exc.strerror or exc}"
    except ParseError as exc:
        return {}, str(exc)  # names the path, and the line if it has one
    if not clauses:
        return {}, f"{problem.path}: no clauses found"
    memo = ContentMemo(sig)
    try:
        return {key: prove(clauses, strategy, limits, sig,
                           problem_id=problem.pid, memo=memo)
                for key, strategy in strategies.items()}, None
    except Exception as exc:  # a backstop: one search must not end the run
        log.debug("search of %s failed", problem.path, exc_info=True)
        return {}, (f"{problem.path}: search failed: "
                    f"{type(exc).__name__}: {exc}")


# set once per pool worker, so tasks need not carry the strategies
_POOL_STATE: dict = {}


def _pool_init(*args) -> None:
    _POOL_STATE["args"] = args


def _pool_run(problem: CorpusProblem):
    return _solve_problem(problem, *_POOL_STATE["args"])


def run_corpus(problems, strategies: dict[str, Strategy], limits: Limits,
               jobs: int = 1) -> dict[tuple[str, str], ProofSearchRecord]:
    """Run every (strategy, problem) pair, one problem per task, optionally
    in a process pool.

    A problem that cannot be read or parsed, or whose search raises, is
    logged as a warning and has no record, and the run carries on.
    """
    args = (strategies, limits)
    if jobs <= 1 or len(problems) <= 1:
        results = [_solve_problem(problem, *args) for problem in problems]
    else:
        # imported here: a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # a forking pool starts all its workers up front
        with ProcessPoolExecutor(max_workers=min(jobs, len(problems)),
                                 initializer=_pool_init,
                                 initargs=args) as pool:
            results = list(pool.map(_pool_run, problems))
    for _, failure in results:
        if failure is not None:
            log.warning("%s; counted as unsolved", failure)
    return {(key, problem.pid): records[key]
            for key in strategies
            for problem, (records, _) in zip(problems, results)
            if key in records}


@dataclass
class StrategyResult:
    key: str
    strategy: Strategy
    solved: set[str] = field(default_factory=set)
    processed: dict[str, int] = field(default_factory=dict)
    records: dict[str, ProofSearchRecord] = field(default_factory=dict)


@dataclass
class GridResult:
    rows: list[StrategyResult]
    grid: GridSpec


def grid_strategies(model: Model, base: Strategy, grid: GridSpec,
                    model_path: str = "<memory>") -> list[StrategyResult]:
    """The strategy rows of a grid, in their canonical (tie-break) order.

    Key "0" is the base strategy alone; "finf:g<gamma>" is the learned CEF
    alone; "f<f>:g<gamma>" adds the learned CEF to the base entries with
    frequency f.
    """
    rows = [StrategyResult(BASE_ALONE, base)]
    for gamma in grid.gammas:
        cef = learned_cef(model, gamma, model_path)
        for freq in grid.frequencies:
            rows.append(StrategyResult(f"f{freq}:g{gamma:g}",
                                       Strategy(base.entries + ((freq, cef),))))
        rows.append(StrategyResult(f"f{MODEL_ALONE}:g{gamma:g}",
                                   Strategy(((1, cef),))))
    return rows


def run_grid(problems, model: Model, base: Strategy, grid: GridSpec,
             limits: Limits, jobs: int = 1,
             model_path: str = "<memory>") -> GridResult:
    """Run the whole strategy grid over the corpus and tabulate solves."""
    rows = grid_strategies(model, base, grid, model_path)
    run_rows(problems, rows, limits, jobs)
    return GridResult(rows, grid)


def run_rows(problems, rows: list[StrategyResult], limits: Limits,
             jobs: int = 1) -> None:
    """Run every row's strategy over the corpus and tally it in the row."""
    records = run_corpus(problems, {row.key: row.strategy for row in rows},
                         limits, jobs)
    for row in rows:
        for problem in problems:
            record = records.get((row.key, problem.pid))
            if record is None:  # the problem could not be read or parsed
                continue
            row.processed[problem.pid] = record.stats["processed"]
            if record.outcome == OUTCOME_PROOF:
                row.solved.add(problem.pid)
                row.records[problem.pid] = record
        log.info("grid %s: solved %d/%d", row.key, len(row.solved), len(problems))


def grid_table(result: GridResult, csv: bool = False) -> str:
    r"""Solved counts, a line per gamma and a column per frequency: column f
    of gamma g's line counts row ``f<f>:g<g>``, and column "0" row ``0``.
    Tab-separated with ``\n`` ends, or CSV with ``\r\n`` ends."""
    sep, end = (",", "\r\n") if csv else ("\t", "\n")
    solved = {row.key: str(len(row.solved)) for row in result.rows}
    columns = [str(f) for f in result.grid.frequencies] + [MODEL_ALONE]
    lines = [["gamma", BASE_ALONE] + columns]
    for gamma in result.grid.gammas:
        lines.append([f"{gamma:g}", solved[BASE_ALONE]]
                     + [solved[f"f{col}:g{gamma:g}"] for col in columns])
    return "".join(sep.join(line) + end for line in lines)


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
    """One round's tally; the training figures stay unset if it trains nothing."""
    round: int
    solved: set[str]
    new_solved: set[str]
    cover: list[str]
    grid_csv: str = ""
    n_positive: int = 0
    n_negative: int = 0
    accuracy: float = 0.0
    positive_recall: float | None = None
    negative_recall: float | None = None


@dataclass
class LoopReport:
    rounds: list[RoundReport]
    models: list[Model]
    stalled: bool = False


def loop(problems, base: Strategy | None, rounds: int, grid: GridSpec,
         boost_k: int = 1, limits: Limits | None = None,
         cfg: SolverConfig | None = None, jobs: int = 1) -> LoopReport:
    """Solve with the base strategy, then retrain and re-grid per round.

    Round 0 runs the base strategy alone, later rounds the grid around the
    previous model.  Each round adds its greedy cover's proof records, in
    cover order, to a union keyed by problem and strategy, so training
    data never shrinks, and then trains; a round that adds no record ends
    the loop early.
    """
    base = base or baseline_strategy()
    limits = limits or Limits()
    cfg = cfg or SolverConfig()
    if rounds < 1:
        raise ValueError("rounds must be >= 1")

    proof_records: dict[tuple[str, str], ProofSearchRecord] = {}
    solved_total: set[str] = set()
    report = LoopReport(rounds=[], models=[])
    for round_no in range(rounds + 1):
        if round_no == 0:
            rows = [StrategyResult(BASE_ALONE, base)]
            run_rows(problems, rows, limits, jobs)
            grid_csv = ""
        else:
            result = run_grid(problems, model, base, grid, limits, jobs,
                              model_path=f"<round{round_no - 1}>")
            rows = result.rows
            grid_csv = grid_table(result, csv=True)
        cover = greedy_cover((row.key, row.solved) for row in rows)
        by_key = {row.key: row for row in rows}
        added = 0
        new_solved: set[str] = set()
        for key in cover:
            for pid, record in by_key[key].records.items():
                if (key, pid) not in proof_records:
                    proof_records[(key, pid)] = record
                    added += 1
                new_solved.add(pid)
        new_solved -= solved_total
        solved_total |= new_solved
        this_round = RoundReport(round_no, set(solved_total), new_solved,
                                 cover, grid_csv)
        report.rounds.append(this_round)
        # round 0 has no proofs only when the base solves nothing; then
        # there is nothing to train on, which is not a stall
        if round_no and not added:
            log.info("round %d: no new proofs, stopping early", round_no)
            report.stalled = True
            break
        sig = Signature()
        positives, negatives = pool_examples(proof_records.values(), sig)
        if not positives or not negatives:
            log.warning("round %d: not enough examples to train", round_no)
            break
        # featurized once: the model trains on the boosted rows and is
        # scored on the unboosted ones
        examples = training_set((positives, negatives), sig)
        model = train_vectors(boost_rows(examples, boost_k), sig.freeze(), cfg)
        acc = accuracy(model, examples)
        this_round.n_positive = boost_k * len(positives)
        this_round.n_negative = len(negatives)
        this_round.accuracy = acc.accuracy
        this_round.positive_recall = acc.positive_recall
        this_round.negative_recall = acc.negative_recall
        report.models.append(model)
    return report
