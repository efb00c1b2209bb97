"""Linear clause classifier: L2-regularized squared-hinge SVM.

The trainer minimizes  (1/2) w'w + c * sum_i max(1 - y_i w'x_i, 0)^2  by
coordinate descent on the dual, where each alpha_i has the diagonal term
D = 1/(2c) added and no upper bound.  A clause is classified positive iff
w'x > 0, strictly; ties fall to negative.  There is no bias term.

Training runs in plain Python floats and sums each dot product in entry
order, so the weights do not depend on the BLAS build.  Defaults for c,
the stopping tolerance, and the epoch cap are this implementation's own
choices and are exposed as flags.
"""

from __future__ import annotations

import io
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .clauses import (
    DEFAULT_SKOLEM_PREFIXES, Clause, FrozenSignature, Signature, Symbol,
)
from .features import FormatError, SparseVector, clause_features, vectorize

POS = "pos"
NEG = "neg"

MODEL_FORMAT = "linear-clause-model v1"

# |pg| below this is treated as zero, as in standard coordinate descent
# implementations, to avoid chasing rounding noise.
_PG_FLOOR = 1e-12


class EmptyClass(Exception):
    """Training requires at least one example of each class."""


class NonFinite(Exception):
    """The optimization produced non-finite values (bad input scaling)."""


@dataclass
class SolverConfig:
    c: float = 1.0
    tolerance: float = 1e-3
    max_epochs: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("penalty c must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")


@dataclass
class SolverInfo:
    epochs: int
    final_violation: float
    converged: bool
    # dual objective (maximization form) after each epoch, starting at 0.0
    dual_objectives: list[float] = field(default_factory=list)


@dataclass(eq=False)
class Model:
    # the nonzero weights, keyed by feature index in [1, signature.dimension]
    w: dict[int, float]
    signature: FrozenSignature
    c: float
    epochs: int
    final_violation: float
    seed: int


def solve_l2svm(vectors, labels, dimension: int,
                cfg: SolverConfig) -> tuple[np.ndarray, SolverInfo]:
    """Dual coordinate descent on raw vectors; returns the weight vector.

    Stops when the largest projected-gradient violation seen in an epoch
    drops below the tolerance, or after ``max_epochs`` epochs.  Example
    order is reshuffled each epoch from the configured seed.
    """
    n = len(vectors)
    d_diag = 1.0 / (2.0 * cfg.c)
    qdiag = [sum(v * v for _, v in vec) + d_diag for vec in vectors]
    for k, q in enumerate(qdiag):
        if not math.isfinite(q):
            raise NonFinite(f"example {k} has non-finite or overflowing "
                            "feature values; rescale the input")
    y = [float(label) for label in labels]

    w = [0.0] * (dimension + 1)  # 1-based like the entries; w[0] stays 0
    alpha = [0.0] * n
    rng = np.random.default_rng(cfg.seed)
    duals = [0.0]
    converged = False
    violation = float("inf")
    epochs = 0
    for _ in range(cfg.max_epochs):
        violation = 0.0
        for i in rng.permutation(n).tolist():
            entries = vectors[i]
            dot = 0.0
            for j, v in entries:
                dot += w[j] * v
            old = alpha[i]
            g = y[i] * dot - 1.0 + d_diag * old
            pg = min(g, 0.0) if old == 0.0 else g
            if abs(pg) > violation:
                violation = abs(pg)
            if abs(pg) > _PG_FLOOR:
                new = old - g / qdiag[i]
                if new < 0.0:
                    new = 0.0
                alpha[i] = new
                if new != old:
                    step = (new - old) * y[i]
                    for j, v in entries:
                        w[j] += step * v
        epochs += 1
        w_arr, a_arr = np.array(w[1:]), np.array(alpha)
        duals.append(float(a_arr.sum()) - 0.5 * float(w_arr @ w_arr)
                     - 0.5 * d_diag * float(a_arr @ a_arr))
        if not np.isfinite(duals[-1]):
            raise NonFinite("dual objective diverged; rescale the input")
        if violation < cfg.tolerance:
            converged = True
            break
    w_arr = np.array(w[1:])
    if not np.isfinite(w_arr).all():
        raise NonFinite("weight vector contains non-finite values")
    return w_arr, SolverInfo(epochs, float(violation), converged, duals)


def train_vectors(rows, frozen: FrozenSignature,
                  cfg: SolverConfig | None = None) -> Model:
    """Train on ``(vector, label)`` rows; every training entry point ends
    here, so each refuses rows that lack a label.

    Solves over the features that occur, renumbered 1..m in index order:
    coordinate descent never moves an untouched coordinate, so the weights
    are those of the full feature space, bit for bit."""
    cfg = cfg or SolverConfig()
    labels = [label for _, label in rows]
    if 1 not in labels or -1 not in labels:
        raise EmptyClass("empty class: need at least one example of each label")
    features = sorted({i for vec, _ in rows for i, _ in vec})
    compact = {i: k for k, i in enumerate(features, start=1)}
    vectors = [tuple((compact[i], v) for i, v in vec) for vec, _ in rows]
    w, info = solve_l2svm(vectors, labels, len(features), cfg)
    if not info.converged:
        logging.getLogger("satguide").warning(
            "SVM training stopped at max_epochs=%d without converging "
            "(final violation %.2e)", info.epochs, info.final_violation)
    weights = {features[k]: float(w[k]) for k in np.nonzero(w)[0]}
    return Model(weights, frozen, cfg.c, info.epochs, info.final_violation,
                 cfg.seed)


def score_vector(model: Model, vec: SparseVector) -> float:
    w = model.w
    total = 0.0
    for i, v in vec:
        total += w.get(i, 0.0) * v
    return float(total)


def predict_vector(model: Model, vec: SparseVector) -> str:
    return POS if score_vector(model, vec) > 0.0 else NEG


def predict(clause: Clause, model: Model, sig: Signature,
            stats: dict | None = None) -> str:
    """Classify a clause: positive iff w'x > 0 (strict), else negative."""
    vec = vectorize(clause_features(clause, sig), model.signature, stats)
    return predict_vector(model, vec)


@dataclass
class AccuracyReport:
    accuracy: float
    positive_recall: float | None
    negative_recall: float | None
    positives: int
    negatives: int


def accuracy(model: Model, rows) -> AccuracyReport:
    """Fraction classified correctly, plus per-class recall.

    A recall is None when the example set has no examples of that class.
    """
    correct = 0
    pos_total = pos_correct = 0
    neg_total = neg_correct = 0
    for vec, label in rows:
        got = predict_vector(model, vec)
        hit = (got == POS) == (label > 0)
        correct += hit
        if label > 0:
            pos_total += 1
            pos_correct += hit
        else:
            neg_total += 1
            neg_correct += hit
    n = len(rows)
    return AccuracyReport(
        accuracy=correct / n if n else 0.0,
        positive_recall=pos_correct / pos_total if pos_total else None,
        negative_recall=neg_correct / neg_total if neg_total else None,
        positives=pos_total,
        negatives=neg_total,
    )


def _write_symbol_table(fp, frozen: FrozenSignature) -> None:
    """The signature block shared by model files and ``.sig`` files."""
    fp.write(f"skolem-prefixes {json.dumps(list(frozen.skolem_prefixes))}\n")
    fp.write(f"symbols {frozen.size}\n")
    for sym in frozen.symbols:
        fp.write(f"{sym.id} {sym.name} {sym.arity} {sym.kind}\n")


def _read_symbol_table(fp, path: str) -> FrozenSignature:
    """Inverse of :func:`_write_symbol_table`.

    Files written before the Skolem prefixes were recorded have no
    ``skolem-prefixes`` line and read with the default prefixes.
    """
    line = _read_line(fp, path)
    prefixes = DEFAULT_SKOLEM_PREFIXES
    if line.startswith("skolem-prefixes "):
        prefixes = json.loads(_header_value(line, "skolem-prefixes", path))
        if not isinstance(prefixes, list) \
                or not all(isinstance(p, str) for p in prefixes):
            raise FormatError(f"{path}: bad Skolem prefixes {line!r}")
        line = _read_line(fp, path)
    n_symbols = int(_header_value(line, "symbols", path))
    symbols = []
    for _ in range(n_symbols):
        cells = _read_line(fp, path).split()
        if len(cells) != 4:
            raise FormatError(f"{path}: bad symbol row {cells!r}")
        symbols.append(Symbol(int(cells[0]), cells[1], int(cells[2]), cells[3]))
        if symbols[-1].id != len(symbols) - 1:
            raise FormatError(f"{path}: symbol ids must be dense")
    return FrozenSignature(tuple(symbols), tuple(prefixes))


def save_signature(frozen: FrozenSignature, path: str) -> None:
    """Write a ``.sig`` file: the symbol table alone."""
    with open(path, "w", encoding="utf-8") as fp:
        _write_symbol_table(fp, frozen)


def load_signature(path: str) -> FrozenSignature:
    """Inverse of :func:`save_signature`; raises FormatError on corrupt files."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return _read_symbol_table(fp, path)
    except ValueError as exc:
        raise FormatError(f"{path}: corrupt signature file ({exc})") from exc


def save_model(model: Model, path: str) -> None:
    """Text serialization: header, symbol table, sparse nonzero weights."""
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(MODEL_FORMAT + "\n")
        fp.write(f"dimension {model.signature.dimension}\n")
        fp.write(f"c {model.c!r}\n")
        fp.write(f"epochs {model.epochs}\n")
        fp.write(f"violation {model.final_violation!r}\n")
        fp.write(f"seed {model.seed}\n")
        _write_symbol_table(fp, model.signature)
        fp.write(f"weights {len(model.w)}\n")
        for index, value in sorted(model.w.items()):
            fp.write(f"{index} {value!r}\n")
        fp.write("end\n")


def _header_value(line: str, key: str, path: str) -> str:
    parts = line.split(maxsplit=1)
    if len(parts) != 2 or parts[0] != key:
        raise FormatError(f"{path}: expected '{key} ...', found {line!r}")
    return parts[1]


def load_model(path: str) -> Model:
    """Inverse of :func:`save_model`; raises FormatError on corrupt files."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return _parse_model(fp, path)
    except (EOFError, ValueError) as exc:
        raise FormatError(f"{path}: corrupt model file ({exc})") from exc


def _read_line(fp, path: str) -> str:
    line = fp.readline()
    if not line:
        raise FormatError(f"{path}: truncated file")
    return line.rstrip("\n")


def _parse_model(fp: io.TextIOBase, path: str) -> Model:
    if _read_line(fp, path) != MODEL_FORMAT:
        raise FormatError(f"{path}: not a model file")
    dimension = int(_header_value(_read_line(fp, path), "dimension", path))
    c = float(_header_value(_read_line(fp, path), "c", path))
    epochs = int(_header_value(_read_line(fp, path), "epochs", path))
    violation = float(_header_value(_read_line(fp, path), "violation", path))
    seed = int(_header_value(_read_line(fp, path), "seed", path))
    frozen = _read_symbol_table(fp, path)
    if frozen.dimension != dimension:
        raise FormatError(
            f"{path}: dimension {dimension} does not match signature "
            f"({frozen.dimension} expected)")
    nnz = int(_header_value(_read_line(fp, path), "weights", path))
    w = {}
    last = 0
    for _ in range(nnz):
        cells = _read_line(fp, path).split()
        if len(cells) != 2:
            raise FormatError(f"{path}: bad weight row {cells!r}")
        index = int(cells[0])
        if not last < index <= dimension:
            raise FormatError(f"{path}: weight index {index} out of range "
                              "or not strictly increasing")
        w[index] = float(cells[1])
        last = index
    if _read_line(fp, path) != "end":
        raise FormatError(f"{path}: missing end marker")
    if not np.isfinite(list(w.values())).all():
        raise FormatError(f"{path}: non-finite weights")
    return Model(w, frozen, c, epochs, violation, seed)
