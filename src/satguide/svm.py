"""Linear clause classifier: L2-regularized squared-hinge SVM.

The trainer minimizes  (1/2) w'w + c * sum_i max(1 - y_i w'x_i, 0)^2  by
coordinate descent on the dual (Hsieh et al., ICML 2008), where each
alpha_i has the diagonal term D = 1/(2c) added and no upper bound.  A
clause is classified positive iff w'x > 0, strictly; ties fall to
negative.  There is no bias term.

Training data is mostly copies, so the solver works on distinct vectors:
- The k rows of one (vector, label) pair share one dual with
  D = 1/(2kc), LIBLINEAR's instance weights.  The primal optimum is that
  of the rows taken one by one.
- A vector that carries both labels has two heavy duals that form a
  nearly singular pair, so both move in one exact two-variable step.
- Vectors joined by no chain of shared features never change each
  other's gradients.  A group of heavy vectors coupled through shared
  features can need thousands of sweeps while the rest settles in a few,
  so after an epoch that has not converged, the groups that still hold a
  large violation are swept again on their own, with at most as many
  visits as there are rows.

Training runs in plain Python floats, shuffles with :mod:`random`, and
sums each dot product in entry order, so the weights do not depend on a
BLAS build, and the package does not need numpy.  Defaults for c, the
stopping tolerance, and the epoch cap are this implementation's own
choices and are exposed as flags.
"""

from __future__ import annotations

import io
import json
import logging
import math
import random
from dataclasses import dataclass, field

from .clauses import (
    DEFAULT_SKOLEM_PREFIXES, KIND_FUNCTION, KIND_PREDICATE, MARKERS,
    FrozenSignature, Literal, Symbol, SymbolMap,
)
from .features import FormatError, SparseVector, clause_features, vectorize

POS = "pos"
NEG = "neg"

MODEL_FORMAT = "linear-clause-model v1"

# |pg| below this is treated as zero, as in standard coordinate descent
# implementations, to avoid chasing rounding noise.
_PG_FLOOR = 1e-12

# After a full epoch that has not converged, the groups of vectors holding
# a violation of at least tolerance * _ACTIVE_FRACTION are swept again.
_ACTIVE_FRACTION = 0.1


class EmptyClass(Exception):
    """Training requires at least one example of each class."""


class NonFinite(Exception):
    """The optimization produced non-finite values (bad input scaling)."""


@dataclass(frozen=True)
class SolverConfig:
    c: float = 1.0
    tolerance: float = 1e-3
    max_epochs: int = 1000
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails too
        if not 0 < self.c < math.inf:
            raise ValueError(f"penalty c must be positive and finite, "
                             f"not {self.c}")
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, "
                             f"not {self.tolerance}")
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
    # None for a model file written before training recorded it
    converged: bool | None = None


def solve_l2svm(vectors, labels, dimension: int, cfg: SolverConfig):
    """Dual coordinate descent over the distinct vectors; returns the
    weight vector as a list of floats, with its :class:`SolverInfo`.

    Each epoch visits every distinct vector once, in an order reshuffled
    from the configured seed.  Stops when the largest projected-gradient
    violation seen in an epoch drops below the tolerance, or after
    ``max_epochs`` epochs.  An epoch that does not stop is followed by
    reshuffled sweeps over the groups of vectors (see :func:`_groups`)
    that hold a violation of at least ``tolerance * _ACTIVE_FRACTION``;
    they end when a sweep sees every violation in them below that, or
    when they have made as many visits as there are rows.
    """
    # one entry per distinct vector, in first-occurrence order: its
    # entries, x'x, and per label (+1, -1) the dual and its diagonal term
    index: dict = {}
    xs, qs, counts = [], [], []
    for k, (vec, label) in enumerate(zip(vectors, labels)):
        u = index.get(vec)
        if u is None:
            u = index[vec] = len(xs)
            q = sum(float(v) * float(v) for _, v in vec)
            if not math.isfinite(q):
                raise NonFinite(f"example {k} has non-finite or overflowing "
                                "feature values; rescale the input")
            xs.append(vec)
            qs.append(q)
            counts.append([0, 0])
        counts[u][label < 0] += 1
    # k copies of a (vector, label) pair share one dual with penalty k*c;
    # a label the vector never carries has D = 0 and its dual stays 0
    dp = [1.0 / (2.0 * kp * cfg.c) if kp else 0.0 for kp, _ in counts]
    dn = [1.0 / (2.0 * kn * cfg.c) if kn else 0.0 for _, kn in counts]
    ap = [0.0] * len(xs)
    an = [0.0] * len(xs)
    w = [0.0] * (dimension + 1)  # 1-based like the entries; w[0] stays 0

    def visit(u: int) -> float:
        """One exact step on the duals of vector ``u``; returns the
        largest projected gradient it saw before the step."""
        entries = xs[u]
        dot = 0.0
        for j, v in entries:
            dot += w[j] * v
        q, d_pos, d_neg, a, b = qs[u], dp[u], dn[u], ap[u], an[u]
        violation = 0.0
        if d_pos:
            ga = dot - 1.0 + d_pos * a
            violation = abs(min(ga, 0.0) if a == 0.0 else ga)
        if d_neg:
            gb = -dot - 1.0 + d_neg * b
            violation = max(violation, abs(min(gb, 0.0) if b == 0.0 else gb))
        if violation <= _PG_FLOOR:
            return violation
        if not d_neg:
            new_a, new_b = max(a - ga / (q + d_pos), 0.0), b
        elif not d_pos:
            new_a, new_b = a, max(b - gb / (q + d_neg), 0.0)
        else:
            new_a, new_b = _pair_step(q, d_pos, d_neg, a, b, ga, gb)
        ap[u], an[u] = new_a, new_b
        step = (new_a - a) - (new_b - b)
        if step != 0.0:
            for j, v in entries:
                w[j] += step * v
        return violation

    group = _groups(xs)
    rng = random.Random(cfg.seed)
    order = list(range(len(xs)))
    active_floor = cfg.tolerance * _ACTIVE_FRACTION
    duals = [0.0]
    converged = False
    violation = math.inf
    epochs = 0
    for _ in range(cfg.max_epochs):
        rng.shuffle(order)
        violations = [visit(u) for u in order]
        violation = max(violations)
        epochs += 1
        if violation >= cfg.tolerance:
            hot = {group[u] for u, v in zip(order, violations)
                   if v >= active_floor}
            active = [u for u in order if group[u] in hot]
            for _ in range(max(1, len(vectors) // len(active))):
                rng.shuffle(active)
                if max([visit(u) for u in active]) < active_floor:
                    break
        duals.append(math.fsum(ap) + math.fsum(an)
                     - 0.5 * math.fsum(v * v for v in w)
                     - 0.5 * math.fsum(d * a * a for d, a in zip(dp, ap))
                     - 0.5 * math.fsum(d * b * b for d, b in zip(dn, an)))
        if not math.isfinite(duals[-1]):
            raise NonFinite("dual objective diverged; rescale the input")
        if violation < cfg.tolerance:
            converged = True
            break
    w = w[1:]
    if not all(math.isfinite(v) for v in w):
        raise NonFinite("weight vector contains non-finite values")
    return w, SolverInfo(epochs, violation, converged, duals)


def _groups(xs) -> list[int]:
    """A group id per vector: vectors share a group iff a chain of shared
    features joins them, so a step in one group never changes a gradient
    in another (union-find over the features)."""
    parent = list(range(len(xs)))

    def root(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    first_with: dict[int, int] = {}
    for u, vec in enumerate(xs):
        for j, _ in vec:
            a, b = root(u), root(first_with.setdefault(j, u))
            if a != b:
                parent[a] = b
    return [root(u) for u in range(len(xs))]


def _pair_step(q, d_pos, d_neg, a, b, ga, gb):
    """The minimizer over ``a, b >= 0`` of the dual restricted to the two
    duals of one vector that carries both labels.

    ``ga`` and ``gb`` are the gradients at ``(a, b)``; the Hessian is
    ``[[q + d_pos, -q], [-q, q + d_neg]]``.  When the Newton point leaves
    the quadrant, the minimizer lies on one of its two edges, and the edge
    whose clipped one-variable minimizer lowers the dual more wins.
    """
    hp, hn = q + d_pos, q + d_neg
    # hp * hn - q * q, written so that tiny d_pos and d_neg do not cancel
    det = q * (d_pos + d_neg) + d_pos * d_neg
    new_a = a - (hn * ga + q * gb) / det
    new_b = b - (q * ga + hp * gb) / det
    if new_a >= 0.0 and new_b >= 0.0:
        return new_a, new_b
    on_b0 = (max(a - (ga + q * b) / hp, 0.0), 0.0)
    on_a0 = (0.0, max(b - (gb + q * a) / hn, 0.0))

    def change(point):
        da, db = point[0] - a, point[1] - b
        return ga * da + gb * db + 0.5 * (hp * da * da - 2.0 * q * da * db
                                          + hn * db * db)

    return on_b0 if change(on_b0) <= change(on_a0) else on_a0


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
    # each distinct vector is renumbered once
    distinct = dict.fromkeys(vec for vec, _ in rows)
    features = sorted({i for vec in distinct for i, _ in vec})
    compact = {i: k for k, i in enumerate(features, start=1)}
    for vec in distinct:
        distinct[vec] = tuple((compact[i], v) for i, v in vec)
    vectors = [distinct[vec] for vec, _ in rows]
    w, info = solve_l2svm(vectors, labels, len(features), cfg)
    if not info.converged:
        logging.getLogger("satguide").warning(
            "SVM training stopped at max_epochs=%d without converging "
            "(final violation %.2e)", info.epochs, info.final_violation)
    weights = {features[k]: value for k, value in enumerate(w)
               if value != 0.0}
    return Model(weights, frozen, cfg.c, info.epochs, info.final_violation,
                 cfg.seed, info.converged)


def score_vector(model: Model, vec: SparseVector) -> float:
    w = model.w
    total = 0.0
    for i, v in vec:
        total += w.get(i, 0.0) * v
    return float(total)


def predict_vector(model: Model, vec: SparseVector) -> str:
    return POS if score_vector(model, vec) > 0.0 else NEG


def predict(clause: tuple[Literal, ...], model: Model, symbols: SymbolMap,
            stats: dict | None = None) -> str:
    """Classify a clause: positive iff w'x > 0 (strict), else negative.
    ``symbols`` maps the clause's signature into the model's snapshot."""
    vec = vectorize(clause_features(clause, symbols), model.signature, stats)
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
    Each distinct vector is scored once.
    """
    # label -> [examples, classified correctly]
    tally = {1: [0, 0], -1: [0, 0]}
    predicted: dict[SparseVector, bool] = {}
    for vec, label in rows:
        positive = predicted.get(vec)
        if positive is None:
            positive = predicted[vec] = predict_vector(model, vec) == POS
        counts = tally[1 if label > 0 else -1]
        counts[0] += 1
        counts[1] += positive == (label > 0)
    (pos_total, pos_correct), (neg_total, neg_correct) = tally[1], tally[-1]
    n = len(rows)
    return AccuracyReport(
        accuracy=(pos_correct + neg_correct) / n if n else 0.0,
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
        # an empty prefix would match every function symbol
        if not isinstance(prefixes, list) \
                or not all(isinstance(p, str) and p for p in prefixes):
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
    # features write the marker ids themselves, and a Signature finds a
    # symbol by its name, arity and kind
    if tuple(symbols[:len(MARKERS)]) != MARKERS:
        raise FormatError(f"{path}: rows 0-{len(MARKERS) - 1} must hold "
                          f"the marker symbols")
    if len({(s.name, s.arity, s.kind) for s in symbols}) < len(symbols):
        raise FormatError(f"{path}: symbols must be unique by name, arity "
                          f"and kind")
    for sym in symbols[len(MARKERS):]:
        if sym.arity < 0 or sym.kind not in (KIND_FUNCTION, KIND_PREDICATE):
            raise FormatError(f"{path}: symbol {sym.id} must be a function "
                              f"or predicate of arity >= 0")
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
        if model.converged is not None:
            fp.write(f"converged {str(model.converged).lower()}\n")
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
    except ValueError as exc:
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
    line = _read_line(fp, path)
    converged = None  # files written before the line existed lack it
    if line.startswith("converged "):
        converged = {"true": True, "false": False}.get(
            _header_value(line, "converged", path))
        if converged is None:
            raise FormatError(f"{path}: bad converged line {line!r}")
        line = _read_line(fp, path)
    seed = int(_header_value(line, "seed", path))
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
    if not all(math.isfinite(value) for value in w.values()):
        raise FormatError(f"{path}: non-finite weights")
    return Model(w, frozen, c, epochs, violation, seed, converged)
