"""Linear classifier: solver, prediction, accuracy, persistence."""

import logging
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    numpy_dcd_reference, svm_primal_value, svm_reference_minimizer,
)
from satguide.clauses import DEFAULT_SKOLEM_PREFIXES, Signature
from satguide.features import FormatError
from satguide.pipeline import train_from_examples
from satguide.svm import (
    EmptyClass, Model, NEG, NonFinite, POS, SolverConfig, accuracy,
    load_model, predict, predict_vector, save_model, score_vector,
    solve_l2svm,
)
from satguide.tptp import parse_problem


def dense(values):
    return tuple((i + 1, v) for i, v in enumerate(values) if v)


def to_rows(vectors, dimension):
    out = np.zeros((len(vectors), dimension))
    for k, vec in enumerate(vectors):
        for i, v in vec:
            out[k, i - 1] = v
    return out


def test_two_point_problem_separates():
    vectors = [dense([1, 0]), dense([0, 1])]
    labels = [1, -1]
    w, info = solve_l2svm(vectors, labels, 2, SolverConfig())
    assert w[0] > 0 > w[1]
    assert w[0] * 1 > 0
    assert info.converged


def test_symmetric_conflicting_labels_sit_on_the_margin():
    # the same vector labeled both ways: the optimum scores it exactly 0
    vectors = [dense([2, 1]), dense([2, 1])]
    labels = [1, -1]
    w, _ = solve_l2svm(vectors, labels, 2, SolverConfig(tolerance=1e-8))
    assert abs(w @ np.array([2.0, 1.0])) < 1e-6


def test_solver_matches_reference_minimizer_on_random_instances():
    rng = random.Random(12345)
    checked = 0
    for trial in range(25):
        n = rng.randint(2, 6)
        dim = rng.randint(1, 3)
        c = rng.choice([0.5, 1.0, 2.0])
        rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(n)]
        labels = [rng.choice([1, -1]) for _ in range(n)]
        if 1 not in labels:
            labels[0] = 1
        if -1 not in labels:
            labels[-1] = -1
        vectors = [dense(r) for r in rows]
        cfg = SolverConfig(c=c, tolerance=1e-9, max_epochs=20000, seed=trial)
        w, info = solve_l2svm(vectors, labels, dim, cfg)
        assert info.converged
        x = np.array(rows, dtype=float)
        y = np.array(labels, dtype=float)
        ref = svm_reference_minimizer(x, y, c)
        assert np.max(np.abs(w - ref)) < 1e-4, (rows, labels, c)
        # the found point is no worse than the reference in objective
        assert svm_primal_value(w, x, y, c) <= svm_primal_value(ref, x, y, c) + 1e-8
        checked += 1
    assert checked >= 20


def test_dual_objective_never_decreases():
    rng = random.Random(9)
    for trial in range(10):
        n = rng.randint(3, 12)
        vectors = [dense([rng.randint(-2, 2) for _ in range(3)])
                   for _ in range(n)]
        labels = [rng.choice([1, -1]) for _ in range(n)]
        _, info = solve_l2svm(vectors, labels, 3,
                              SolverConfig(tolerance=1e-7, seed=trial))
        objectives = info.dual_objectives
        assert all(b >= a - 1e-9 for a, b in zip(objectives, objectives[1:]))


def test_primal_no_worse_than_zero_vector():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(2, 8)
        rows = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(n)]
        labels = [rng.choice([1, -1]) for _ in range(n)]
        c = 1.0
        w, _ = solve_l2svm([dense(r) for r in rows], labels, 2,
                           SolverConfig(c=c, tolerance=1e-8))
        x = np.array(rows, dtype=float)
        y = np.array(labels, dtype=float)
        assert svm_primal_value(w, x, y, c) <= svm_primal_value(
            np.zeros(2), x, y, c) + 1e-9


def test_non_finite_input_raises_nonfinite():
    vectors = [dense([float("nan")]), dense([-1.0])]
    with pytest.raises(NonFinite):
        solve_l2svm(vectors, [1, -1], 1, SolverConfig())


def test_training_is_deterministic_for_a_seed():
    rng = random.Random(5)
    vectors = [dense([rng.randint(-2, 2) for _ in range(3)])
               for _ in range(8)]
    labels = [1, -1] * 4
    w1, _ = solve_l2svm(vectors, labels, 3, SolverConfig(seed=7))
    w2, _ = solve_l2svm(vectors, labels, 3, SolverConfig(seed=7))
    assert np.array_equal(w1, w2)
    w3, _ = solve_l2svm(vectors, labels, 3, SolverConfig(seed=8))
    # a different permutation may or may not land on the same point;
    # both must still be finite and near-optimal, so just sanity-check
    assert np.isfinite(w3).all()


@st.composite
def dcd_instances(draw, values, max_entries, max_dim):
    """Random sparse rows with both labels, a penalty and a seed."""
    dim = draw(st.integers(1, max_dim))
    n = draw(st.integers(2, 12))
    vectors = []
    for _ in range(n):
        size = draw(st.integers(1, min(max_entries, dim)))
        idx = draw(st.sets(st.integers(1, dim), min_size=size, max_size=size))
        vectors.append(tuple((i, draw(values)) for i in sorted(idx)))
    labels = [1, -1] + draw(st.lists(st.sampled_from([1, -1]),
                                     min_size=n - 2, max_size=n - 2))
    return (vectors, labels, dim, draw(st.sampled_from([0.5, 1.0, 2.0])),
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=150, deadline=None)
@given(dcd_instances(st.sampled_from([1, -1, 2, -2, 4, -4]), 8, 20))
def test_solver_repeats_the_numpy_reference_bit_for_bit(instance):
    # powers of two make every product w_j * v exact, and rows under 16
    # entries keep the BLAS dot product sequential, so the two agree exactly
    vectors, labels, dim, c, seed = instance
    cfg = SolverConfig(c=c, seed=seed)
    w, info = solve_l2svm(vectors, labels, dim, cfg)
    ref_w, ref = numpy_dcd_reference(vectors, labels, dim, cfg)
    assert np.array_equal(w, ref_w)
    assert (info.epochs, info.final_violation, info.dual_objectives) \
        == (ref.epochs, ref.final_violation, ref.dual_objectives)


@settings(max_examples=60, deadline=None)
@given(dcd_instances(st.integers(-5, 5), 30, 30))
def test_solver_agrees_with_the_numpy_reference_at_convergence(instance):
    # inexact products may round differently from the BLAS dot product, so
    # compare the converged points, not the bits
    vectors, labels, dim, c, seed = instance
    cfg = SolverConfig(c=c, tolerance=1e-9, max_epochs=5000, seed=seed)
    w, info = solve_l2svm(vectors, labels, dim, cfg)
    ref_w, ref = numpy_dcd_reference(vectors, labels, dim, cfg)
    if info.converged and ref.converged:
        assert np.max(np.abs(w - ref_w)) < 1e-6


def clause_sets(sig):
    text = """
    cnf(p1, axiom, (good(a))).
    cnf(p2, axiom, (good(b))).
    cnf(n1, axiom, (bad(a))).
    cnf(n2, axiom, (bad(c))).
    """
    clauses = parse_problem(text, sig)
    return clauses[:2], clauses[2:]


def test_train_and_predict_on_clauses():
    sig = Signature()
    pos, neg = clause_sets(sig)
    model = train_from_examples((pos, neg), sig)
    for clause in pos:
        assert predict(clause, model, sig) == POS
    for clause in neg:
        assert predict(clause, model, sig) == NEG


def test_train_requires_both_classes_and_sane_signature():
    sig = Signature()
    pos, neg = clause_sets(sig)
    with pytest.raises(EmptyClass):
        train_from_examples((pos, []), sig)
    with pytest.raises(EmptyClass):
        train_from_examples(([], neg), sig)


def test_large_signature_trains_and_round_trips(tmp_path):
    sig = Signature()
    text = "".join(f"cnf(c{k}, axiom, ({'good' if k % 2 else 'bad'}(c{k}))).\n"
                   for k in range(260))
    clauses = parse_problem(text, sig)
    assert sig.freeze().size >= 250
    pos, neg = clauses[1::2], clauses[0::2]
    model = train_from_examples((pos, neg), sig)
    path = tmp_path / "model.bin"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.w == model.w and loaded.signature == model.signature
    for clause in clauses:
        assert predict(clause, loaded, sig) == predict(clause, model, sig)
    assert all(predict(c, model, sig) == POS for c in pos)


def test_unconverged_training_warns(caplog):
    sig = Signature()
    pos, neg = clause_sets(sig)
    with caplog.at_level(logging.WARNING, logger="satguide"):
        model = train_from_examples((pos, neg), sig, SolverConfig(max_epochs=1, tolerance=1e-12))
    assert model.epochs == 1
    assert "stopped at max_epochs=1 without converging" in caplog.text
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="satguide"):
        train_from_examples((pos, neg), sig)
    assert caplog.text == ""


def test_predict_tie_is_negative():
    sig = Signature()
    pos, neg = clause_sets(sig)
    model = train_from_examples((pos, neg), sig)
    model.w.clear()
    for clause in pos + neg:
        assert predict(clause, model, sig) == NEG
    empty = parse_problem("cnf(e, axiom, $false).", sig)[0]
    assert predict(empty, model, sig) == NEG


def test_score_vector_golden():
    frozen = Signature().freeze()
    model = Model({}, frozen, 1.0, 0, 0.0, 0)
    model.w[1] = 1.0
    model.w[2] = -1.0
    vec = ((1, 2), (2, 1))
    assert score_vector(model, vec) == 1.0
    assert predict_vector(model, vec) == POS
    assert predict_vector(model, ()) == NEG


def test_accuracy_reports_per_class_recall():
    frozen = Signature().freeze()
    model = Model({}, frozen, 1.0, 0, 0.0, 0)
    # all-zero weights classify everything negative
    rows = [(((1, 1),), -1) for _ in range(10)]
    report = accuracy(model, rows)
    assert report.accuracy == 1.0
    assert report.positive_recall is None
    assert report.negative_recall == 1.0
    mixed = rows + [(((2, 1),), 1)] * 10
    report = accuracy(model, mixed)
    assert report.accuracy == 0.5
    assert report.positive_recall == 0.0


def test_model_save_load_round_trip(tmp_path):
    sig = Signature()
    pos, neg = clause_sets(sig)
    model = train_from_examples((pos, neg), sig)
    path = tmp_path / "model.bin"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.w == model.w
    assert loaded.signature == model.signature
    assert loaded.c == model.c and loaded.epochs == model.epochs
    for clause in pos + neg:
        assert predict(clause, loaded, sig) == predict(clause, model, sig)


def test_model_without_skolem_prefixes_reads_the_defaults(tmp_path):
    sig = Signature(("bad",))
    pos, neg = clause_sets(sig)
    model = train_from_examples((pos, neg), sig)
    path = tmp_path / "model.bin"
    save_model(model, str(path))
    lines = path.read_text().splitlines(keepends=True)
    old_format = [line for line in lines if not line.startswith("skolem-prefixes")]
    assert len(old_format) == len(lines) - 1
    path.write_text("".join(old_format))
    loaded = load_model(str(path))
    assert loaded.signature.symbols == model.signature.symbols
    assert loaded.signature.skolem_prefixes == DEFAULT_SKOLEM_PREFIXES


def test_load_model_rejects_corrupt_files(tmp_path):
    sig = Signature()
    pos, neg = clause_sets(sig)
    model = train_from_examples((pos, neg), sig)
    path = tmp_path / "model.bin"
    save_model(model, str(path))
    full = path.read_text()
    truncated = tmp_path / "trunc.bin"
    truncated.write_text(full[: len(full) // 2])
    with pytest.raises(FormatError):
        load_model(str(truncated))
    not_model = tmp_path / "junk.bin"
    not_model.write_text("hello\nworld\n")
    with pytest.raises(FormatError):
        load_model(str(not_model))


def test_load_model_needs_strictly_increasing_weight_indices(tmp_path):
    sig = Signature()
    pos, neg = clause_sets(sig)
    model = train_from_examples((pos, neg), sig)
    path = tmp_path / "model.bin"
    save_model(model, str(path))
    lines = path.read_text().splitlines(keepends=True)
    at = next(k for k, line in enumerate(lines) if line.startswith("weights "))
    n = int(lines[at].split()[1])
    assert n >= 2
    rows = lines[at + 1: at + 1 + n]
    for bad_rows in (rows[:1] + rows, rows[1:2] + rows[:1] + rows[2:]):
        bad = tmp_path / "bad.bin"
        bad.write_text("".join(lines[:at] + [f"weights {len(bad_rows)}\n"]
                               + bad_rows + lines[at + 1 + n:]))
        with pytest.raises(FormatError, match="strictly increasing"):
            load_model(str(bad))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_model_file_round_trip(tmp_path_factory, data):
    sig = Signature()
    parse_problem("cnf(a, axiom, (p(f(a,b)) | ~q(b))).", sig)
    frozen = sig.freeze()
    dim = frozen.dimension
    values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([5e-324, -1e-310, -2.5]))
    w = data.draw(st.dictionaries(st.integers(1, dim), values, max_size=40))
    w[1] = data.draw(values)
    w[dim] = data.draw(values)
    order = data.draw(st.permutations(sorted(w)))
    model = Model({i: w[i] for i in order}, frozen,
                  data.draw(st.floats(min_value=1e-3, max_value=1e3)),
                  data.draw(st.integers(0, 1000)), data.draw(values),
                  data.draw(st.integers(0, 2 ** 32)))
    path = tmp_path_factory.getbasetemp() / "round_trip.bin"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.w == model.w
    assert (loaded.c, loaded.epochs, loaded.final_violation, loaded.seed) \
        == (model.c, model.epochs, model.final_violation, model.seed)
    assert loaded.signature == model.signature
    again = path.with_name("round_trip_again.bin")
    save_model(loaded, str(again))
    assert again.read_bytes() == path.read_bytes()


def test_prediction_cost_tracks_vector_size():
    # O(nnz) check with a generous bound: 50x the entries may cost at most
    # 500x the time (anything quadratic or dimension-bound would blow this)
    frozen = Signature().freeze()
    model = Model({}, frozen, 1.0, 0, 0.0, 0)
    small = tuple((i * 7 + 1, 1) for i in range(20))
    large = tuple((i * 7 + 1, 1) for i in range(1000))

    def timed(vec, repeats):
        start = time.perf_counter()
        for _ in range(repeats):
            score_vector(model, vec)
        return (time.perf_counter() - start) / repeats

    timed(small, 10)  # warmup
    t_small = timed(small, 300)
    t_large = timed(large, 300)
    assert t_large < t_small * 500
