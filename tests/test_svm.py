"""Linear classifier: solver, prediction, accuracy, persistence."""

import logging
import random
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    numpy_dcd_reference, svm_primal_value, svm_reference_minimizer,
)
from satguide import svm
from satguide.clauses import (
    DEFAULT_SKOLEM_PREFIXES, KIND_FUNCTION, KIND_PREDICATE, Signature,
    SymbolMap,
)
from satguide.features import FormatError
from satguide.pipeline import train_from_examples
from satguide.svm import (
    EmptyClass, Model, NEG, NonFinite, POS, SolverConfig, accuracy,
    _pair_step, load_model, predict, predict_vector, save_model,
    score_vector, solve_l2svm,
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
    """Random sparse rows with both labels, a penalty and a seed; some
    rows repeat earlier vectors, with either label."""
    dim = draw(st.integers(1, max_dim))
    n = draw(st.integers(2, 12))
    vectors = []
    for _ in range(draw(st.integers(1, n))):
        size = draw(st.integers(1, min(max_entries, dim)))
        idx = draw(st.sets(st.integers(1, dim), min_size=size, max_size=size))
        vectors.append(tuple((i, draw(values)) for i in sorted(idx)))
    vectors += [draw(st.sampled_from(vectors)) for _ in range(n - len(vectors))]
    vectors = draw(st.permutations(vectors))
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


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_weighted_solver_matches_the_minimizer_on_expanded_rows(data):
    # each distinct vector stands for up to 1,000 copies per label, often
    # with both labels; the oracle sees every copy as its own row.  Heavy
    # duals on nearly dependent vectors take the solver up to seconds at
    # this tolerance, so the draws are fixed to keep the run time steady.
    dim = data.draw(st.integers(1, 3))
    rows = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim,
                                       max_size=dim),
                              min_size=1, max_size=4, unique_by=tuple))
    # copies of each row per label, one label or both; the first row
    # carries both, so both classes occur
    counts = [data.draw(st.tuples(st.integers(0, 1000), st.integers(0, 1000))
                        .filter(any)) for _ in rows]
    counts[0] = (max(counts[0][0], 1), max(counts[0][1], 1))
    c = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
    expanded = [(r, label) for r, (k_pos, k_neg) in zip(rows, counts)
                for label, k in ((1, k_pos), (-1, k_neg)) for _ in range(k)]
    random.Random(data.draw(st.integers(0, 99))).shuffle(expanded)
    w, info = solve_l2svm([dense(r) for r, _ in expanded],
                          [label for _, label in expanded], dim,
                          SolverConfig(c=c, tolerance=1e-8, max_epochs=20000))
    assert info.converged
    ref = svm_reference_minimizer(
        np.array([r for r, _ in expanded], dtype=float),
        np.array([y for _, y in expanded], dtype=float), c)
    assert np.max(np.abs(np.array(w) - ref)) < 1e-6


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 50.0), st.floats(1e-4, 2.0), st.floats(1e-4, 2.0),
       st.floats(0.0, 100.0), st.floats(0.0, 100.0),
       st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
def test_pair_step_meets_the_optimality_conditions(q, d_pos, d_neg, a, b,
                                                    ga, gb):
    # the step must land on the minimizer over a, b >= 0: the gradient
    # there is zero in a positive coordinate and nonnegative at a bound
    new_a, new_b = _pair_step(q, d_pos, d_neg, a, b, ga, gb)
    da, db = new_a - a, new_b - b
    grad_a = ga + (q + d_pos) * da - q * db
    grad_b = gb - q * da + (q + d_neg) * db
    scale = 1e-7 * (1.0 + abs(ga) + abs(gb) + q * (abs(a) + abs(b)))
    for value, grad in ((new_a, grad_a), (new_b, grad_b)):
        assert value >= 0.0
        assert grad >= -scale and (value == 0.0 or abs(grad) <= scale)


def test_heavy_conflicting_vector_coupled_through_a_cycle_converges():
    # the shape of the learn workload's slow component: a one-hot vector
    # 900 times with each label, tied by two-feature vectors (features
    # 1..4 against 5..8, in a cycle) that are heavy and disagree, so the
    # duals of the whole group move together only slowly
    signed_counts = [([(1, 1)], 900), ([(1, 1)], -900)]
    for i in range(4):
        signed_counts.append(([(i + 1, 1), (i + 5, 1)], 900))
        signed_counts.append(([((i + 1) % 4 + 1, 1), (i + 5, 1)], -900))
    rows = [(tuple(vec), 1 if k > 0 else -1) for vec, k in signed_counts
            for _ in range(abs(k))]
    w, info = solve_l2svm([vec for vec, _ in rows],
                          [label for _, label in rows], 8, SolverConfig())
    assert info.converged
    ref = svm_reference_minimizer(to_rows([vec for vec, _ in rows], 8),
                                  np.array([y for _, y in rows], dtype=float),
                                  1.0)
    assert np.max(np.abs(np.array(w) - ref)) < 1e-3


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
    symbols = SymbolMap(sig, model.signature)
    for clause in pos:
        assert predict(clause, model, symbols) == POS
    for clause in neg:
        assert predict(clause, model, symbols) == NEG


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
    symbols = SymbolMap(sig, model.signature)
    for clause in clauses:
        assert predict(clause, loaded, symbols) == \
            predict(clause, model, symbols)
    assert all(predict(c, model, symbols) == POS for c in pos)


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
        assert predict(clause, model, SymbolMap(sig, model.signature)) == NEG
    empty = parse_problem("cnf(e, axiom, $false).", sig)[0]
    assert predict(empty, model, SymbolMap(sig, model.signature)) == NEG


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


def test_accuracy_scores_each_distinct_vector_once(monkeypatch):
    frozen = Signature().freeze()
    model = Model({1: 1.0, 2: -1.0}, frozen, 1.0, 0, 0.0, 0)
    # (1,) scores positive and (2,) negative; each carries both labels
    rows = [(((1, 1),), 1)] * 3 + [(((1, 1),), -1)] \
        + [(((2, 1),), -1)] * 2 + [(((2, 1),), 1)] * 4
    scored = []
    monkeypatch.setattr(svm, "predict_vector",
                        lambda m, vec: scored.append(vec) or
                        predict_vector(m, vec))
    report = accuracy(model, rows)
    assert sorted(scored) == [((1, 1),), ((2, 1),)]
    assert (report.positives, report.negatives) == (7, 3)
    assert report.accuracy == 5 / 10
    assert report.positive_recall == 3 / 7
    assert report.negative_recall == 2 / 3


def test_predict_refuses_a_signature_for_a_symbol_map():
    # a signature's ids are not the model's feature labels, so it is not
    # taken in place of a map into the model's snapshot
    sig = Signature()
    pos, neg = clause_sets(sig)
    model = train_from_examples((pos, neg), sig)
    fresh = Signature()
    (clause,) = parse_problem("cnf(c, axiom, (good(a))).", fresh)
    with pytest.raises(AttributeError, match="feature_label"):
        predict(clause, model, fresh)


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
    symbols = SymbolMap(sig, model.signature)
    for clause in pos + neg:
        assert predict(clause, loaded, symbols) == \
            predict(clause, model, symbols)


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


def test_model_records_whether_training_converged(tmp_path, caplog):
    sig = Signature()
    pos, neg = clause_sets(sig)
    path = tmp_path / "model.bin"
    with caplog.at_level(logging.WARNING, logger="satguide"):
        for cfg, converged in ((SolverConfig(), True),
                               (SolverConfig(max_epochs=1, tolerance=1e-12),
                                False)):
            model = train_from_examples((pos, neg), sig, cfg)
            assert model.converged is converged
            save_model(model, str(path))
            lines = path.read_text().splitlines(keepends=True)
            at = next(k for k, line in enumerate(lines)
                      if line.startswith("violation "))
            assert lines[at + 1] == f"converged {str(converged).lower()}\n"
            assert load_model(str(path)).converged is converged
    # a file written before the line existed still loads
    path.write_text("".join(lines[:at + 1] + lines[at + 2:]))
    loaded = load_model(str(path))
    assert loaded.converged is None and loaded.w == model.w
    path.write_text("".join(lines[:at + 1] + ["converged maybe\n"]
                            + lines[at + 2:]))
    with pytest.raises(FormatError, match="bad converged line"):
        load_model(str(path))


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


def _edit_line(header, new):
    """Replace the first line that starts with ``header`` by ``new``."""
    def edit(lines):
        at = next(k for k, line in enumerate(lines) if line.startswith(header))
        return lines[:at] + [new] + lines[at + 1:]
    return edit


def _edit_row(header, new):
    """Replace the row after the first line that starts with ``header`` by
    ``new(row)``."""
    def edit(lines):
        at = next(k for k, line in enumerate(lines) if line.startswith(header))
        return lines[:at + 1] + [new(lines[at + 1])] + lines[at + 2:]
    return edit


@pytest.mark.parametrize("kind,edit,message", [
    ("bin", _edit_row("weights ", lambda row: row.split()[0]),
     "bad weight row"),
    ("bin", _edit_row("weights ", lambda row: f"{10**9} {row.split()[1]}"),
     "weight index 1000000000 out of range"),
    ("bin", _edit_line("end", "fin"), "missing end marker"),
    ("bin", _edit_row("weights ", lambda row: f"{row.split()[0]} inf"),
     "non-finite weights"),
    ("bin", _edit_row("symbols ", lambda row: "0 $var 0"), "bad symbol row"),
    ("bin", _edit_row("symbols ", lambda row: "1" + row[1:]),
     "symbol ids must be dense"),
    ("bin", _edit_line("skolem-prefixes ", "skolem-prefixes [1]"),
     "bad Skolem prefixes"),
    ("bin", _edit_line("c ", "c abc"), "corrupt model file"),
    ("bin", _edit_line("dimension ", "dimension 7"),
     "dimension 7 does not match signature"),
    ("bin", _edit_line("epochs ", "epoch 3"), "expected 'epochs ...'"),
    ("sig", _edit_line("symbols ", "symbols many"), "corrupt signature file"),
    # features write the marker ids 0-3 themselves
    ("bin", _edit_row("symbols ", lambda row: "0 p 0 predicate"),
     "rows 0-3 must hold the marker symbols"),
    # a Signature finds a symbol by its name, arity and kind; row 4 is good/1
    ("sig", _edit_line("5 ", "5 good 1 predicate"),
     "symbols must be unique by name, arity and kind"),
    # an empty prefix would label every function as the Skolem marker
    ("sig", _edit_line("skolem-prefixes ", 'skolem-prefixes ["sko", ""]'),
     "bad Skolem prefixes"),
    # past the markers, the writers make functions and predicates alone
    ("sig", _edit_line("4 ", "4 p -3 predicate"),
     "symbol 4 must be a function or predicate of arity >= 0"),
    ("bin", _edit_line("5 ", "5 q 0 variable-marker"),
     "symbol 5 must be a function or predicate of arity >= 0"),
], ids=["weight-row", "weight-index", "end-marker", "non-finite-weight",
        "symbol-row", "symbol-ids", "skolem-prefixes", "c-not-a-number",
        "dimension-mismatch", "epochs-line-misnamed", "sig-file",
        "marker-rows", "repeated-name", "empty-skolem-prefix",
        "negative-arity", "marker-kind"])
def test_loaders_name_the_file_and_what_is_wrong(tmp_path, kind, edit,
                                                 message):
    sig = Signature()
    model = train_from_examples(clause_sets(sig), sig)
    path = tmp_path / f"model.{kind}"
    if kind == "sig":
        svm.save_signature(model.signature, str(path))
        load = svm.load_signature
    else:
        save_model(model, str(path))
        load = load_model
    path.write_text("".join(f"{line}\n" for line
                            in edit(path.read_text().splitlines())))
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: "
                                          f"{message}"):
        load(str(path))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abpq"), st.integers(0, 3),
                          st.sampled_from([KIND_FUNCTION, KIND_PREDICATE])),
                max_size=30))
@example([("p", 1, KIND_PREDICATE), ("p", 2, KIND_PREDICATE),
          ("p", 1, KIND_FUNCTION)])
def test_a_table_that_overloads_names_round_trips_with_its_ids(
        tmp_path_factory, triples):
    sig = Signature()
    ids = [sig.intern_symbol(*triple) for triple in triples]
    path = tmp_path_factory.mktemp("sig") / "table.sig"
    svm.save_signature(sig.freeze(), str(path))
    loaded = svm.load_signature(str(path))
    assert loaded == sig.freeze()
    thawed = Signature.from_frozen(loaded)
    assert [thawed.intern_symbol(*triple) for triple in triples] == ids
    assert thawed.size == sig.size
    symbols = SymbolMap(sig, loaded)
    assert [symbols.feature_label(i) for i in range(sig.size)] \
        == list(range(sig.size))


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
                  data.draw(st.integers(0, 2 ** 32)),
                  data.draw(st.sampled_from([None, True, False])))
    path = tmp_path_factory.getbasetemp() / "round_trip.bin"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.w == model.w
    assert (loaded.c, loaded.epochs, loaded.final_violation, loaded.seed,
            loaded.converged) \
        == (model.c, model.epochs, model.final_violation, model.seed,
            model.converged)
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
