"""Example extraction, boosting, grids, greedy cover, and the retrain loop."""

import dataclasses
import hashlib
import json
import logging
import random
from pathlib import Path

import numpy as np
import pytest

from oracles import OwnLabels, brute_force_min_cover, record_proof_faults
from satguide import pipeline, saturation
from satguide.clauses import Signature, SymbolMap
from satguide.features import clause_features, vectorize
from satguide.guidance import (
    Strategy, baseline_strategy, learned_cef, parse_strategy,
)
from satguide.pipeline import (
    BASE_ALONE, CorpusProblem, GridSpec, NoProof, ancestor_ids, boost_rows,
    greedy_cover, grid_strategies, grid_table, load_manifest, loop,
    pool_examples, run_corpus, run_grid, run_problem, training_set,
    train_from_examples,
)
from satguide.saturation import Limits, OUTCOME_PROOF, prove, record_to_json
from satguide.svm import SolverConfig, predict
from satguide.tptp import MAX_TERM_DEPTH, parse_problem

CORPUS = Path(__file__).parent / "fixtures" / "corpus"


def tiny_record(sig):
    clauses = parse_problem(
        "cnf(a, axiom, (p0)).\ncnf(b, axiom, (~p0)).", sig)
    return prove(clauses, baseline_strategy(), Limits(), sig, "tiny")


CHAIN = """
cnf(d1, axiom, (junk0(e))).
cnf(d2, axiom, (~junk0(X) | junk1(X))).
cnf(f1, axiom, (p0(c))).
cnf(r1, axiom, (~p0(X) | p1(X))).
cnf(r2, axiom, (~p1(X) | p2(X))).
cnf(goal, negated_conjecture, (~p2(c))).
"""


def chain_record(sig):
    return prove(parse_problem(CHAIN, sig), baseline_strategy(), Limits(),
                 sig, "chain")


class TestExtract:
    def test_trivial_contradiction_gives_all_positives(self):
        sig = Signature()
        record = tiny_record(sig)
        positives, negatives = pool_examples([record], sig)
        assert len(positives) == 2 and negatives == []

    def test_irrelevant_given_clause_is_negative(self):
        sig = Signature()
        record = chain_record(sig)
        positives, negatives = pool_examples([record], sig)
        assert negatives, "decoy clauses must show up as negatives"
        ancestors = ancestor_ids(record)
        assert positives == [record.clause(cid, sig)
                             for cid in record.given_sequence
                             if cid in ancestors]
        assert negatives == [record.clause(cid, sig)
                             for cid in record.given_sequence
                             if cid not in ancestors]

    def test_positives_match_independent_reachability(self):
        sig = Signature()
        record = chain_record(sig)
        positives, _ = pool_examples([record], sig)
        # independent backwards walk over reversed edge lists
        edges = {cid: set(ps) for cid, ps in record.dag.items()}
        reached = set()
        frontier = [record.empty_clause]
        while frontier:
            node = frontier.pop()
            if node in reached:
                continue
            reached.add(node)
            frontier.extend(edges[node])
        assert positives == [record.clause(cid, sig)
                             for cid in record.given_sequence
                             if cid in reached]
        assert ancestor_ids(record) == reached

    def test_extract_requires_a_proof(self):
        sig = Signature()
        clauses = parse_problem("cnf(a, axiom, (p(a))).", sig)
        record = prove(clauses, baseline_strategy(), Limits(), sig)
        with pytest.raises(NoProof):
            pool_examples([record], sig)

    def test_partition_counts(self):
        sig = Signature()
        record = chain_record(sig)
        positives, negatives = pool_examples([record], sig)
        assert len(positives) + len(negatives) == len(record.given_sequence)


def positives(rows):
    return [row for row in rows if row[1] > 0]


def negatives(rows):
    return [row for row in rows if row[1] < 0]


class TestBoost:
    def example_rows(self):
        sig = Signature()
        return training_set(pool_examples([chain_record(sig)], sig), sig)

    def test_boost_repeats_positives_only(self):
        rows = self.example_rows()
        boosted = boost_rows(rows, 10)
        assert len(positives(boosted)) == 10 * len(positives(rows))
        assert negatives(boosted) == negatives(rows)
        # underlying row set unchanged, only multiplicities
        assert set(map(id, positives(boosted))) == set(map(id, positives(rows)))

    def test_boost_identity_and_small_factors(self):
        rows = self.example_rows()
        assert len(positives(boost_rows(rows, 1))) == len(positives(rows))
        two = positives(rows)[:2] + negatives(rows)[:1]
        assert len(positives(boost_rows(two, 3))) == 6
        with pytest.raises(ValueError):
            boost_rows(rows, 0)

    def test_boost_large_scale_counts(self):
        rows = [(object(), 1)] * 6821 + [(object(), -1)] * 219012
        boosted = boost_rows(rows, 10)
        assert len(positives(boosted)) == 68210
        assert len(negatives(boosted)) == 219012


class TestGreedyCover:
    def test_hand_checkable(self):
        items = [("A", {1, 2, 3}), ("B", {3, 4}), ("C", {4})]
        assert greedy_cover(items) == ["A", "B"]

    def test_single_strategy_covers_all(self):
        assert greedy_cover([("A", {1, 2}), ("B", {1})]) == ["A"]

    def test_tie_breaks_by_earlier_order(self):
        items = [("A", {1}), ("B", {2}), ("C", {1, 2})]
        assert greedy_cover(items) == ["C"]
        items = [("A", {1, 2}), ("B", {1, 2}), ("C", {3})]
        assert greedy_cover(items) == ["A", "C"]

    def test_random_instances_cover_exactly_the_union(self):
        rng = random.Random(11)
        for _ in range(40):
            n_sets = rng.randint(1, 10)
            sets = [set(rng.sample(range(12), rng.randint(0, 6)))
                    for _ in range(n_sets)]
            items = list(zip(range(n_sets), sets))
            chosen = greedy_cover(items)
            covered = set()
            for key in chosen:
                covered |= sets[key]
            universe = set().union(*sets) if sets else set()
            assert covered == universe
            # coverage (not cardinality) must match the exhaustive oracle
            oracle = brute_force_min_cover(sets)
            oracle_covered = set()
            for i in oracle:
                oracle_covered |= sets[i]
            assert covered == oracle_covered
            assert len(set(chosen)) == len(chosen)


@pytest.fixture(scope="module")
def corpus():
    problems = load_manifest(str(CORPUS / "manifest.txt"))
    assert len(problems) >= 20
    return problems


@pytest.fixture(scope="module")
def corpus_limits():
    return Limits(max_processed=400, max_generated=50000)


@pytest.fixture(scope="module")
def trained_on_corpus(corpus, corpus_limits):
    records = run_corpus(corpus, {"base": baseline_strategy()}, corpus_limits)
    sig = Signature()
    pool = pool_examples(records.values(), sig)
    model = train_from_examples(pool, sig)
    return records, sig, pool, model


def test_pooling_parses_each_text_once_and_featurizes_each_clause_once(
        trained_on_corpus, monkeypatch):
    proofs = [record for record in trained_on_corpus[0].values()
              if record.outcome == OUTCOME_PROOF]
    # every record twice, so every given clause text repeats
    records = proofs * 2
    parsed = []
    parse = pipeline.parse_clause_text  # looked up by name, as tracers see it

    def counting(text, sig, *args):
        parsed.append(text)
        return parse(text, sig, *args)

    monkeypatch.setattr(pipeline, "parse_clause_text", counting)
    sig = Signature()
    pool = pool_examples(records, sig)
    featurized = []
    features = pipeline.clause_features

    def counting_features(clause, sig):
        featurized.append(clause)
        return features(clause, sig)

    monkeypatch.setattr(pipeline, "clause_features", counting_features)
    rows = training_set(pool, sig)
    monkeypatch.undo()
    given = [record.clause_texts[cid] for record in records
             for cid in record.given_sequence]
    assert sorted(parsed) == sorted(set(given)) and len(parsed) < len(given)
    assert len(featurized) == len(set(featurized)) <= len(set(given))

    # the construction clause by clause, with its own parse of every copy
    own = Signature()
    expected = ([], [])
    for record in records:
        ancestors = ancestor_ids(record)
        for cid in record.given_sequence:
            expected[cid not in ancestors].append(record.clause(cid, own))
    assert own.freeze() == sig.freeze()
    assert pool == expected
    frozen = own.freeze()
    symbols = SymbolMap(own, frozen)
    assert rows == [(vectorize(clause_features(clause, symbols), frozen), label)
                    for clauses, label in zip(expected, (1, -1))
                    for clause in clauses]


def test_manifest_loading(tmp_path):
    target = tmp_path / "m.txt"
    target.write_text("# comment\np1 a.p\n\np2 /abs/b.p\n")
    problems = load_manifest(str(target))
    assert problems[0].pid == "p1"
    assert problems[0].path == str(tmp_path / "a.p")
    assert problems[1].path == "/abs/b.p"
    bad = tmp_path / "bad.txt"
    bad.write_text("only_one_field\n")
    with pytest.raises(ValueError):
        load_manifest(str(bad))


def test_manifest_rejects_a_repeated_id(tmp_path):
    # records are keyed by id, so a repeat would silently drop a problem
    target = tmp_path / "m.txt"
    target.write_text("a prob00.p\n# comment\na prob01.p\n")
    with pytest.raises(ValueError, match=f"{target}:3: .*'a'.* line 1"):
        load_manifest(str(target))


def test_run_corpus_sequential_and_parallel_agree(corpus, corpus_limits):
    subset = corpus[:4]
    strategies = {"base": baseline_strategy()}
    seq = run_corpus(subset, strategies, corpus_limits, jobs=1)
    par = run_corpus(subset, strategies, corpus_limits, jobs=2)
    assert seq.keys() == par.keys()
    for key in seq:
        assert record_to_json(seq[key]) == record_to_json(par[key])


def test_a_search_that_raises_fails_its_own_problem_only(
        corpus, corpus_limits, monkeypatch, caplog):
    subset = corpus[:2]
    strategies = {"base": baseline_strategy(),
                  "fifo": parse_strategy("1*Fifo")}
    want = run_corpus(subset, strategies, corpus_limits)
    prove_ = pipeline.prove

    def failing(clauses, strategy, limits, sig, problem_id="", **kwargs):
        if problem_id == subset[0].pid:
            raise RecursionError("maximum recursion depth exceeded")
        return prove_(clauses, strategy, limits, sig, problem_id, **kwargs)

    monkeypatch.setattr(pipeline, "prove", failing)
    with caplog.at_level(logging.DEBUG, logger="satguide"):
        got = run_corpus(subset, strategies, corpus_limits)
    assert (f"{subset[0].path}: search failed: RecursionError: maximum "
            "recursion depth exceeded; counted as unsolved") in caplog.text
    # the traceback goes to the debug log
    assert [r.exc_info[0] for r in caplog.records if r.exc_info] \
        == [RecursionError]
    assert sorted(got) == [(key, subset[1].pid) for key in sorted(strategies)]
    for key in got:
        assert record_to_json(got[key]) == record_to_json(want[key])


def test_run_corpus_starts_no_more_workers_than_problems(
        corpus, corpus_limits, monkeypatch):
    """A pool forks its workers up front, so ``jobs`` past the problem
    count is capped; a serial stand-in records the pool size."""
    import concurrent.futures
    sizes = []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(pipeline, "_POOL_STATE", {})
    subset = corpus[:3]
    strategies = {"base": baseline_strategy()}
    pooled = run_corpus(subset, strategies, corpus_limits, jobs=8)
    assert sizes == [3]
    serial = run_corpus(subset, strategies, corpus_limits, jobs=1)
    assert {key: record_to_json(r) for key, r in pooled.items()} == \
        {key: record_to_json(r) for key, r in serial.items()}


def test_run_corpus_records_equal_independent_searches(tmp_path, corpus,
                                                       corpus_limits,
                                                       trained_on_corpus):
    # run_corpus parses each problem once and shares one content memo
    # among all its searches; each record must still be the one a search
    # with its own file read, fresh signature and private memo makes
    _, sig, (positives, negatives), model = trained_on_corpus
    # same symbols, but other predictions
    other = train_from_examples((positives[::4], negatives[::4]), sig)
    assert other.signature == model.signature
    base = baseline_strategy()
    strategies = {row.key: row.strategy for row in grid_strategies(
        model, base, GridSpec(gammas=[0, 0.2], frequencies=[5]))}
    cef = learned_cef(other, 0.2, "<other>")
    strategies["other:f5:g0.2"] = Strategy(base.entries + ((5, cef),))
    strategies["other:finf:g0.2"] = Strategy(((1, cef),))
    # renamed decoys are not in the model's signature, so their feature
    # triples are dropped
    problems = corpus[:2]
    for problem in corpus[2:5]:
        path = tmp_path / Path(problem.path).name
        path.write_text(Path(problem.path).read_text().replace("junk", "waste"))
        problems.append(CorpusProblem(problem.pid, str(path)))

    records = run_corpus(problems, strategies, corpus_limits)
    assert list(records) == [(key, p.pid) for key in strategies
                             for p in problems]
    for (key, pid), record in records.items():
        problem = next(p for p in problems if p.pid == pid)
        alone = run_problem(problem, strategies[key], corpus_limits)
        assert record_to_json(record) == record_to_json(alone), (key, pid)
    assert any(r.stats["dropped_triples"] for r in records.values())
    # the two models steer some search apart, so a prediction shared
    # across models would show
    assert any(records[("f5:g0.2", p.pid)].given_sequence
               != records[("other:f5:g0.2", p.pid)].given_sequence
               for p in problems)


def test_a_fresh_signature_predicts_through_the_map_as_in_the_models(
        corpus, trained_on_corpus):
    # each fixture problem parsed into a fresh signature and read through
    # the map classifies every input clause as the same clauses parsed
    # into the model's signature and labelled by it; the fresh signature's
    # own labels misalign with the model's table
    _, _, _, model = trained_on_corpus
    misaligned = 0
    for problem in corpus:
        text = Path(problem.path).read_text()
        fresh = Signature()
        clauses = parse_problem(text, fresh, problem.path)
        thawed = Signature.from_frozen(model.signature)
        reference = parse_problem(text, thawed, problem.path)
        symbols = SymbolMap(fresh, model.signature)
        for clause, same in zip(clauses, reference, strict=True):
            want = predict(same, model, OwnLabels(thawed))
            assert predict(clause, model, symbols) == want, problem.pid
            assert predict(same, model,
                           SymbolMap(thawed, model.signature)) == want
            misaligned += predict(clause, model, OwnLabels(fresh)) != want
    assert misaligned > 0


def test_run_corpus_records_equal_searches_in_the_models_signature(
        tmp_path, monkeypatch, corpus, corpus_limits, trained_on_corpus):
    # a guided search used to parse its problem into its model's signature
    # (Signature.from_frozen) and label symbols by that signature; mapping
    # the problem's own symbols into the model's table by name must give
    # the same records
    _, _, _, model = trained_on_corpus
    by_pid = {p.pid: p for p in corpus}
    # trained as `extract --skolem-prefixes h` does, so h labels as the
    # Skolem marker under this model and as itself under the default
    # prefixes
    h_sig = Signature(("h",))
    h_records = run_corpus([by_pid["prob05"], by_pid["prob11"]],
                           {"0": baseline_strategy()}, corpus_limits)
    h_model = train_from_examples(pool_examples(h_records.values(), h_sig),
                                  h_sig)
    assert h_model.signature.skolem_prefixes == ("h",)
    assert h_model.signature != model.signature
    base = baseline_strategy()
    strategies = {"0": base}
    for name, m in (("", model), ("h:", h_model)):
        strategies[f"{name}f5:g0.2"] = Strategy(
            base.entries + ((5, learned_cef(m, 0.2, f"<{name}model>")),))
        strategies[f"{name}finf:g0"] = Strategy(
            ((1, learned_cef(m, 0, f"<{name}model>")),))
    # two models with different signatures in one strategy
    strategies["mixed"] = Strategy(
        base.entries + ((5, learned_cef(model, 0.2, "<model>")),
                        (5, learned_cef(h_model, 0.2, "<h:model>"))))

    def copy(problem, *edits):
        path = tmp_path / Path(problem.path).name
        text = Path(problem.path).read_text()
        for old, new in edits:
            text = text.replace(old, new)
        path.write_text(text)
        return CorpusProblem(problem.pid, str(path))

    # hz is in no table, but the h model's prefixes make it a Skolem symbol
    problems = [by_pid["prob00"], by_pid["prob05"],
                copy(by_pid["prob17"], ("h(", "hz(")),
                copy(by_pid["prob23"], ("h(", "hz("))]
    # renamed decoys are in no table either; the added clause holds two
    # of them, which must drop two distinct triples
    decoys = [copy(problem, ("junk", "waste"),
                   ("cnf(goal,", "cnf(pair, axiom, (waste1(X) | waste2(X)))."
                    "\ncnf(goal,"))
              for problem in corpus[2:5]]

    records = run_corpus(problems + decoys, strategies, corpus_limits)
    assert len(records) == len(strategies) * len(problems + decoys)
    for (key, pid), record in records.items():
        problem = next(p for p in problems + decoys if p.pid == pid)
        models = {id(cef.model): cef.model
                  for _, cef in strategies[key].entries if cef.model}
        if len(models) == 1:
            (only,) = models.values()
            sig = Signature.from_frozen(only.signature)
            clauses = parse_problem(Path(problem.path).read_text(), sig,
                                    problem.path)
            with monkeypatch.context() as patch:
                # no map: the signature's own labels
                patch.setattr(saturation, "SymbolMap",
                              lambda sig, _: OwnLabels(sig))
                alone = prove(clauses, strategies[key], corpus_limits, sig,
                              problem_id=pid)
        else:
            alone = run_problem(problem, strategies[key], corpus_limits)
        assert record_to_json(record) == record_to_json(alone), (key, pid)
    for key in strategies:
        if key != "0":
            assert all(records[(key, p.pid)].stats["dropped_triples"] > 0
                       for p in decoys), key


EQUALITY_PROBLEM = """
cnf(a, axiom, (f(X) = g(X))).
cnf(b, axiom, (zz(f(c0)))).
cnf(c, axiom, (p0(g(c0)))).
cnf(goal, negated_conjecture, (~p0(f(c0)))).
"""


def test_every_strategy_of_a_problem_sees_the_same_input_clauses(
        tmp_path, trained_on_corpus):
    # the problem names zz, which the model does not know, before the
    # model's p0; the congruence axioms follow the problem's own symbol
    # order under every strategy, guided or not
    _, _, _, model = trained_on_corpus
    path = tmp_path / "eq.p"
    path.write_text(EQUALITY_PROBLEM)
    strategies = {row.key: row.strategy for row in grid_strategies(
        model, baseline_strategy(), GridSpec(gammas=[0.2], frequencies=[5]))}
    records = run_corpus([CorpusProblem("eq", str(path))], strategies,
                         Limits(max_processed=40))
    inputs = {key: [text for cid, text in record.clause_texts.items()
                    if not record.dag[cid]]
              for (key, _), record in records.items()}
    assert list(inputs) == list(strategies)
    assert all(texts == inputs["0"] for texts in inputs.values())
    assert records[("0", "eq")].stats["equality_axioms"] == 7
    assert "zz" in inputs["0"][-2] and "p0" in inputs["0"][-1]


def test_run_grid_table_shape(corpus, corpus_limits, trained_on_corpus):
    _, _, _, model = trained_on_corpus
    subset = corpus[:6]
    grid = GridSpec(gammas=[0, 0.2], frequencies=[1, 50])
    result = run_grid(subset, model, baseline_strategy(), grid, corpus_limits)
    keys = [row.key for row in result.rows]
    assert keys == ["0", "f1:g0", "f50:g0", "finf:g0",
                    "f1:g0.2", "f50:g0.2", "finf:g0.2"]
    base_solved = result.rows[0].solved
    assert base_solved == {p.pid for p in subset}
    # guidance trained on these very proofs must not lose any of them
    for row in result.rows:
        if not row.key.startswith("finf:"):
            assert row.solved >= base_solved
    csv_text = grid_table(result, csv=True)
    assert csv_text.splitlines()[0] == "gamma,0,1,50,inf"
    assert len(csv_text.splitlines()) == 3
    text = grid_table(result)
    assert text.splitlines()[0].split("\t") == ["gamma", "0", "1", "50", "inf"]


def test_run_grid_with_a_learned_cef_agrees_across_jobs(corpus, corpus_limits,
                                                       trained_on_corpus):
    # the pool path pickles the model into every worker
    _, _, _, model = trained_on_corpus
    grid = GridSpec(gammas=[0.2], frequencies=[5])
    runs = [run_grid(corpus[:4], model, baseline_strategy(), grid,
                     corpus_limits, jobs=jobs) for jobs in (1, 2)]
    seq, par = ([(row.key, row.solved, row.processed,
                  {pid: record_to_json(r) for pid, r in row.records.items()})
                 for row in result.rows] for result in runs)
    assert len(seq) == 3 and all(records for *_, records in seq)
    assert seq == par


def test_run_grid_empty_corpus(trained_on_corpus):
    _, _, _, model = trained_on_corpus
    grid = GridSpec(gammas=[0.2], frequencies=[5])
    result = run_grid([], model, baseline_strategy(), grid, Limits())
    assert all(not row.solved for row in result.rows)
    assert "0" in grid_table(result, csv=True).splitlines()[1]


def loop_corpus(tmp_path):
    """Four easy problems plus one drowning in decoys.

    All chains start from the shared constant c, so a model trained on the
    easy problems transfers to the hard one; the hard problem's decoys
    exhaust the processed-clause budget of the plain baseline.
    """
    easy = """
cnf(d1, axiom, (junk0(e{k}))).
cnf(d2, axiom, (~junk0(X) | junk1(X))).
cnf(d3, axiom, (~junk1(X) | junk2(X))).
cnf(f1, axiom, (p0(c))).
cnf(r1, axiom, (~p0(X) | p1(X))).
cnf(r2, axiom, (~p1(X) | p2(X))).
cnf(r3, axiom, (~p2(X) | p3(X))).
cnf(goal, negated_conjecture, (~p3(c))).
"""
    lines = []
    for d in range(8):
        for s in range(3):
            lines.append(f"cnf(hd{d}_{s}, axiom, (junk0(eh{d}_{s}))).")
        lines.append(f"cnf(hr{d}_0, axiom, (~junk0(X) | junk1(X))).")
        lines.append(f"cnf(hr{d}_1, axiom, (~junk1(X) | junk2(X))).")
        lines.append(f"cnf(hr{d}_2, axiom, (~junk2(X) | junk3(X))).")
    hard = "\n".join(lines) + """
cnf(f1, axiom, (p0(c))).
cnf(r1, axiom, (~p0(X) | p1(X))).
cnf(r2, axiom, (~p1(X) | p2(X))).
cnf(r3, axiom, (~p2(X) | p3(X))).
cnf(goal, negated_conjecture, (~p3(c))).
"""
    problems = []
    for k in range(4):
        path = tmp_path / f"easy{k}.p"
        path.write_text(easy.replace("{k}", str(k)))
        problems.append(CorpusProblem(f"easy{k}", str(path)))
    path = tmp_path / "hard.p"
    path.write_text(hard)
    problems.append(CorpusProblem("hard", str(path)))
    return problems


def test_loop_grows_the_solved_set(tmp_path):
    problems = loop_corpus(tmp_path)
    limits = Limits(max_processed=40, max_generated=20000)
    base = baseline_strategy()
    base_records = run_corpus(problems, {"0": base}, limits)
    base_solved = {pid for (_, pid), r in base_records.items()
                   if r.outcome == OUTCOME_PROOF}
    assert base_solved == {"easy0", "easy1", "easy2", "easy3"}
    texts = {p.pid: Path(p.path).read_text() for p in problems}
    for (_, pid), record in base_records.items():
        if pid in base_solved:
            assert record_proof_faults(record, texts[pid]) == [], pid

    grid = GridSpec(gammas=[0.2], frequencies=[5])
    report = loop(problems, base, rounds=2, grid=grid, limits=limits)
    assert report.rounds[0].solved == base_solved
    assert report.rounds[1].solved == {p.pid for p in problems}
    assert report.rounds[0].solved < report.rounds[1].solved
    assert len(report.models) >= 2
    # training data never shrinks across rounds
    sizes = [(r.n_positive + r.n_negative) for r in report.rounds
             if r.n_positive]
    assert sizes == sorted(sizes)


def test_a_depth_cap_past_the_parser_bound_stops_the_loop_before_any_search(
        corpus, monkeypatch):
    """Records store clauses as text that must parse back, so ``Limits``
    itself rejects a depth cap the parser would refuse to read."""
    searches = []
    monkeypatch.setattr(pipeline, "prove",
                        lambda *args, **kwargs: searches.append(args))
    grid = GridSpec(gammas=[0.2], frequencies=[5])
    with pytest.raises(ValueError, match=f"max_depth must be at most "
                                         f"{MAX_TERM_DEPTH}"):
        loop(corpus[:2], None, 1, grid,
             limits=Limits(max_depth=MAX_TERM_DEPTH + 1))
    assert searches == []
    assert Limits(max_depth=MAX_TERM_DEPTH).max_depth == MAX_TERM_DEPTH


@pytest.mark.parametrize("config,name,value", [
    (Limits(), "max_depth", MAX_TERM_DEPTH + 1),
    (Limits(), "max_processed", -5),
    (SolverConfig(), "c", float("nan")),
    (SolverConfig(), "max_epochs", 0),
])
def test_limits_and_solver_config_cannot_be_changed_past_their_checks(
        config, name, value):
    """The checks run at construction, so a field cannot be set later."""
    before = getattr(config, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, name, value)
    assert getattr(config, name) == before


def test_loop_single_round_is_plain_train_once(corpus, corpus_limits):
    subset = corpus[:4]
    grid = GridSpec(gammas=[0.2], frequencies=[5])
    report = loop(subset, baseline_strategy(), rounds=1, grid=grid,
                  limits=corpus_limits)
    assert len(report.rounds) == 2  # round 0 (baseline) + round 1 (grid)
    assert report.rounds[0].cover == ["0"]
    assert report.models, "round 0 must train a model"


def test_loop_stalls_cleanly(corpus, corpus_limits):
    subset = corpus[:3]
    grid = GridSpec(gammas=[0.2], frequencies=[5])
    report = loop(subset, baseline_strategy(), rounds=3, grid=grid,
                  limits=corpus_limits)
    assert report.stalled
    assert report.rounds[-1].new_solved == set()


# sha256 of each round's weights expanded to a dense float64 vector over all
# (size+1)^3 feature indices, and (accuracy, positive recall, negative
# recall) per trained round, recorded when the solver began to train on
# distinct vectors with multiplicities.  The default limits stall after
# round 0; a processed cap of 40 leaves problems for the grid to win, so
# three models are trained.
LOOP_PINS = {
    (1, 1000): (
        ["83da1d0661205a5ccd8b07aff49ed09d84e623befc41b98a762af573767a3fc0"],
        [(1.0, 1.0, 1.0)]),
    (2, 40): (
        ["d535fe6015c9114af2a30c0a7e235433a74f999ef1a5568628aebe01826b927a",
         "d63c3637d7f17e1070da47abbb034d7745ef57d69664067cb48f51136f719b05",
         "8a2d0fbb7dc707a213b3b77be93f50e6307b12131150fcb1f235c89a7b67280c"],
        [(1.0, 1.0, 1.0),
         (0.9490861618798956, 0.9867549668874173, 0.9245689655172413),
         (0.9225225225225225, 0.9719101123595506, 0.8767361111111112)]),
}


@pytest.mark.parametrize("rounds,cap", sorted(LOOP_PINS))
def test_loop_weights_are_pinned(corpus, rounds, cap):
    grid = GridSpec(gammas=[0.0, 0.2, 8.0], frequencies=[1, 5, 10, 30, 50])
    report = loop(corpus, None, rounds, grid, boost_k=2,
                  limits=Limits(max_processed=cap))
    digests = []
    for m in report.models:
        w = np.zeros(m.signature.dimension)
        for i, v in m.w.items():
            w[i - 1] = v
        digests.append(hashlib.sha256(w.tobytes()).hexdigest())
    scores = [(r.accuracy, r.positive_recall, r.negative_recall)
              for r in report.rounds if r.n_positive]
    assert (digests, scores) == LOOP_PINS[(rounds, cap)]


# sha256 over the JSON of a grid's proof records, sorted by (row key,
# problem): learned rows of every gamma, which share one memo per problem,
# around the model trained on round 0's baseline proofs
LEARNED_GRID_DIGEST = \
    "6358a1053f5980ff6e50f51f421f65e277d6e799e91c579ad1f71720c8dfac6c"


def test_learned_grid_records_are_pinned(corpus):
    base = baseline_strategy()
    records = run_corpus(corpus, {BASE_ALONE: base}, Limits())
    sig = Signature()
    model = train_from_examples(pool_examples(
        [records[BASE_ALONE, p.pid] for p in corpus], sig), sig)
    grid = GridSpec(gammas=[0.0, 0.2, 8.0], frequencies=[1, 5, 10, 30, 50])
    result = run_grid(corpus, model, base, grid, Limits())
    h = hashlib.sha256()
    for row in sorted(result.rows, key=lambda row: row.key):
        for pid in sorted(row.records):
            h.update(json.dumps(record_to_json(row.records[pid]),
                                sort_keys=True).encode())
            h.update(b"\n")
    assert sum(len(row.records) for row in result.rows) == 19 * len(corpus)
    assert h.hexdigest() == LEARNED_GRID_DIGEST
