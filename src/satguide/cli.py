"""Command-line interface for the whole pipeline.

Subcommands: featurize, prove, extract, train, eval, grid, loop.  Exit code
0 on success, 1 on a usage error (a named file that cannot be opened is
one), 2 on a runtime failure.  The ENIGMA_LOG environment variable (quiet,
info, debug) controls stderr verbosity; all randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import pipeline, saturation, svm, tptp
from .clauses import DEFAULT_SKOLEM_PREFIXES, Signature, SymbolMap
from .features import (
    clause_features, format_multiset, read_examples, write_examples,
)
from .guidance import STRATEGY_GRAMMAR, parse_strategy
from .svm import EmptyClass, SolverConfig

log = logging.getLogger("satguide")

USAGE_ERROR = 1
RUNTIME_ERROR = 2


class UsageError(Exception):
    pass


def _setup_logging() -> None:
    level = os.environ.get("ENIGMA_LOG", "quiet").lower()
    levels = {"quiet": logging.WARNING, "info": logging.INFO,
              "debug": logging.DEBUG}
    if level not in levels:
        raise UsageError(f"ENIGMA_LOG must be quiet, info or debug, not {level!r}")
    logging.basicConfig(stream=sys.stderr, level=levels[level],
                        format="%(levelname)s %(message)s")


def _check_writable(path: str | None) -> None:
    """Open an output file before any search, so that one that cannot be
    written costs no run; the OSError names the path.  A file made here
    stays empty until the command writes it."""
    if path:
        open(path, "a", encoding="utf-8").close()


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def _solver_config(args) -> SolverConfig:
    try:
        return SolverConfig(c=args.c, tolerance=args.tolerance,
                            max_epochs=args.max_epochs, seed=args.seed)
    except ValueError as exc:
        raise UsageError(f"bad -c, --tolerance or --max-epochs: {exc}") from exc


def _limits(args) -> saturation.Limits:
    try:
        return saturation.Limits(
            max_processed=args.max_processed, max_generated=args.max_generated,
            timeout=args.timeout, max_literals=args.max_literals,
            max_depth=args.max_depth)
    except ValueError as exc:
        # the message starts with the field, which names its flag
        field, rest = str(exc).split(" ", 1)
        raise UsageError(f"--{field.replace('_', '-')} {rest}") from exc


def _require_positive(args, *flags: str) -> None:
    for flag in flags:
        value = getattr(args, flag)
        if value < 1:
            raise UsageError(f"--{flag} must be >= 1, not {value}")


def _comma_list(text: str, flag: str, convert=str) -> list:
    """The nonempty items of a comma-separated flag value, converted."""
    try:
        return [convert(item) for item in text.split(",") if item]
    except ValueError as exc:
        raise UsageError(f"bad {flag} {text!r}: {exc}") from exc


def _skolem_signature(args) -> Signature:
    return Signature(tuple(_comma_list(args.skolem_prefixes, "--skolem-prefixes")))


def _strategy(spec: str):
    """The parsed strategy; a spec the grammar rejects is a usage error, a
    corrupt model file it names a runtime failure."""
    try:
        return parse_strategy(spec)
    except ValueError as exc:
        raise UsageError(f"bad --strategy {spec!r}: {exc}") from exc


def cmd_featurize(args) -> int:
    sig = _skolem_signature(args)
    clauses = tptp.read_problem(args.problem, sig)
    symbols = SymbolMap(sig, sig.freeze())
    for cid, clause in enumerate(clauses):
        counts = clause_features(clause, symbols)
        print(f"% clause {cid}: {tptp.format_clause(clause, sig)}")
        print(format_multiset(counts, sig))
    return 0


def cmd_prove(args) -> int:
    limits = _limits(args)
    strategy = _strategy(args.strategy)
    sig = Signature()
    clauses = tptp.read_problem(args.problem, sig)
    if not clauses:
        raise UsageError(f"{args.problem}: no clauses found")
    _check_writable(args.record)
    record = saturation.prove(clauses, strategy, limits, sig,
                              problem_id=args.problem,
                              inject_equality=not args.no_equality_axioms)
    print(f"{record.outcome} problem={args.problem} "
          f"processed={record.stats['processed']} "
          f"generated={record.stats['generated']}")
    if args.record:
        saturation.save_record(record, args.record)
        log.info("record written to %s", args.record)
    return 0


def cmd_extract(args) -> int:
    _require_positive(args, "boost")
    sig = _skolem_signature(args)
    path = None

    def proofs():
        # loaded one by one as they are pooled, so ``path`` names the
        # record that is malformed, is not a proof or has a clause text
        # that fails to parse
        nonlocal path
        for path in args.records:
            yield saturation.load_record(path)

    try:
        examples = pipeline.pool_examples(proofs(), sig)
    except ValueError as exc:
        raise UsageError(f"cannot load record {path}: {exc}") from exc
    rows = pipeline.boost_rows(pipeline.training_set(examples, sig), args.boost)
    with open(args.output, "w", encoding="utf-8") as fp:
        write_examples(fp, rows)
    sig_path = args.signature or args.output + ".sig"
    svm.save_signature(sig.freeze(), sig_path)
    n_pos = sum(label > 0 for _, label in rows)
    print(f"wrote {len(rows)} examples "
          f"({n_pos} positive, {len(rows) - n_pos} negative) "
          f"to {args.output}; signature to {sig_path}")
    return 0


def cmd_train(args) -> int:
    cfg = _solver_config(args)
    frozen = svm.load_signature(args.signature or args.examples + ".sig")
    rows = read_examples(args.examples, frozen.dimension)
    try:
        model = svm.train_vectors(rows, frozen, cfg)
    except EmptyClass as exc:
        raise UsageError(f"{args.examples}: {exc}") from exc
    svm.save_model(model, args.output)
    distinct = len({vec for vec, _ in rows})
    print(f"trained on {len(rows)} examples ({distinct} distinct vectors); "
          f"model written to {args.output} (epochs {model.epochs}, "
          f"{'converged' if model.converged else 'not converged'})")
    return 0


def cmd_eval(args) -> int:
    model = svm.load_model(args.model)
    rows = read_examples(args.examples, model.signature.dimension)
    report = svm.accuracy(model, rows)
    print(f"examples: {len(rows)} ({report.positives} positive, "
          f"{report.negatives} negative)")
    print(f"accuracy: {report.accuracy:.4f}")
    print(f"positive recall: {_fmt(report.positive_recall)}")
    print(f"negative recall: {_fmt(report.negative_recall)}")
    return 0


def _grid_spec(args) -> pipeline.GridSpec:
    gammas = _comma_list(args.gammas, "--gammas", float)
    frequencies = _comma_list(args.frequencies, "--frequencies", int)
    try:
        return pipeline.GridSpec(gammas, frequencies)
    except ValueError as exc:
        raise UsageError(f"bad --gammas or --frequencies: {exc}") from exc


def cmd_grid(args) -> int:
    _require_positive(args, "jobs")
    grid = _grid_spec(args)
    limits = _limits(args)
    problems = pipeline.load_manifest(args.manifest)
    model = svm.load_model(args.model)
    base = _strategy(args.base_strategy)
    _check_writable(args.csv)
    result = pipeline.run_grid(problems, model, base, grid, limits,
                               jobs=args.jobs, model_path=args.model)
    print(pipeline.grid_table(result), end="")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fp:
            fp.write(pipeline.grid_table(result, csv=True))
    cover = pipeline.greedy_cover((row.key, row.solved) for row in result.rows)
    union = set().union(*(row.solved for row in result.rows))
    print(f"solved {len(union)}/{len(problems)}; greedy cover: "
          f"{', '.join(cover) if cover else '(nothing solved)'}")
    return 0


def cmd_loop(args) -> int:
    _require_positive(args, "boost", "rounds", "jobs")
    cfg = _solver_config(args)
    limits = _limits(args)
    problems = pipeline.load_manifest(args.manifest)
    base = _strategy(args.base_strategy)
    grid = _grid_spec(args)
    # before any search, so that an unusable directory costs no run
    os.makedirs(args.output_dir, exist_ok=True)
    report = pipeline.loop(problems, base, args.rounds, grid,
                           boost_k=args.boost, limits=limits,
                           cfg=cfg, jobs=args.jobs)
    for i, model in enumerate(report.models):
        svm.save_model(model, os.path.join(args.output_dir, f"model_round{i}.bin"))
    for rr in report.rounds:
        line = (f"round {rr.round}: solved {len(rr.solved)}/{len(problems)} "
                f"(+{len(rr.new_solved)} new), cover [{', '.join(rr.cover)}]")
        if rr.n_positive:
            line += (f", examples {rr.n_positive}+/{rr.n_negative}-, "
                     f"accuracy {rr.accuracy:.4f}, "
                     f"pos recall {_fmt(rr.positive_recall)}, "
                     f"neg recall {_fmt(rr.negative_recall)}")
        else:  # only the last round can train nothing
            line += (", no new proofs to train on" if report.stalled
                     else ", not enough examples to train")
        print(line)
        if rr.grid_csv:
            with open(os.path.join(args.output_dir,
                                   f"grid_round{rr.round}.csv"),
                      "w", encoding="utf-8") as fp:
                fp.write(rr.grid_csv)
    if report.stalled:
        print("loop stalled: no new proofs")
    print(f"models written to {args.output_dir}")
    return 0


def _add_limit_flags(parser) -> None:
    limits = saturation.Limits()
    parser.add_argument("--max-processed", type=int,
                        default=limits.max_processed,
                        help="stop after this many given-clause selections")
    parser.add_argument("--max-generated", type=int,
                        default=limits.max_generated,
                        help="stop after this many generated clauses")
    parser.add_argument("--timeout", type=float, default=limits.timeout,
                        help="wall-clock limit per problem in seconds")
    parser.add_argument("--max-literals", type=int,
                        default=limits.max_literals,
                        help="discard generated clauses with more literals")
    parser.add_argument("--max-depth", type=int, default=limits.max_depth,
                        help="discard generated clauses with deeper terms")


def _add_solver_flags(parser) -> None:
    cfg = SolverConfig()
    parser.add_argument("-c", type=float, default=cfg.c,
                        help="SVM penalty parameter (must be > 0)")
    parser.add_argument("--tolerance", type=float, default=cfg.tolerance,
                        help="stop when the largest dual violation drops below this")
    parser.add_argument("--max-epochs", type=int, default=cfg.max_epochs,
                        help="cap on coordinate-descent epochs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satguide",
        description="Saturation prover with learned clause-selection guidance.")
    parser.add_argument("--seed", type=int, default=SolverConfig().seed,
                        help="seed for all randomized steps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize",
                       help="print the feature multiset of every clause in a file")
    p.add_argument("problem", help="a CNF problem file")
    p.add_argument("--skolem-prefixes", default=",".join(DEFAULT_SKOLEM_PREFIXES),
                   help="comma-separated name prefixes treated as Skolem symbols")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("prove", help="run the given-clause loop on a problem",
                       epilog=STRATEGY_GRAMMAR,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("problem", help="a CNF problem file")
    p.add_argument("--strategy", default="baseline",
                   help="strategy description, e.g. 'baseline' or "
                        "'1*Learned(model.bin,gamma=0.2)+baseline'")
    p.add_argument("--record", default=None,
                   help="write the proof-search record to this JSON file")
    p.add_argument("--no-equality-axioms", action="store_true",
                   help="do not inject equality axioms when '=' occurs")
    _add_limit_flags(p)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("extract",
                       help="turn proof records into labeled training examples")
    p.add_argument("records", nargs="+", help="proof-search record JSON files")
    p.add_argument("-o", "--output", required=True,
                   help="examples file to write (sparse text format)")
    p.add_argument("--signature", default=None,
                   help="signature table to write (default: <output>.sig)")
    p.add_argument("--boost", type=int, default=1,
                   help="repeat positive examples this many times")
    p.add_argument("--skolem-prefixes", default=",".join(DEFAULT_SKOLEM_PREFIXES),
                   help="comma-separated name prefixes treated as Skolem symbols")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a clause classifier")
    p.add_argument("examples", help="examples file in the sparse text format")
    p.add_argument("-o", "--output", required=True, help="model file to write")
    p.add_argument("--signature", default=None,
                   help="signature table written by extract (default: <examples>.sig)")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval",
                       help="report accuracy and per-class recall of a model")
    p.add_argument("model", help="model file written by train")
    p.add_argument("examples", help="examples file in the sparse text format")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grid",
                       help="evaluate a grid of guided strategies on a corpus",
                       epilog=STRATEGY_GRAMMAR,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("manifest", help="corpus manifest: one '<id> <path>' per line")
    p.add_argument("--model", required=True, help="model file written by train")
    p.add_argument("--base-strategy", default="baseline",
                   help="strategy the learned CEF is added to")
    p.add_argument("--gammas", default="0,0.1,0.2,0.4,0.7,1,2,4,8",
                   help="comma-separated gamma values")
    p.add_argument("--frequencies", default="1,5,6,7,8,9,10,15,20,30,40,50",
                   help="comma-separated frequencies for the learned CEF")
    p.add_argument("--csv", default=None, help="also write the table as CSV")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for corpus runs")
    _add_limit_flags(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("loop",
                       help="train, grid, cover and retrain for several rounds",
                       epilog=STRATEGY_GRAMMAR,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("manifest", help="corpus manifest: one '<id> <path>' per line")
    p.add_argument("--rounds", type=int, default=1,
                   help="number of grid-and-retrain rounds")
    p.add_argument("--boost", type=int, default=1,
                   help="repeat positive examples this many times")
    p.add_argument("--base-strategy", default="baseline",
                   help="strategy used for the initial solves")
    p.add_argument("--gammas", default="0,0.2,8",
                   help="comma-separated gamma values")
    p.add_argument("--frequencies", default="1,5,10,30,50",
                   help="comma-separated frequencies for the learned CEF")
    p.add_argument("-o", "--output-dir", default="loop-out",
                   help="directory for models and per-round tables")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for corpus runs")
    _add_limit_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_loop)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        _setup_logging()
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        if exc.filename is None:  # not a file named on the command line
            print(f"error: {exc}", file=sys.stderr)
            return RUNTIME_ERROR
        print(f"error: cannot open {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # runtime failures map to exit code 2
        log.debug("unhandled failure", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
