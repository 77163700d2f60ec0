"""Command-line pipeline: generate synthetic data, train/evaluate with either
discretizer, or compare both on one shared split.

Commands write machine-diffable JSON plus CSV curve data; every command is
deterministic given its flags and seed (timing fields aside).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable

from . import synth
from .aco import AcoParams, optimize, write_history_csv
from .data import CLIP_PERCENTILES, DecisionTable, SplitSpec, clip_outliers, load_csv, split, write_csv
from .discretize import CutSet, cuts_to_json, efb_cuts
from .metrics import EvaluationReport, evaluate_pipeline, report_to_json, roc_to_csv
from .roughset import ruleset_to_json


def _params(args) -> tuple[SplitSpec, AcoParams]:
    """Check the workers, split and colony flags, in that order, before any file is read."""
    if args.workers < 1:
        raise ValueError("--workers must be positive")
    split_spec = SplitSpec(train_fraction=args.train_frac, seed=args.seed)
    params = AcoParams(num_ants=args.ants, num_iterations=args.iters, alpha=args.alpha,
                       rho=args.rho, q_deposit=args.q, num_cuts=args.cuts, seed=args.seed)
    return split_spec, params


def _synthetic(args, n: int, flag: str) -> DecisionTable:
    """``n`` objects from --profile (or the packaged profile) and --seed; ``flag`` names n if too small."""
    if n < synth.MIN_OBJECTS:
        raise ValueError(f"{flag} must be at least {synth.MIN_OBJECTS}")
    profile = synth.load_profile(args.profile) if args.profile else synth.default_profile()
    return synth.generate(profile, n, args.seed)


def _load_split(args, split_spec: SplitSpec) -> tuple[DecisionTable, DecisionTable]:
    """Load --data or generate --synth-n objects, clip if asked, and split into train and test."""
    if args.data is not None and args.profile is not None:
        raise ValueError("--profile applies only to --synth-n")
    table = load_csv(args.data) if args.data is not None else _synthetic(args, args.synth_n, "--synth-n")
    if args.clip_outliers:
        table = clip_outliers(table)
    return split(table, split_spec)


def _train_arm(
    discretizer: str, params: AcoParams, train: DecisionTable, test: DecisionTable
) -> tuple[EvaluationReport, CutSet, list]:
    """Compute cuts with one discretizer, then evaluate; returns report, cuts, history."""
    history = []
    t0 = perf_counter()
    if discretizer == "efb":
        cuts = efb_cuts(train, params.num_cuts)
    else:
        def progress(stats):
            print(f"iteration {stats.iteration}: best_cost={stats.best_cost:.6f}", file=sys.stderr)

        best, history = optimize(train, params, progress=progress)
        cuts = best.cuts
    cut_time = perf_counter() - t0
    report = evaluate_pipeline(train, test, cuts, cut_time_s=cut_time)
    return report, cuts, history


def _report_payload(report: EvaluationReport, discretizer: str, seed: int) -> dict:
    return {"discretizer": discretizer, **report_to_json(report), "seed": seed}


def _write_json(payload: dict, path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_outputs(out: Path, writers: dict[str, Callable[[Path], None]]) -> None:
    """Write each named file into ``out``; if one fails, remove the files already written."""
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for name, write in writers.items():
            written.append(out / name)
            write(written[-1])
    except BaseException:
        for path in written:
            if not path.is_dir():  # a directory in the way: the writer's error is the one to raise
                path.unlink(missing_ok=True)
        raise


def _comparison_text(reports: dict[str, EvaluationReport]) -> str:
    titles = {"efb": "Equal Frequency Bin", "aco": "Ant Colony Optimized"}
    lines = []
    for key in ("efb", "aco"):
        r = reports[key]
        m = r.matrix
        lines.append(titles[key])
        lines.append(
            f"{'':>4}{'PP':>8}{'PN':>8}{'AUC':>8}{'# of Rules':>12}"
            f"{'Train Time(s)':>15}{'Test Time(s)':>14}"
        )
        lines.append(
            f"{'AP':>4}{m.tp:>8}{m.fn:>8}{r.auc:>8.3f}{r.num_rules:>12}"
            f"{r.train_time_s:>15.3f}{r.test_time_s:>14.4f}"
        )
        lines.append(f"{'AN':>4}{m.fp:>8}{m.tn:>8}")
        lines.append("")
    return "\n".join(lines)


def cmd_generate(args) -> int:
    table = _synthetic(args, args.n, "--n")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(table, args.out)
    healthy, faulty = table.class_counts()
    print(f"wrote {args.out}: {table.n_objects} objects, {healthy} healthy / {faulty} faulty")
    return 0


def cmd_run(args) -> int:
    split_spec, params = _params(args)
    train, test = _load_split(args, split_spec)
    report, cuts, history = _train_arm(args.discretizer, params, train, test)
    payload = _report_payload(report, args.discretizer, args.seed)
    payload["cuts_file"] = "cuts.json"

    writers = {
        "report.json": lambda path: _write_json(payload, path),
        "rules.json": lambda path: _write_json(ruleset_to_json(report.rules), path),
        "cuts.json": lambda path: _write_json(cuts_to_json(cuts, train.attribute_names), path),
        "roc.csv": lambda path: roc_to_csv(report.curve, path),
    }
    if args.discretizer == "aco":
        writers["convergence.csv"] = lambda path: write_history_csv(history, path)
    _write_outputs(args.out, writers)
    print(
        f"{args.discretizer}: accuracy={report.accuracy:.4f} auc={report.auc:.4f} "
        f"rules={report.num_rules} -> {args.out}"
    )
    return 0


def cmd_compare(args) -> int:
    split_spec, params = _params(args)
    train, test = _load_split(args, split_spec)  # one shared split for both arms

    reports: dict[str, EvaluationReport] = {}
    for arm in ("efb", "aco"):
        reports[arm], _, _ = _train_arm(arm, params, train, test)

    deltas = {
        "accuracy": reports["aco"].accuracy - reports["efb"].accuracy,
        "auc": reports["aco"].auc - reports["efb"].auc,
        "num_rules": reports["aco"].num_rules - reports["efb"].num_rules,
        "train_time_s": reports["aco"].train_time_s - reports["efb"].train_time_s,
    }
    payload = {
        "efb": _report_payload(reports["efb"], "efb", args.seed),
        "aco": _report_payload(reports["aco"], "aco", args.seed),
        "deltas": deltas,
        "test_objects": test.n_objects,
    }
    text = _comparison_text(reports)
    _write_outputs(args.out, {
        "compare.json": lambda path: _write_json(payload, path),
        "compare.txt": lambda path: path.write_text(text, encoding="utf-8"),
    })
    print(text, end="")
    return 0


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", type=Path, help="CSV decision table (last column 'label')")
    source.add_argument("--synth-n", type=int, help="generate a synthetic table of this size")
    parser.add_argument("--profile", type=Path, help="gas profile JSON for synthetic data")
    parser.add_argument("--train-frac", type=float, default=0.7, help="training fraction (default %(default)s)")
    parser.add_argument("--seed", type=int, default=0, help="seed for generation, split, and search (default %(default)s)")
    parser.add_argument("--out", type=Path, required=True, help="output directory")
    parser.add_argument("--cuts", type=int, default=AcoParams.num_cuts, help="cuts per attribute (default %(default)s)")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; the ACO search runs on one thread (default %(default)s)")
    parser.add_argument("--clip-outliers", action="store_true",
                        help=f"clip each attribute to its {list(CLIP_PERCENTILES)} percentile range")
    parser.add_argument("--ants", type=int, default=AcoParams.num_ants, help="ACO: number of ants (default %(default)s)")
    parser.add_argument("--iters", type=int, default=AcoParams.num_iterations, help="ACO: iterations (default %(default)s)")
    parser.add_argument("--alpha", type=float, default=AcoParams.alpha, help="ACO: pheromone exponent (default %(default)s)")
    parser.add_argument("--rho", type=float, default=AcoParams.rho, help="ACO: evaporation constant (default %(default)s)")
    parser.add_argument("--q", type=float, default=AcoParams.q_deposit, help="ACO: deposit constant (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughcut",
        description="Rough-set rule induction with EFB or ant-colony-optimized discretization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic nine-gas CSV")
    gen.add_argument("--n", type=int, required=True, help=f"number of objects (>= {synth.MIN_OBJECTS})")
    gen.add_argument("--seed", type=int, default=0, help="generator seed (default %(default)s)")
    gen.add_argument("--profile", type=Path, help="gas profile JSON (default: packaged profile)")
    gen.add_argument("--out", type=Path, required=True, help="output CSV path")

    run = sub.add_parser("run", help="train and evaluate one discretizer")
    run.add_argument("--discretizer", choices=("efb", "aco"), required=True)
    _add_shared_flags(run)

    cmp_ = sub.add_parser("compare", help="run both discretizers on one shared split")
    _add_shared_flags(cmp_)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "run":
            return cmd_run(args)
        return cmd_compare(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
