"""Per-layer metrics of one traced unit (one set-up plus one operation).

Each entry is (name, unit, better, exact). ``exact`` marks counts that must
repeat bit for bit between traced units of the same workload and seed; later
changes may cite those as counts. A layer a workload never calls reports 0.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict

from tracing import layer_self_time, self_times


def _metric(name, unit, better, exact=False):
    return (name, unit, better, exact)


PER_LAYER = [
    _metric("aco.optimize.total_s", "s", "lower"),
    _metric("aco.optimize.self_s", "s", "lower"),
    _metric("aco.construct_solution.calls", "count", "lower", True),
    _metric("aco.construct_solution.total_s", "s", "lower"),
    _metric("aco.construct_solution.self_s", "s", "lower"),
    _metric("aco.select_next.calls", "count", "lower", True),
    _metric("aco.select_next.total_s", "s", "lower"),
    _metric("aco.evaluate_solution.calls", "count", "lower", True),
    _metric("aco.evaluate_solution.total_s", "s", "lower"),
    _metric("aco.evaluate_solution.self_s", "s", "lower"),
    _metric("aco.update_pheromones.calls", "count", "lower", True),
    _metric("aco.update_pheromones.total_s", "s", "lower"),
    _metric("aco.iter_ms.p50", "ms", "lower"),
    _metric("aco.iter_ms.p90", "ms", "lower"),
    _metric("aco.busy_ratio", "ratio", "higher"),
    _metric("aco.distinct_ratio", "ratio", "higher", True),
    _metric("aco.improving_ratio", "ratio", "higher", True),
    _metric("aco.iterations_to_best", "count", "lower", True),
    _metric("discretize.apply_cuts.calls", "count", "lower", True),
    _metric("discretize.apply_cuts.total_s", "s", "lower"),
    _metric("discretize.apply_cuts.rows", "count", "lower", True),
    _metric("discretize.efb_cuts.calls", "count", "lower", True),
    _metric("discretize.efb_cuts.total_s", "s", "lower"),
    _metric("discretize.percentile_value_grid.total_s", "s", "lower"),
    _metric("roughset.induce_rules.calls", "count", "lower", True),
    _metric("roughset.induce_rules.total_s", "s", "lower"),
    _metric("roughset.induce_rules.rows", "count", "lower", True),
    _metric("roughset.classify_table.calls", "count", "lower", True),
    _metric("roughset.classify_table.total_s", "s", "lower"),
    _metric("roughset.classify_table.rows", "count", "lower", True),
    _metric("roughset.rules_per_row", "ratio", "lower", True),
    _metric("roughset.unmatched_frac", "ratio", "lower", True),
    _metric("metrics.evaluate_pipeline.calls", "count", "lower", True),
    _metric("metrics.evaluate_pipeline.total_s", "s", "lower"),
    _metric("metrics.evaluate_pipeline.self_s", "s", "lower"),
    _metric("metrics.roc.total_s", "s", "lower"),
    _metric("metrics.roc.points", "count", "lower", True),
    _metric("metrics.confusion.total_s", "s", "lower"),
    _metric("metrics.auc.total_s", "s", "lower"),
    _metric("data.write_csv.total_s", "s", "lower"),
    _metric("data.write_csv.mb_per_s", "MB/s", "higher"),
    _metric("data.load_csv.total_s", "s", "lower"),
    _metric("data.load_csv.mb_per_s", "MB/s", "higher"),
    _metric("data.load_csv.rows", "count", "lower", True),
    _metric("data.split.total_s", "s", "lower"),
    _metric("synth.generate.calls", "count", "lower", True),
    _metric("synth.generate.total_s", "s", "lower"),
    _metric("cli.main.total_s", "s", "lower"),
    _metric("cli.main.self_s", "s", "lower"),
    _metric("cli.stderr_lines", "count", "lower", True),
    _metric("trace.op_s", "s", "lower"),
    _metric("trace.untraced_op_s", "s", "lower"),
    _metric("trace.overhead_s", "s", "lower"),
]

EXACT = [name for name, _, _, exact in PER_LAYER if exact]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _unmatched(args, kwargs, result):
    rules, table = _arg(args, kwargs, 0, "rules"), _arg(args, kwargs, 1, "table")
    missing = sum(1 for key in map(tuple, table.bins.tolist()) if rules.lookup(key) is None)
    return {"rows": table.n_objects, "unmatched": missing}


# Values recorded on spans after each call, outside the span's own timing.
EXTRAS = {
    "discretize.apply_cuts": lambda a, k, r: {"rows": _arg(a, k, 0, "table").n_objects},
    "roughset.induce_rules": lambda a, k, r: {
        "rows": _arg(a, k, 0, "table").n_objects, "rules": len(r.rules)},
    "roughset.classify_table": _unmatched,
    "metrics.roc": lambda a, k, r: {"points": len(r.points)},
    "data.write_csv": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "data.load_csv": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 0, "path")), "rows": r.n_objects},
    "aco.update_pheromones": lambda a, k, r: {
        "ants": [[s.percentiles, s.cost] for s in _arg(a, k, 1, "solutions")]},
}


def _ratio(num, den):
    return num / den if den else 0.0


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def unit_metrics(spans, stderr_lines) -> dict:
    """PER_LAYER values of one traced unit, except the run-level ``trace.*`` ones.

    ``spans`` are the unit's spans only; ``stderr_lines`` is what the
    operation wrote to stderr.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    self_time = self_times(spans)

    def calls(n):
        return len(by_name[n])

    def total(n):
        return sum(s.duration for s in by_name[n])

    def self_s(n):
        return sum(self_time[s.id] for s in by_name[n])

    def extra(n, key):
        return sum(s.extra[key] for s in by_name[n])

    intervals, ants = [], []
    for opt in by_name["aco.optimize"]:
        updates = sorted(
            (u for u in by_name["aco.update_pheromones"]
             if u.tid == opt.tid and opt.t0 <= u.t0 and u.t1 <= opt.t1),
            key=lambda u: u.t1,
        )
        previous = opt.t0
        for u in updates:
            intervals.append((u.t1 - previous) * 1e3)
            previous = u.t1
            ants.append(u.extra["ants"])

    improving, best, best_iteration = 0, None, 0
    for iteration, solutions in enumerate(ants, start=1):
        for _, cost in solutions:
            if best is None or cost < best:
                best, best_iteration = cost, iteration
                improving += 1
    n_ants = sum(len(solutions) for solutions in ants)
    distinct = len({tuple(map(tuple, p)) for solutions in ants for p, _ in solutions})

    cli_self = sum(layer_self_time(s, spans) for s in by_name["cli.main"])
    write_bytes, load_bytes = extra("data.write_csv", "bytes"), extra("data.load_csv", "bytes")

    values = {
        "aco.optimize.total_s": total("aco.optimize"),
        "aco.optimize.self_s": self_s("aco.optimize"),
        "aco.construct_solution.calls": calls("aco.construct_solution"),
        "aco.construct_solution.total_s": total("aco.construct_solution"),
        "aco.construct_solution.self_s": self_s("aco.construct_solution"),
        "aco.select_next.calls": calls("aco.select_next"),
        "aco.select_next.total_s": total("aco.select_next"),
        "aco.evaluate_solution.calls": calls("aco.evaluate_solution"),
        "aco.evaluate_solution.total_s": total("aco.evaluate_solution"),
        "aco.evaluate_solution.self_s": self_s("aco.evaluate_solution"),
        "aco.update_pheromones.calls": calls("aco.update_pheromones"),
        "aco.update_pheromones.total_s": total("aco.update_pheromones"),
        "aco.iter_ms.p50": _quantile(intervals, 50),
        "aco.iter_ms.p90": _quantile(intervals, 90),
        "aco.busy_ratio": _ratio(
            total("aco.construct_solution") + total("aco.evaluate_solution"), total("aco.optimize")),
        "aco.distinct_ratio": _ratio(distinct, n_ants),
        "aco.improving_ratio": _ratio(improving, n_ants),
        "aco.iterations_to_best": best_iteration,
        "discretize.apply_cuts.calls": calls("discretize.apply_cuts"),
        "discretize.apply_cuts.total_s": total("discretize.apply_cuts"),
        "discretize.apply_cuts.rows": extra("discretize.apply_cuts", "rows"),
        "discretize.efb_cuts.calls": calls("discretize.efb_cuts"),
        "discretize.efb_cuts.total_s": total("discretize.efb_cuts"),
        "discretize.percentile_value_grid.total_s": total("discretize.percentile_value_grid"),
        "roughset.induce_rules.calls": calls("roughset.induce_rules"),
        "roughset.induce_rules.total_s": total("roughset.induce_rules"),
        "roughset.induce_rules.rows": extra("roughset.induce_rules", "rows"),
        "roughset.classify_table.calls": calls("roughset.classify_table"),
        "roughset.classify_table.total_s": total("roughset.classify_table"),
        "roughset.classify_table.rows": extra("roughset.classify_table", "rows"),
        "roughset.rules_per_row": _ratio(
            extra("roughset.induce_rules", "rules"), extra("roughset.induce_rules", "rows")),
        "roughset.unmatched_frac": _ratio(
            extra("roughset.classify_table", "unmatched"), extra("roughset.classify_table", "rows")),
        "metrics.evaluate_pipeline.calls": calls("metrics.evaluate_pipeline"),
        "metrics.evaluate_pipeline.total_s": total("metrics.evaluate_pipeline"),
        "metrics.evaluate_pipeline.self_s": self_s("metrics.evaluate_pipeline"),
        "metrics.roc.total_s": total("metrics.roc"),
        "metrics.roc.points": extra("metrics.roc", "points"),
        "metrics.confusion.total_s": total("metrics.confusion"),
        "metrics.auc.total_s": total("metrics.auc"),
        "data.write_csv.total_s": total("data.write_csv"),
        "data.write_csv.mb_per_s": _ratio(write_bytes / 1e6, total("data.write_csv")),
        "data.load_csv.total_s": total("data.load_csv"),
        "data.load_csv.mb_per_s": _ratio(load_bytes / 1e6, total("data.load_csv")),
        "data.load_csv.rows": extra("data.load_csv", "rows"),
        "data.split.total_s": total("data.split"),
        "synth.generate.calls": calls("synth.generate"),
        "synth.generate.total_s": total("synth.generate"),
        "cli.main.total_s": total("cli.main"),
        "cli.main.self_s": cli_self,
        "cli.stderr_lines": stderr_lines,
    }
    return values
