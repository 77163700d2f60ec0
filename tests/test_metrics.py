"""Confusion counts, accuracy, ROC construction, AUC, and pipeline reports.

AUC is cross-checked against the Mann-Whitney pair-count statistic and the
ROC sweep against a literal one-threshold-at-a-time reconstruction.
"""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roughcut import (
    AcoParams,
    ConfusionMatrix,
    DecisionTable,
    CutSet,
    RocCurve,
    EvaluationReport,
    SplitSpec,
    accuracy,
    approximate,
    apply_cuts,
    auc,
    classify_table,
    confusion,
    cuts_from_json,
    cuts_to_json,
    default_profile,
    efb_cuts,
    evaluate_pipeline,
    generate,
    optimize,
    partition,
    report_to_json,
    roc,
    roc_to_csv,
    ruleset_from_json,
    ruleset_to_json,
    split,
)


def pair_count_auc(scores, actuals):
    """P(random positive outranks random negative), ties scoring half."""
    pos = [s for s, a in zip(scores, actuals) if a == 1]
    neg = [s for s, a in zip(scores, actuals) if a == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def sweep_roc_points(scores, actuals):
    """Rebuild the ROC by classifying at every distinct score threshold."""
    n_pos = sum(1 for a in actuals if a == 1)
    n_neg = len(actuals) - n_pos
    points = [(0.0, 0.0)]
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, a in zip(scores, actuals) if s >= t and a == 1)
        fp = sum(1 for s, a in zip(scores, actuals) if s >= t and a == 0)
        points.append((fp / n_neg, tp / n_pos))
    return points


def random_scored_instance(rng, n_max=50, tie_prone=False):
    n = int(rng.integers(2, n_max + 1))
    actuals = rng.integers(0, 2, size=n)
    while actuals.sum() in (0, n):
        actuals = rng.integers(0, 2, size=n)
    if tie_prone:
        scores = rng.integers(0, 4, size=n) / 4.0
    else:
        scores = rng.random(n)
    return scores, actuals


def test_confusion_direct_count():
    m = confusion([1, 0, 1, 0], [1, 0, 0, 1])
    assert (m.tp, m.tn, m.fp, m.fn) == (1, 1, 1, 1)
    assert m.total == 4


def test_confusion_perfect_agreement():
    m = confusion([1, 0, 1], [1, 0, 1])
    assert m.fp == 0
    assert m.fn == 0


def test_confusion_matches_independent_tally():
    rng = np.random.default_rng(401)
    preds = rng.integers(0, 2, size=600)
    actuals = rng.integers(0, 2, size=600)
    m = confusion(preds, actuals)
    counts = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
    for p, a in zip(preds, actuals):
        if p == 1 and a == 1:
            counts["tp"] += 1
        elif p == 0 and a == 0:
            counts["tn"] += 1
        elif p == 1:
            counts["fp"] += 1
        else:
            counts["fn"] += 1
    assert (m.tp, m.tn, m.fp, m.fn) == (counts["tp"], counts["tn"], counts["fp"], counts["fn"])


def test_confusion_validation():
    with pytest.raises(ValueError):
        confusion([1, 2], [0, 1])
    with pytest.raises(ValueError):
        confusion([], [])
    with pytest.raises(ValueError):
        confusion([1], [0, 1])
    with pytest.raises(ValueError):
        ConfusionMatrix(tp=-1, tn=0, fp=0, fn=0)


def test_accuracy_spot_values():
    assert accuracy(ConfusionMatrix(tp=249, tn=274, fp=39, fn=38)) == pytest.approx(
        523 / 600, abs=1e-12
    )
    assert accuracy(ConfusionMatrix(tp=1, tn=1, fp=0, fn=0)) == 1.0
    assert accuracy(ConfusionMatrix(tp=0, tn=0, fp=3, fn=7)) == 0.0
    with pytest.raises(ValueError, match="^empty confusion matrix$"):
        accuracy(ConfusionMatrix(tp=0, tn=0, fp=0, fn=0))


def test_roc_perfect_separation():
    curve = roc([0.9, 0.1], [1, 0])
    assert curve.points == ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0))
    assert curve.thresholds == (math.inf, 0.9, 0.1)
    assert auc(curve) == 1.0


def test_roc_constant_scores_is_diagonal():
    curve = roc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
    assert curve.points == ((0.0, 0.0), (1.0, 1.0))
    assert auc(curve) == pytest.approx(0.5)


def test_roc_matches_threshold_sweep():
    rng = np.random.default_rng(402)
    for tie_prone in (False, True):
        for _ in range(15):
            scores, actuals = random_scored_instance(rng, n_max=20, tie_prone=tie_prone)
            curve = roc(scores, actuals)
            expected = sweep_roc_points(scores.tolist(), actuals.tolist())
            assert len(curve.points) == len(expected)
            for got, want in zip(curve.points, expected):
                assert got == pytest.approx(want)


def loop_roc(scores, actuals):
    """``roc``'s points and thresholds built one distinct score at a time, as a Python loop."""
    scores = np.asarray(scores, dtype=np.float64)
    actuals = np.asarray(actuals, dtype=np.int64)
    n_pos, n_neg = int((actuals == 1).sum()), int((actuals == 0).sum())
    order = np.argsort(-scores, kind="stable")
    sorted_scores, sorted_actuals = scores[order], actuals[order]
    cum_tp, cum_fp = np.cumsum(sorted_actuals == 1), np.cumsum(sorted_actuals == 0)
    step_ends = np.append(np.nonzero(np.diff(sorted_scores))[0], len(sorted_scores) - 1)
    points, thresholds = [(0.0, 0.0)], [math.inf]
    for i in step_ends:
        points.append((float(cum_fp[i] / n_neg), float(cum_tp[i] / n_pos)))
        thresholds.append(float(sorted_scores[i]))
    return tuple(points), tuple(thresholds)


@settings(max_examples=200, deadline=None)
@given(case=st.integers(2, 60).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-1e300, 1e300) | st.sampled_from((0.0, -0.0, 0.5, 5e-324, 1.0)), min_size=n, max_size=n),
    st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n).filter(lambda a: 0 < sum(a) < len(a)))))
@example(case=([0.0, -0.0], [0, 1]))  # a tied step's threshold takes its last object's sign
@example(case=([-0.0, 0.0], [1, 0]))
def test_roc_matches_the_per_score_loop_bit_for_bit(case):
    scores, actuals = case
    curve = roc(scores, actuals)
    points, thresholds = loop_roc(scores, actuals)
    # the same floats bit for bit: a repr differs wherever two floats do, -0.0 included
    assert repr(curve.points) == repr(points)
    assert repr(curve.thresholds) == repr(thresholds)
    assert all(type(x) is float for point in curve.points for x in point)
    assert all(type(t) is float for t in curve.thresholds)


def test_auc_matches_pair_count():
    rng = np.random.default_rng(403)
    for tie_prone in (False, True):
        for _ in range(15):
            scores, actuals = random_scored_instance(rng, tie_prone=tie_prone)
            assert auc(roc(scores, actuals)) == pytest.approx(
                pair_count_auc(scores.tolist(), actuals.tolist()), abs=1e-9
            )


def test_auc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(404)
    scores, actuals = random_scored_instance(rng)
    base = auc(roc(scores, actuals))
    assert auc(roc(3.0 * scores + 2.0, actuals)) == pytest.approx(base, abs=1e-12)
    assert auc(roc(np.exp(scores), actuals)) == pytest.approx(base, abs=1e-12)


def test_auc_label_swap_complements():
    rng = np.random.default_rng(405)
    scores, actuals = random_scored_instance(rng)  # continuous, ties improbable
    forward = auc(roc(scores, actuals))
    swapped = auc(roc(scores, 1 - actuals))
    assert forward + swapped == pytest.approx(1.0, abs=1e-12)


def test_roc_validation():
    with pytest.raises(ValueError, match="both classes"):
        roc([0.1, 0.2], [1, 1])
    with pytest.raises(ValueError):
        roc([0.1], [1, 0])
    with pytest.raises(ValueError, match="^scores must be 1-D$"):
        roc([[0.9, 0.1]], [1, 0])
    # unchecked, the object labelled 2 was dropped and the AUC read 1.0
    with pytest.raises(ValueError, match="^object 2: actuals entry 2 is not 0 or 1$"):
        roc([0.9, 0.1, 0.5], [1, 0, 2])
    # unchecked, a NaN score sorted last, as if lowest, and the AUC read 1.0
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^scores must be finite$"):
            roc([0.9, bad, 0.5, 0.2], [1, 0, 1, 0])
    # scores are read as given: unchecked, text was parsed and 10**400 raised a bare OverflowError
    with pytest.raises(ValueError, match=r"^object 0: score '0\.9' is not a number$"):
        roc(["0.9", "0.1"], [1, 0])
    with pytest.raises(ValueError, match=r"^object 1: score '0\.1' is not a number$"):
        roc([0.9, "0.1"], [1, 0])
    with pytest.raises(ValueError, match=f"^object 1: score {10**400} is not a number$"):
        roc([0.9, 10**400], [1, 0])


def test_roccurve_shape_validation():
    with pytest.raises(ValueError, match="from \\(0,0\\) to \\(1,1\\)"):
        RocCurve(((0.0, 0.0), (0.5, 0.5)), (math.inf, 1.0))
    with pytest.raises(ValueError, match="non-decreasing"):
        RocCurve(((0.0, 0.0), (0.7, 0.5), (0.2, 0.8), (1.0, 1.0)), (math.inf, 1.0, 0.5, 0.1))
    with pytest.raises(ValueError, match="one threshold"):
        RocCurve(((0.0, 0.0), (1.0, 1.0)), (math.inf,))


def test_evaluation_report_validation():
    m = ConfusionMatrix(tp=1, tn=1, fp=0, fn=0)
    with pytest.raises(ValueError):
        EvaluationReport(m, accuracy=1.5, auc=0.5, num_rules=1,
                         num_certain_rules=1, train_time_s=0.0, test_time_s=0.0)


def separable_table():
    rng = np.random.default_rng(406)
    low = rng.uniform(0.0, 1.0, size=30)
    high = rng.uniform(5.0, 6.0, size=30)
    values = np.concatenate([low, high]).reshape(-1, 1)
    decisions = np.array([0] * 30 + [1] * 30)
    return DecisionTable(("g",), values, decisions)


def test_evaluate_pipeline_conserves_test_count():
    table = separable_table()
    cuts = CutSet(((3.0,),))
    report = evaluate_pipeline(table, table, cuts)
    assert report.matrix.total == table.n_objects


def test_evaluate_pipeline_crisp_table_is_perfect():
    table = separable_table()
    cuts = CutSet(((3.0,),))
    report = evaluate_pipeline(table, table, cuts)
    assert report.accuracy == 1.0
    assert report.num_certain_rules == report.num_rules
    # crispness, independently: the boundary region is empty
    binned = apply_cuts(table, cuts)
    part = partition(binned, [0])
    assert approximate(part, binned.decisions, 1).is_crisp


def test_report_json_fields():
    table = separable_table()
    report = evaluate_pipeline(table, table, CutSet(((3.0,),)))
    payload = report_to_json(report)
    assert payload["confusion"] == {"tp": 30, "tn": 30, "fp": 0, "fn": 0}
    assert payload["accuracy"] == 1.0
    assert payload["auc"] == 1.0
    assert payload["num_rules"] == report.num_rules
    assert payload["num_certain_rules"] == report.num_certain_rules
    assert payload["train_time_s"] >= 0.0
    assert payload["test_time_s"] >= 0.0
    # confusion first, then every other compared field in declaration order; curve and rules stay out
    compared = [f.name for f in fields(EvaluationReport) if f.compare and f.name != "matrix"]
    assert list(payload) == ["confusion", *compared]


def test_roc_to_csv_roundtrips(tmp_path):
    rng = np.random.default_rng(407)
    scores, actuals = random_scored_instance(rng)
    curve = roc(scores, actuals)
    path = tmp_path / "roc.csv"
    roc_to_csv(curve, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "threshold,fpr,tpr"
    assert len(lines) == len(curve.points) + 1
    first = lines[1].split(",")
    assert math.isinf(float(first[0]))
    last = lines[-1].split(",")
    assert (float(last[1]), float(last[2])) == (1.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(100, 800), num_cuts=st.integers(1, 3),
       discretizer=st.sampled_from(["efb", "aco"]))
def test_reloaded_rules_and_cuts_reproduce_the_report(seed, n, num_cuts, discretizer):
    table = generate(default_profile(), n, seed)
    train, test = split(table, SplitSpec(train_fraction=0.7, seed=seed))
    if discretizer == "efb":
        cuts = efb_cuts(train, num_cuts)
    else:
        params = AcoParams(num_ants=3, num_iterations=3, num_cuts=num_cuts, seed=seed)
        cuts = optimize(train, params)[0].cuts
    report = evaluate_pipeline(train, test, cuts)
    names = test.attribute_names
    rules = ruleset_from_json(json.loads(json.dumps(ruleset_to_json(report.rules))))
    reloaded_cuts = cuts_from_json(json.loads(json.dumps(cuts_to_json(cuts, names))), names)
    assert reloaded_cuts == cuts
    assert rules.rules == report.rules.rules

    decisions, scores = classify_table(report.rules, apply_cuts(test, cuts))
    reloaded_decisions, reloaded_scores = classify_table(rules, apply_cuts(test, reloaded_cuts))
    assert reloaded_decisions.tobytes() == decisions.tobytes()
    assert reloaded_scores.tobytes() == scores.tobytes()
    assert confusion(reloaded_decisions, test.decisions) == report.matrix
    assert auc(roc(reloaded_scores, test.decisions)) == report.auc
