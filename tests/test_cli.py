"""End-to-end command-line behavior: generate, run, and compare."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughcut import (
    GAS_NAMES, SplitSpec, accuracy, apply_cuts, auc, classify_table, confusion, cuts_from_json,
    default_profile, generate, load_csv, profile_to_json, roc, ruleset_from_json, split,
)
import roughcut.synth as synth
from roughcut.cli import main

TIMING_KEYS = ("train_time_s", "test_time_s")

REPORT_KEYS = {
    "discretizer", "confusion", "accuracy", "auc", "num_rules",
    "num_certain_rules", "train_time_s", "test_time_s", "seed", "cuts_file",
}


def without_timings(payload):
    return {k: v for k, v in payload.items() if k not in TIMING_KEYS}


def run_args(out, discretizer="efb", n=300, seed=2, extra=()):
    return [
        "run", "--discretizer", discretizer, "--synth-n", str(n),
        "--seed", str(seed), "--out", str(out), *extra,
    ]


def test_generate_writes_header_and_rows(tmp_path, capsys):
    out = tmp_path / "dga.csv"
    assert main(["generate", "--n", "50", "--seed", "7", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 51
    assert lines[0] == ",".join(GAS_NAMES) + ",label"
    message = capsys.readouterr().out
    assert "50 objects" in message
    table = load_csv(out)
    assert table.n_objects == 50


def test_generate_is_byte_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    main(["generate", "--n", "40", "--seed", "3", "--out", str(first)])
    main(["generate", "--n", "40", "--seed", "3", "--out", str(second)])
    assert first.read_bytes() == second.read_bytes()


def test_generate_rejects_small_n(tmp_path, capsys):
    out = tmp_path / "dga.csv"
    assert main(["generate", "--n", "5", "--out", str(out)]) == 1
    assert "at least" in capsys.readouterr().err
    assert not out.exists()


def test_run_efb_writes_declared_outputs(tmp_path):
    out = tmp_path / "efb"
    assert main(run_args(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == REPORT_KEYS
    assert report["discretizer"] == "efb"
    assert report["seed"] == 2
    assert report["cuts_file"] == "cuts.json"
    assert set(report["confusion"]) == {"tp", "tn", "fp", "fn"}
    assert sum(report["confusion"].values()) == 90  # 30% of 300
    assert 0.0 <= report["accuracy"] <= 1.0
    assert 0.0 <= report["auc"] <= 1.0

    cuts = json.loads((out / "cuts.json").read_text())
    assert set(cuts) == set(GAS_NAMES)
    rules = json.loads((out / "rules.json").read_text())
    assert rules["rules"]
    assert len(rules["attribute_bin_counts"]) == 9
    roc_lines = (out / "roc.csv").read_text().strip().splitlines()
    assert roc_lines[0] == "threshold,fpr,tpr"
    assert len(roc_lines) >= 3
    assert not (out / "convergence.csv").exists()


def test_run_aco_writes_convergence(tmp_path, capsys):
    out = tmp_path / "aco"
    assert main(run_args(out, discretizer="aco", extra=["--iters", "6", "--ants", "3"])) == 0
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,best_cost,mean_cost"
    assert len(lines) == 7
    bests = [float(line.split(",")[1]) for line in lines[1:]]
    assert bests == sorted(bests, reverse=True)
    # one progress line per iteration on stderr, stdout stays pipeable
    err = capsys.readouterr().err
    assert err.count("best_cost=") == 6


def test_run_aco_is_deterministic_excluding_timings(tmp_path):
    extra = ["--iters", "4", "--ants", "4", "--workers", "1"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(run_args(out_a, discretizer="aco", seed=3, extra=extra))
    main(run_args(out_b, discretizer="aco", seed=3, extra=extra))
    report_a = json.loads((out_a / "report.json").read_text())
    report_b = json.loads((out_b / "report.json").read_text())
    assert without_timings(report_a) == without_timings(report_b)
    assert (out_a / "cuts.json").read_bytes() == (out_b / "cuts.json").read_bytes()
    assert (out_a / "rules.json").read_bytes() == (out_b / "rules.json").read_bytes()
    assert (out_a / "convergence.csv").read_bytes() == (out_b / "convergence.csv").read_bytes()


def test_run_worker_count_does_not_change_outputs(tmp_path):
    out_serial = tmp_path / "w1"
    out_parallel = tmp_path / "w4"
    base = ["--iters", "4", "--ants", "5"]
    main(run_args(out_serial, discretizer="aco", seed=6, extra=base + ["--workers", "1"]))
    main(run_args(out_parallel, discretizer="aco", seed=6, extra=base + ["--workers", "4"]))
    report_serial = json.loads((out_serial / "report.json").read_text())
    report_parallel = json.loads((out_parallel / "report.json").read_text())
    assert without_timings(report_serial) == without_timings(report_parallel)
    assert (out_serial / "cuts.json").read_bytes() == (out_parallel / "cuts.json").read_bytes()


def test_run_rejects_nonpositive_workers(tmp_path, capsys):
    out = tmp_path / "run"
    for workers in ("0", "-1"):
        assert main(run_args(out, extra=["--workers", workers])) == 1
        assert "--workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("discretizer", ["efb", "aco"])
def test_run_outputs_reload_and_reproduce_the_report(tmp_path, discretizer):
    out = tmp_path / discretizer
    assert main(run_args(out, discretizer=discretizer, n=400, seed=5,
                         extra=["--iters", "3", "--ants", "3"])) == 0
    report = json.loads((out / "report.json").read_text())
    rules = ruleset_from_json(json.loads((out / "rules.json").read_text()))
    _, test = split(generate(default_profile(), 400, 5), SplitSpec(train_fraction=0.7, seed=5))
    cuts = cuts_from_json(json.loads((out / "cuts.json").read_text()), test.attribute_names)
    predictions, scores = classify_table(rules, apply_cuts(test, cuts))
    matrix = confusion(predictions, test.decisions)
    assert report["confusion"] == {"tp": matrix.tp, "tn": matrix.tn, "fp": matrix.fp, "fn": matrix.fn}
    assert report["accuracy"] == accuracy(matrix)
    assert report["auc"] == auc(roc(scores, test.decisions))


def test_run_aco_default_iteration_count(tmp_path):
    out = tmp_path / "defaults"
    assert main(run_args(out, discretizer="aco", n=400, seed=1)) == 0
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert len(lines) == 101
    bests = [float(line.split(",")[1]) for line in lines[1:]]
    assert bests == sorted(bests, reverse=True)


def test_run_accepts_csv_input(tmp_path):
    csv_path = tmp_path / "data.csv"
    main(["generate", "--n", "200", "--seed", "4", "--out", str(csv_path)])
    out = tmp_path / "run"
    args = [
        "run", "--discretizer", "efb", "--data", str(csv_path),
        "--seed", "4", "--out", str(out),
    ]
    assert main(args) == 0
    assert (out / "report.json").exists()


def test_run_missing_data_file_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "run"
    args = [
        "run", "--discretizer", "efb", "--data", str(tmp_path / "nope.csv"),
        "--out", str(out),
    ]
    assert main(args) == 1
    assert capsys.readouterr().err.strip()
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", [["run", "--discretizer", "efb"], ["compare"]])
@pytest.mark.parametrize("source", ["--data", "--profile"])
def test_missing_input_file_is_one_error_line(tmp_path, capsys, command, source):
    missing = tmp_path / "nope"
    flags = [source, str(missing)] if source == "--data" else ["--synth-n", "300", source, str(missing)]
    out = tmp_path / "out"
    assert main([*command, *flags, "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")
    assert str(missing) in line
    assert not out.exists()


def test_profile_with_data_is_rejected(tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    profile_path = tmp_path / "profile.json"
    assert main(["generate", "--n", "50", "--out", str(csv_path)]) == 0
    profile_path.write_text(json.dumps(profile_to_json(default_profile())))
    capsys.readouterr()
    out = tmp_path / "run"
    args = ["run", "--discretizer", "efb", "--data", str(csv_path),
            "--profile", str(profile_path), "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err.splitlines() == ["error: --profile applies only to --synth-n"]
    assert not out.exists()


def edited_profile(edit):
    """The default profile's JSON text after ``edit`` changes its payload in place."""
    payload = profile_to_json(default_profile())
    edit(payload)
    return json.dumps(payload)


@pytest.mark.parametrize("payload, field", [
    ("[1, 2]", "profile field gases is missing"),
    (edited_profile(lambda p: p["gases"].pop("h2")), "profile field gases.h2 is missing"),
    (edited_profile(lambda p: p.update(latent_weight=None)),
     "profile field latent_weight is not a number: None"),
    (edited_profile(lambda p: p.update(fault_fraction="0.3")),
     "profile field fault_fraction is not a number: '0.3'"),
], ids=["json-array", "missing-gas", "null-number", "text-number"])
def test_malformed_profile_is_one_error_line(tmp_path, capsys, payload, field):
    profile_path, out = tmp_path / "profile.json", tmp_path / "out.csv"
    profile_path.write_text(payload)
    assert main(["generate", "--n", "100", "--profile", str(profile_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {field}"]
    assert not out.exists()


@pytest.mark.parametrize("command", [["run", "--discretizer", "aco"], ["compare"]])
def test_too_small_synth_n_names_the_flag(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([*command, "--synth-n", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: --synth-n must be at least 10"]
    assert not out.exists()


@pytest.mark.parametrize("message", ["Unable to allocate 8.00 EiB for an array with shape (2**60,)", ""])
@pytest.mark.parametrize("command", [["run", "--discretizer", "aco", "--synth-n", "300"],
                                     ["compare", "--synth-n", "300"], ["generate", "--n", "300"]])
def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, command, message):
    # a stand-in: whether a really huge allocation fails at once depends on the host
    def out_of_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(synth, "generate", out_of_memory)
    out = tmp_path / "out"
    assert main([*command, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message or 'MemoryError'}"]
    assert not out.exists()


@pytest.mark.parametrize("command, taken", [(["run", "--discretizer", "efb"], "cuts.json"),
                                            (["compare"], "compare.txt")])
def test_outputs_written_before_a_failing_one_are_removed(tmp_path, capsys, command, taken):
    # a directory holds the name of a later output, so the outputs written before it are removed
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    assert main([*command, "--synth-n", "300", "--iters", "2", "--out", str(out)]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("iteration ")]
    assert len(errors) == 1 and errors[0].startswith("error: ") and taken in errors[0]
    assert [path.name for path in out.iterdir()] == [taken]


def test_run_efb_still_checks_the_colony_flags(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(run_args(out, extra=["--ants", "0"])) == 1
    assert "num_ants" in capsys.readouterr().err
    assert not out.exists()


def test_flags_are_checked_before_any_file_is_read(tmp_path, capsys):
    # split flags first, then colony flags, then the data source
    out = tmp_path / "run"
    args = ["run", "--discretizer", "efb", "--data", str(tmp_path / "nope.csv"),
            "--train-frac", "2", "--ants", "0", "--out", str(out)]
    assert main(args) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert "train_fraction" in line
    assert not out.exists()


def generated_cells(tmp_path):
    """Header cells and data rows (lists of cells) of a 300-row `roughcut generate` CSV."""
    path = tmp_path / "generated.csv"
    assert main(["generate", "--n", "300", "--seed", "4", "--out", str(path)]) == 0
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return header, rows


def run_on_cells(tmp_path, header, rows, *extra):
    """`roughcut run` on a CSV of these cells; returns the exit code and the output directory."""
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("".join(",".join(cells) + "\n" for cells in [header, *rows]))
    out = tmp_path / "run"
    return main(["run", "--data", str(csv_path), "--out", str(out), *extra]), out


def test_run_rejects_duplicate_attribute_names(tmp_path, capsys):
    header, rows = generated_cells(tmp_path)
    header[3] = header[0]
    code, out = run_on_cells(tmp_path, header, rows, "--discretizer", "efb")
    assert code == 1
    assert capsys.readouterr().err.strip() == f"error: duplicate attribute name {header[0]!r}"
    assert not (out / "cuts.json").exists()


@pytest.mark.parametrize("discretizer", ["efb", "aco"])
def test_run_accepts_a_constant_column(tmp_path, discretizer):
    header, rows = generated_cells(tmp_path)
    for row in rows:
        row[2] = "7.5"
    code, out = run_on_cells(tmp_path, header, rows, "--discretizer", discretizer, "--iters", "5")
    assert code == 0
    cuts = json.loads((out / "cuts.json").read_text())
    assert cuts[header[2]] == []
    assert len(cuts) == 9


def test_run_rejects_a_single_class_table(tmp_path, capsys):
    header, rows = generated_cells(tmp_path)
    for row in rows:
        row[-1] = "0"
    code, out = run_on_cells(tmp_path, header, rows, "--discretizer", "efb", "--clip-outliers")
    assert code == 1
    err = capsys.readouterr().err
    assert err.strip() == "error: split requires at least 2 objects of each decision class"
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


def test_run_aco_reports_a_fit_split_without_both_classes(tmp_path, capsys):
    # two faulty objects: the train/test split puts one on each side, so
    # the ACO's own fit/validation split of the training part cannot
    # give both of its parts a faulty object
    csv_path = tmp_path / "data.csv"
    labels = [1, 1] + [0] * 18
    rows = [f"{i},{2 * i},{label}" for i, label in enumerate(labels)]
    csv_path.write_text("a,b,label\n" + "\n".join(rows) + "\n")
    out = tmp_path / "run"
    args = ["run", "--discretizer", "aco", "--data", str(csv_path), "--iters", "2", "--out", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the ACO fit/validation split (FIT_FRACTION = 0.8)")
    assert "13 objects of class 0 and 1 of class 1 cannot hold both classes" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("alpha, total", [("100", "0.0"), ("200", "inf")])
def test_run_aco_rejects_an_alpha_whose_weights_leave_float_range(tmp_path, capsys, alpha, total):
    # at 200, tau ** alpha overflows once deposits lift tau above about 35;
    # at 100, every feasible weight of some pick underflows to zero
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        assert main(run_args(out, discretizer="aco", n=500, extra=["--alpha", alpha])) == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if not line.startswith("iteration ")]
    assert errors == [f"error: selection weights tau ** alpha sum to {total}; use a smaller alpha"]
    assert not (out / "report.json").exists()


def test_run_aco_rejects_a_q_deposit_whose_pheromone_overflows(tmp_path, capsys):
    # q / cost leaves float range at the first deposit for any cost below 0.55
    out = tmp_path / "run"
    args = run_args(out, discretizer="aco", n=200, extra=["--iters", "2", "--ants", "2", "--q", "1e308"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        assert main(args) == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if not line.startswith("iteration ")]
    assert errors == ["error: pheromone tau overflows with q_deposit = 1e+308; use a smaller q_deposit"]
    assert not (out / "report.json").exists()


def test_run_rejects_bad_train_fraction(tmp_path, capsys):
    out = tmp_path / "run"
    args = run_args(out, extra=["--train-frac", "1.5"])
    assert main(args) == 1
    assert "train_fraction" in capsys.readouterr().err


def test_data_and_synth_are_mutually_exclusive(tmp_path):
    with pytest.raises(SystemExit):
        main([
            "run", "--discretizer", "efb", "--data", "x.csv", "--synth-n", "100",
            "--out", str(tmp_path),
        ])
    with pytest.raises(SystemExit):
        main(["run", "--discretizer", "efb", "--out", str(tmp_path)])


def test_run_clip_flag(tmp_path):
    out = tmp_path / "clipped"
    assert main(run_args(out, extra=["--clip-outliers"])) == 0
    assert (out / "report.json").exists()


def test_generate_respects_custom_profile(tmp_path):
    from roughcut import GasProfile, default_profile, profile_to_json

    base = default_profile()
    rare = GasProfile(gases=base.gases, fault_fraction=0.2, latent_weight=base.latent_weight)
    profile_path = tmp_path / "rare.json"
    profile_path.write_text(json.dumps(profile_to_json(rare)))
    out = tmp_path / "rare.csv"
    main([
        "generate", "--n", "500", "--seed", "2", "--out", str(out),
        "--profile", str(profile_path),
    ])
    table = load_csv(out)
    _, ones = table.class_counts()
    assert abs(ones / 500 - 0.2) <= 0.05


def test_compare_shares_one_split_and_reports_deltas(tmp_path, capsys):
    out = tmp_path / "cmp"
    args = [
        "compare", "--synth-n", "300", "--seed", "2", "--out", str(out),
        "--iters", "5", "--ants", "3", "--workers", "1",
    ]
    assert main(args) == 0
    payload = json.loads((out / "compare.json").read_text())
    assert set(payload) == {"efb", "aco", "deltas", "test_objects"}
    assert payload["test_objects"] == 90
    for arm in ("efb", "aco"):
        assert payload[arm]["discretizer"] == arm
        assert sum(payload[arm]["confusion"].values()) == payload["test_objects"]
    deltas = payload["deltas"]
    assert deltas["accuracy"] == payload["aco"]["accuracy"] - payload["efb"]["accuracy"]
    assert deltas["auc"] == payload["aco"]["auc"] - payload["efb"]["auc"]
    assert deltas["num_rules"] == payload["aco"]["num_rules"] - payload["efb"]["num_rules"]

    text = (out / "compare.txt").read_text()
    assert "Equal Frequency Bin" in text
    assert "Ant Colony Optimized" in text
    assert capsys.readouterr().out.startswith("Equal Frequency Bin")


# Each flag's edge values. --ants and --iters stop at 2 so that every
# example runs in milliseconds; a huge colony legitimately runs long.
EDGE_FLAGS = {
    "--train-frac": ["nan", "inf", "-0.0", "0", "1e-9", "0.5", "1"],
    "--cuts": ["0", "1", "99", "100"],
    "--ants": ["-1", "0", "1", "2"],
    "--iters": ["-1", "0", "1", "2"],
    "--alpha": ["nan", "inf", "-1", "0", "200"],
    "--rho": ["nan", "inf", "-1", "0", "200"],
    "--q": ["nan", "inf", "-1", "0", "200", "1e308"],
    "--seed": ["-1", "0", str(2**63)],
    "--workers": ["-1", "0", "1", "2"],
}
SYNTH_N = ["-1", "9", "10", "40", str(10**15)]
LISTED_OUTPUTS = {
    ("run", "efb"): {"report.json", "rules.json", "cuts.json", "roc.csv"},
    ("run", "aco"): {"report.json", "rules.json", "cuts.json", "roc.csv", "convergence.csv"},
    ("compare",): {"compare.json", "compare.txt"},
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 40-row CSV and the default profile as JSON, shared by every example."""
    root = tmp_path_factory.mktemp("inputs")
    data, profile = root / "data.csv", root / "profile.json"
    assert main(["generate", "--n", "40", "--seed", "3", "--out", str(data)]) == 0
    profile.write_text(json.dumps(profile_to_json(default_profile())))
    return data, profile


@st.composite
def edge_argvs(draw, data, profile):
    """A command, the argv tail after it, and that command's key into LISTED_OUTPUTS."""
    command = draw(st.sampled_from([("run", "efb"), ("run", "aco"), ("compare",), ("generate",)]))
    use_profile = draw(st.booleans())
    profile_flag = ["--profile", str(profile)] if use_profile else []
    if command == ("generate",):
        tail = ["--n", draw(st.sampled_from(SYNTH_N)), "--seed", draw(st.sampled_from(["0", "1"])),
                *profile_flag]
        return ["generate", *tail], command
    head = ["run", "--discretizer", command[1]] if command[0] == "run" else ["compare"]
    if draw(st.booleans()):
        source = ["--data", str(data)]
    else:
        source = ["--synth-n", draw(st.sampled_from(SYNTH_N))]
    flags = ["--clip-outliers"] if draw(st.booleans()) else []
    for flag, values in EDGE_FLAGS.items():
        value = draw(st.none() | st.sampled_from(values))
        if value is None and flag in ("--ants", "--iters"):
            value = "2"  # not the default colony of 10 ants for 100 iterations
        if value is not None:
            flags += [flag, value]
    return [*head, *source, *profile_flag, *flags], command


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_edge_flags_never_end_in_a_traceback(inputs, data):
    argv, command = data.draw(edge_argvs(*inputs))
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / ("out.csv" if command == ("generate",) else "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(out)])
        assert code in (0, 1), argv
        # an ACO run prints one progress line per iteration before it can fail
        lines = [line for line in stderr.getvalue().splitlines() if not line.startswith("iteration ")]
        if code == 1:
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
            assert not out.exists() or not any(out.iterdir()), argv
        elif command == ("generate",):
            assert lines == [] and out.is_file(), argv
        else:
            assert lines == [], argv
            assert {path.name for path in out.iterdir()} == LISTED_OUTPUTS[command], argv
