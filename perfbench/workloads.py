"""The three benchmark workloads: inputs from a seed, one operation, output checks.

Importing this module imports roughcut (and numpy through it), so the
set-up probe in ``run.py`` starts its clock before importing it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
import roughcut
from roughcut import aco, cli, data, discretize, metrics, roughset, synth

MODULES = (roughcut, aco, cli, data, discretize, metrics, roughset, synth)

# The result fields compare.json had when the digests below were pinned.
# Fields added later are left out of the pinned digest, so a change may add
# fields, but it may not alter one of these.
_ARM_FIELDS = {"discretizer": None, "confusion": {"tp": None, "tn": None, "fp": None, "fn": None},
               "accuracy": None, "auc": None, "num_rules": None, "num_certain_rules": None, "seed": None}
PINNED_FIELDS = {"efb": _ARM_FIELDS, "aco": _ARM_FIELDS,
                 "deltas": {"accuracy": None, "auc": None, "num_rules": None}, "test_objects": None}

# sha256 of results_json(compare.json, PINNED_FIELDS) for
# `roughcut compare --synth-n 2000 --seed <seed>`, taken at the commit that
# added this benchmark (seeds 0-20; 1 is the benchmark's default seed).
PINNED_COMPARE_SHA256 = {
    0: "eac6f7f30509b9aa692741d28cd618cd1d97c335f2ac93ea09c8fbae6190ad34",
    1: "0d4ab3156b01c56787f12421c248b1cc96e61e7351d878a1d474994eed375c64",
    2: "a61fd601c12bf705fd58936b87fcdafca1bdb9c54e64ec176a3643cf92af1464",
    3: "6ce2cd49732c769fa65fc12d759a71d9e807a32484e18f105c4b7aefc449249e",
    4: "1b33580edcc00ebd05d678fd8d9e614d3f6479deb3e2b36b9570306e2f69160a",
    5: "6f457f94a432f521c413342068914ca9669eebd7cd48add364b6ddc741a3dea6",
    6: "61c3e3bbd798efdcda0caf3ef815a470306c15275345f1bbf054a3eeba25bdf1",
    7: "f2f1cd37c71f54983e45d30c6ccb36e1973bb61728a8b8e936f1ed3f07d6aa74",
    8: "10e609cf7ee09affbb9164fc0ad4cd27e5fd418b05fed0b1b21d7993216b6acc",
    9: "43770cbd582f01c3593ae60350d87edb2d35a8b3681ec33acaa56170733e8aaa",
    10: "f7c1300ed32e630ae13ec5285dd30455d62b6ddd55283582adadd94278dead52",
    11: "c7b2ec69967f1e309e5b57351a668f4cbbc4f55f2659df15d5c99409eef37f37",
    12: "0e1fdc21a334ef366cfa7450a592950ddaea1f766f0337cb3f52e533c24141ac",
    13: "d2f3a1fe975efa78b1d4eee8807a28827eb484edfe75f650364e6d005ecb94a0",
    14: "587e70e09203339bfccc4e0703699148cdb1f445661d74f214f345d4a5cda22a",
    15: "999235f1425c77bb6ec67f154551ab499d8c2c9b06888127e32d2933efe779bb",
    16: "89fb85b10376055516a3790d9c39997231ce85f19467c1af328ea993f74aaaa5",
    17: "5ec8bf59e9b0aa40a7dde7567cf66c1a7a8857c641b0e7d65ba7996b3213a4d2",
    18: "5d15119a1235534c6a5aac46d1d2926953f4608f39584e437673cdaa3f4796cd",
    19: "efd2f7cc48c2f5903fdf03a069b053a6fcc75ab409ddf427b784d83e5861b360",
    20: "ebff5a0b5c47ffec9ceda97e013e9a82cc101e5e042254b4bd33140e6397f494",
}


def results_json(payload, fields=None) -> str:
    """Canonical JSON without timing fields (keys ending in _time_s).

    With ``fields``, a nested dict of key names, only those keys are kept.
    """

    def keep(node, fields):
        if not isinstance(node, dict):
            return node
        return {k: keep(v, None if fields is None else fields[k]) for k, v in node.items()
                if not k.endswith("_time_s") and (fields is None or k in fields)}

    return json.dumps(keep(payload, fields), sort_keys=True)


def sha256(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def confusion_dict(matrix) -> dict:
    return {"tp": matrix.tp, "tn": matrix.tn, "fp": matrix.fp, "fn": matrix.fn}


class Reference:
    """Expected outputs of one workload at one seed, built outside the timed region."""

    def __init__(self, seed, train=None, test=None, efb_cuts=None, table=None):
        self.seed = seed
        self.table = table
        self.train = train
        self.test = test
        self.efb_cuts = efb_cuts
        self.first_digest = None
        self._oracles = {}

    def oracle(self, cuts) -> oracle.RuleOracle:
        if cuts not in self._oracles:
            self._oracles[cuts] = oracle.RuleOracle(
                self.train.values, self.train.decisions, self.test.values, self.test.decisions, cuts
            )
        return self._oracles[cuts]

    def same_as_first(self, digest: str) -> bool:
        if self.first_digest is None:
            self.first_digest = digest
        return digest == self.first_digest


class Compare2k:
    """`roughcut compare --synth-n 2000 --seed <seed> --out <tmp> --workers 1` through cli.main."""

    name = "compare_2k"
    n = 2000
    efb_num_cuts = 2  # the CLI's --cuts default
    # One ACO worker, not the CLI default of os.cpu_count(): on a shared
    # 2-vCPU host the default's two GIL-bound threads made the median
    # operation time vary by a third between runs; one thread stays steady.
    workers = 1

    def build(self, seed):
        return {"seed": seed}

    def reference(self, seed, inputs):
        table = synth.generate(synth.default_profile(), self.n, seed)
        train, test = data.split(table, data.SplitSpec(train_fraction=0.7, seed=seed))
        return Reference(seed, train, test, oracle.efb_cuts(train.values, self.efb_num_cuts))

    def capture_bindings(self):
        return [(cli, "optimize"), (cli, "evaluate_pipeline"), (metrics, "classify_table")]

    def run(self, inputs, scratch: Path, capture):
        out_dir = scratch / self.name
        for name in ("compare.json", "compare.txt"):
            (out_dir / name).unlink(missing_ok=True)
        argv = ["compare", "--synth-n", str(self.n), "--seed", str(inputs["seed"]), "--out", str(out_dir),
                "--workers", str(self.workers)]
        capture.clear()
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            t0 = perf_counter()
            code = cli.main(argv)
            elapsed = perf_counter() - t0
        output = {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
        for name in ("compare.json", "compare.txt"):
            path = out_dir / name
            output[name] = path.read_text(encoding="utf-8") if path.is_file() else None
        output["stderr_lines"] = len(output["stderr"].splitlines())
        return elapsed, output

    def check(self, ref, output, capture):
        if output["code"] != 0 or output["compare.json"] is None:
            return [f"exit code {output['code']}: {output['stderr'][-500:]}"], None
        problems = []
        payload = json.loads(output["compare.json"])
        digest = sha256(results_json(payload))
        if not ref.same_as_first(digest):
            problems.append("compare.json (timings aside) differs from the first operation")
        pinned = PINNED_COMPARE_SHA256.get(ref.seed)
        pinned_now = sha256(results_json(payload, PINNED_FIELDS))
        if pinned is not None and pinned_now != pinned:
            problems.append(f"compare.json results sha256 {pinned_now} != pinned {pinned}")
        if output["stdout"] != output["compare.txt"]:
            problems.append("stdout differs from compare.txt")

        evaluations = capture.calls["cli.evaluate_pipeline"]
        classified = capture.calls["metrics.classify_table"]
        searches = capture.calls["cli.optimize"]
        if len(evaluations) != 2 or len(classified) != 2 or len(searches) != 1:
            problems.append("expected 2 evaluate_pipeline, 2 classify_table and 1 optimize calls")
            return problems, None
        result = {"compare_json_sha256": digest, "workers": searches[0][1].get("workers")}
        for arm, (args, _, report), (_, _, (predictions, scores)) in zip(
            ("efb", "aco"), evaluations, classified
        ):
            train, test, cuts = args[:3]
            if train != ref.train or test != ref.test:
                problems.append(f"{arm}: train/test split differs from the reference split")
                continue
            cuts = cuts.cuts_per_attribute
            if arm == "efb" and cuts != ref.efb_cuts:
                problems.append("efb: cuts differ from the oracle's EFB cuts")
            arm_json = payload[arm]
            bad = ref.oracle(cuts).mismatches(
                predictions, scores, arm_json["confusion"], arm_json["num_rules"],
                arm_json["num_certain_rules"], arm_json["accuracy"], arm_json["auc"],
            )
            problems.extend(f"{arm}: {name} disagrees with the oracle" for name in bad)
            result[arm] = {"cuts": cuts, "confusion": arm_json["confusion"],
                           "num_rules": arm_json["num_rules"], "auc": arm_json["auc"]}
        best, history = searches[0][2]
        if best.cuts.cuts_per_attribute != evaluations[1][0][2].cuts_per_attribute:
            problems.append("aco: evaluated cuts are not the search's best cuts")
        if "aco" in result:
            result["aco"]["best_percentiles"] = best.percentiles
            result["aco"]["convergence_best_cost"] = [s.best_cost for s in history]
        return problems, result


class EfbFine200k:
    """efb_cuts(train, 6) then evaluate_pipeline on a 200k-row 70/30 split."""

    name = "efb_fine_200k"
    n = 200_000
    num_cuts = 6

    def build(self, seed):
        table = synth.generate(synth.default_profile(), self.n, seed)
        train, test = data.split(table, data.SplitSpec(train_fraction=0.7, seed=seed))
        return {"train": train, "test": test}

    def reference(self, seed, inputs):
        train, test = inputs["train"], inputs["test"]
        return Reference(seed, train, test, oracle.efb_cuts(train.values, self.num_cuts))

    def capture_bindings(self):
        return [(metrics, "classify_table")]

    def run(self, inputs, scratch: Path, capture):
        train, test = inputs["train"], inputs["test"]
        capture.clear()
        t0 = perf_counter()
        cuts = discretize.efb_cuts(train, self.num_cuts)
        report = metrics.evaluate_pipeline(train, test, cuts)
        elapsed = perf_counter() - t0
        return elapsed, {"train": train, "test": test, "cuts": cuts, "report": report}

    def check(self, ref, output, capture):
        problems = []
        if output["train"] != ref.train or output["test"] != ref.test:
            return ["inputs differ from the reference inputs"], None
        cuts = output["cuts"].cuts_per_attribute
        if cuts != ref.efb_cuts:
            problems.append("cuts differ from the oracle's EFB cuts")
        classified = capture.calls["metrics.classify_table"]
        if len(classified) != 1:
            return problems + ["expected one classify_table call"], None
        predictions, scores = classified[0][2]
        report = output["report"]
        expected = ref.oracle(cuts)
        bad = expected.mismatches(
            predictions, scores, confusion_dict(report.matrix), report.num_rules,
            report.num_certain_rules, report.accuracy, report.auc,
        )
        problems.extend(f"{name} disagrees with the oracle" for name in bad)
        return problems, {
            "cuts": cuts, "confusion": confusion_dict(report.matrix), "num_rules": report.num_rules,
            "num_certain_rules": report.num_certain_rules, "auc": report.auc,
            "unmatched_test_objects": expected.unmatched,
        }


class Csv100k:
    """write_csv of a 100k-row synthetic table, then load_csv of the file."""

    name = "csv_100k"
    n = 100_000

    def build(self, seed):
        return {"table": synth.generate(synth.default_profile(), self.n, seed)}

    def reference(self, seed, inputs):
        return Reference(seed, table=inputs["table"])

    def capture_bindings(self):
        return []

    def run(self, inputs, scratch: Path, capture):
        table = inputs["table"]
        path = scratch / "table.csv"
        t0 = perf_counter()
        data.write_csv(table, path)
        loaded = data.load_csv(path)
        elapsed = perf_counter() - t0
        file_sha256 = sha256(path.read_bytes())
        size = os.path.getsize(path)
        path.unlink()
        return elapsed, {"table": table, "loaded": loaded, "bytes": size, "file_sha256": file_sha256}

    def check(self, ref, output, capture):
        problems = []
        table, loaded = ref.table, output["loaded"]
        if output["table"] != table:
            return ["inputs differ from the reference inputs"], None
        if loaded.attribute_names != table.attribute_names:
            problems.append("attribute names changed in the round trip")
        if loaded.values.shape != table.values.shape or not np.array_equal(
            loaded.values.view(np.uint64), table.values.view(np.uint64)
        ):
            problems.append("values are not bit-for-bit equal after the round trip")
        if not np.array_equal(loaded.decisions, table.decisions):
            problems.append("decisions changed in the round trip")
        if loaded.n_dropped != 0:
            problems.append(f"load_csv dropped {loaded.n_dropped} rows")
        if not ref.same_as_first(output["file_sha256"]):
            problems.append("CSV bytes differ from the first operation")
        return problems, {"rows": loaded.n_objects, "bytes": output["bytes"],
                          "file_sha256": output["file_sha256"]}


WORKLOADS = {w.name: w for w in (Compare2k(), EfbFine200k(), Csv100k())}
