"""Golden outputs of `roughcut run` at n = 2000 for seeds 1-3.

These values were recorded before the rough-set grouping and scoring were
rewritten on row keys; refactors must leave them unchanged. Per seed and
discretizer the test pins:

- the cuts, as the sha256 of ``cuts.json``;
- the confusion counts from ``report.json``;
- the sha256 of ``rules.json``;
- for ACO, the best percentiles and the running best validation cost of
  every iteration, stored as {iteration: misclassified validation objects}
  at each iteration where it improved.
"""

import hashlib
import json

import pytest

import roughcut.cli as cli

N = 2000

# optimize validates on 20% of the 1400-object training split.
N_VALIDATION = 280

GOLDEN = {
    1: {
        "efb": {
            "confusion": {"tp": 290, "tn": 224, "fp": 78, "fn": 8},
            "cuts_sha256": "f3251104b31f9f5ad7c1402ebfb067691bb256575241e15956aadb2755b6a1c8",
            "rules_sha256": "f4673cba013d6930ef5da6ee3d3d0a5d86acc2b25fe33748c6a5c97b08396c8d",
        },
        "aco": {
            "confusion": {"tp": 283, "tn": 277, "fp": 25, "fn": 15},
            "cuts_sha256": "67f99222fee4db0587f8a8bd812b1d6ce625657696d57a605cdf898a39eccb04",
            "rules_sha256": "a2d04a6782b0939ceb7ad4f336850a99072b3d7a7ec296466dfcbd21cd723031",
            "percentiles": ((75, 84), (20, 44), (16, 90), (10, 67), (64, 93),
                            (95, 96), (62, 65), (85, 99), (24, 57)),
            "best_cost_steps": {0: 13, 1: 12, 3: 10, 6: 9, 29: 8, 68: 7},
        },
    },
    2: {
        "efb": {
            "confusion": {"tp": 288, "tn": 234, "fp": 69, "fn": 9},
            "cuts_sha256": "4f44b73adf203239027b1038acc80e912b76e741a625942e55e0a94de8451cdc",
            "rules_sha256": "affe078030d2611bd267a7121356246ab10dfe882af905fcc47bb441e7027bd3",
        },
        "aco": {
            "confusion": {"tp": 282, "tn": 291, "fp": 12, "fn": 15},
            "cuts_sha256": "c6aa1064be8f9d6a4dffc6f37bbad5877e7cc3daf7ced50241dc7647e113c0ac",
            "rules_sha256": "529744d158c8802be917e78fa2affd4e6ae17ecb9349db29dcf96b4d6bd35ad1",
            "percentiles": ((90, 96), (68, 80), (95, 98), (46, 76), (41, 47),
                            (13, 43), (79, 82), (29, 96), (3, 57)),
            "best_cost_steps": {0: 11, 4: 9, 16: 3},
        },
    },
    3: {
        "efb": {
            "confusion": {"tp": 249, "tn": 262, "fp": 16, "fn": 73},
            "cuts_sha256": "68d12d7096d83a39a055ffccd0723efc3681b5c49b6a7d46f58133506c08e48f",
            "rules_sha256": "081f507c6c9a411741be1e2dbfd33a851ca20be33a4469694160870cd4a8894d",
        },
        "aco": {
            "confusion": {"tp": 284, "tn": 268, "fp": 10, "fn": 38},
            "cuts_sha256": "ccdd470cb8baa6c5f2c49c2c3617210c451cb14af25375e1d812ec60d14ac432",
            "rules_sha256": "5c4c1e8146aa75d0523a4b2155badf6e30d9346773d40d2247d2cba9ab34bb05",
            "percentiles": ((89, 94), (66, 73), (10, 18), (11, 14), (20, 25),
                            (91, 99), (46, 87), (50, 95), (29, 70)),
            "best_cost_steps": {0: 10, 2: 6, 5: 3},
        },
    },
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def best_cost_steps(history) -> dict[int, int]:
    steps = {}
    for stats in history:
        misses = round(stats.best_cost * N_VALIDATION)
        assert misses / N_VALIDATION == stats.best_cost
        if not steps or misses < list(steps.values())[-1]:
            steps[stats.iteration] = misses
    return steps


def run_arm(tmp_path, monkeypatch, discretizer, seed) -> dict:
    """`roughcut run` one arm; the search result is captured on its way to the CLI."""
    searches = []
    optimize = cli.optimize

    def recording_optimize(*args, **kwargs):
        searches.append(optimize(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(cli, "optimize", recording_optimize)
    out = tmp_path / discretizer
    argv = ["run", "--discretizer", discretizer, "--synth-n", str(N), "--seed", str(seed),
            "--out", str(out), "--workers", "1"]
    assert cli.main(argv) == 0
    monkeypatch.undo()

    observed = {
        "confusion": json.loads((out / "report.json").read_text())["confusion"],
        "cuts_sha256": sha256(out / "cuts.json"),
        "rules_sha256": sha256(out / "rules.json"),
    }
    if discretizer == "aco":
        (best, history), = searches
        observed["percentiles"] = best.percentiles
        observed["best_cost_steps"] = best_cost_steps(history)
    return observed


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("discretizer", ["efb", "aco"])
def test_run_outputs_match_golden(tmp_path, monkeypatch, capsys, discretizer, seed):
    assert run_arm(tmp_path, monkeypatch, discretizer, seed) == GOLDEN[seed][discretizer]
