"""The README's command-line and Library examples run as written, and the names it lists exist."""

import re
import shlex
from pathlib import Path

import roughcut
from roughcut import cli

README = Path(__file__).resolve().parents[1] / "README.md"
# What the README lists for `run` (convergence.csv is ACO only) and `compare`.
OUTPUT_FILES = {
    "run": ("report.json", "rules.json", "cuts.json", "roc.csv"),
    "compare": ("compare.json", "compare.txt"),
}


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    metrics = namespace["metrics"]
    assert metrics.rules.rules == namespace["rules"].rules
    assert (namespace["decisions"] == 1).sum() == metrics.matrix.tp + metrics.matrix.fp
    assert 0.0 <= namespace["aco_metrics"].auc <= 1.0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_readme_lower_level_names_are_exported():
    paragraphs = README.read_text(encoding="utf-8").split("\n\n")
    (sentence,) = [p for p in paragraphs if p.startswith("Lower-level pieces")]
    names = re.findall(r"`([A-Za-z_]\w*)`", sentence)
    assert names
    assert [name for name in names if name not in roughcut.__all__] == []
    assert len(set(roughcut.__all__)) == len(roughcut.__all__)


def test_each_public_name_is_declared_once_by_its_module():
    modules = [roughcut.aco, roughcut.data, roughcut.discretize, roughcut.metrics, roughcut.roughset,
               roughcut.synth]
    declared = [name for module in modules for name in module.__all__]
    assert sorted(declared) == roughcut.__all__
    assert len(set(declared)) == len(declared)
    for module in modules:
        for name in module.__all__:
            assert getattr(roughcut, name) is getattr(module, name), name


def test_readme_command_line_examples_run(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    for names in OUTPUT_FILES.values():
        assert [name for name in names if f"`{name}`" not in text] == []
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", text, flags=re.S | re.M)
    commands = [block.strip() for info, block in blocks if not info and block.startswith("roughcut ")]
    assert len(commands) == 3
    monkeypatch.chdir(tmp_path)
    for command in commands:
        argv = shlex.split(command)[1:]
        assert cli.main(argv) == 0, command
        out = Path(argv[argv.index("--out") + 1])
        written = [out] if argv[0] == "generate" else [out / name for name in OUTPUT_FILES[argv[0]]]
        assert [path for path in written if not path.is_file()] == [], command
