"""The README's Library example runs as written, and the names it lists exist."""

import re
from pathlib import Path

import roughcut

README = Path(__file__).resolve().parents[1] / "README.md"


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
