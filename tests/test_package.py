"""The package surface: four names, and the README's library example runs."""

import json
import re
from pathlib import Path

import pipechain

README = Path(__file__).resolve().parent.parent / "README.md"


def test_package_exports_four_names():
    assert sorted(pipechain.__all__) == ["SimConfig", "SimResult", "Simulation", "report_lines"]
    for name in pipechain.__all__:
        assert getattr(pipechain, name) is not None


def test_readme_library_example_runs(capsys):
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    *rows, last = capsys.readouterr().out.splitlines()
    summary = json.loads(last)["summary"]
    assert summary["fatal"] is None
    assert summary["rounds_run"] == len(rows) > 0
