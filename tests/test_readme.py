import re
from pathlib import Path

from multiderange import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch):
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["guess", "-k", "2", "--terms", "25", "--out", "op2.json"]) == 0
    exec(compile(example, str(README), "exec"), {})
    assert (tmp_path / "found.json").read_bytes() == (tmp_path / "op2.json").read_bytes()
