"""README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert [row.status for row in namespace["rows"]] == ["ok"] * 3
    beta, indist = map(float, capsys.readouterr().out.splitlines()[0].split())
    assert 0.0 < indist < 1.0 and 0.0 < beta < 1.0
