"""The README's library example runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(heading: str) -> str:
    """The first ``python`` code block under the README section ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_comment(capsys):
    code = _python_block("Library in five lines")
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    first_print = next(line for line in code.splitlines() if line.startswith("print("))
    assert printed[0] == first_print.partition("# ")[2]
