import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _quick_start_block():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Quick start (library)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_start_block(), "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[-1] == "True"
