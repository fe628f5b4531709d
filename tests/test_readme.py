"""README.md states the contract: its quick start prints what its comments
say, its exit-code table is the CLI's, its check table is run_checks's
default order, and it names no underscore-prefixed identifier, since those
are mechanism, which the module docstrings describe."""

import contextlib
import io
import re
from pathlib import Path

from crashlearn import cli
from crashlearn.analysis import DEFAULT_CHECKS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def section(title: str) -> str:
    """The text of the README section with this title, up to the next one."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_quick_start_prints_what_its_comments_state():
    code = re.search(r"```python\n(.*?)```", section("Quick start"), re.S)[1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    stated = [line.split("#", 1)[1].strip() for line in code.splitlines()
              if line.startswith("print(")]
    assert printed == ["[1, 2, 3]", "1.0", "True", "260 3 1/4"]
    assert len(stated) == len(printed)
    for value, comment in zip(printed, stated):
        assert comment == value or comment.startswith(value + " "), (value, comment)


def test_exit_code_table_is_the_clis():
    codes = [int(code) for code in re.findall(r"^\| (\d+) +\|",
                                              section("Command line"), re.M)]
    assert codes == sorted(value for name, value in vars(cli).items()
                           if name.startswith("EXIT_"))


def test_check_table_lists_the_default_checks_in_order():
    names = re.findall(r"^\| `(\w+)` +\|", section("What is checked"), re.M)
    assert tuple(names) == DEFAULT_CHECKS


def test_readme_names_no_underscore_prefixed_identifier():
    assert re.findall(r"(?<!\w)_[A-Za-z_]\w*", README) == []
