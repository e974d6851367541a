"""The package's exports: the README's API section and quick start, and what the demos use."""

import ast
import contextlib
import io
import re
from pathlib import Path

import stopset

ROOT = Path(__file__).resolve().parent.parent


def _readme_api_names():
    """The names listed in README.md under "## API", one "- `name` ..." line each."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `(\w+)`", section, flags=re.MULTILINE)


def test_exports_are_the_readme_api():
    names = _readme_api_names()
    assert len(names) == len(set(names))
    assert sorted(stopset.__all__) == sorted(names)


def test_every_export_resolves():
    for name in stopset.__all__:
        assert getattr(stopset, name) is not None, name


def test_demos_import_only_exports():
    imported = set()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "stopset":
                imported.update(alias.name for alias in node.names)
    assert imported
    assert imported <= set(stopset.__all__), imported - set(stopset.__all__)


def test_readme_quick_start_prints_what_its_comments_say():
    # each print line's comment, cut at "..." or at two spaces, starts the line it prints
    section = (ROOT / "README.md").read_text().split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, flags=re.DOTALL).group(1)
    expected = [re.split(r"\.\.\.|  ", line.split("# ", 1)[1])[0]
                for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(expected) == len(printed) >= 5
    for want, got in zip(expected, printed):
        assert want and got.startswith(want), (want, got)
