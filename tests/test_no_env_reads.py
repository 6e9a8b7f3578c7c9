"""The library has no environment switches.

Every mode of ``repro`` is a constructor argument or a CLI flag, so a
run is fully described by its code and arguments.  The check parses
each module under ``src/repro`` and fails on any read of the process
environment: ``os.environ``/``os.environb``, ``os.getenv``/
``os.getenvb``, or those names imported from ``os``.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def env_reads(source: str):
    """Line numbers of every environment access in one module."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENV_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id in ENV_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and \
                any(alias.name in ENV_NAMES for alias in node.names):
            lines.append(node.lineno)
    return lines


def test_the_guard_sees_every_form():
    for snippet in ("import os\nos.environ.get('X')",
                    "import os\nos.getenv('X')",
                    "from os import environ\nenviron['X']",
                    "from os import getenv as g\ng('X')"):
        assert env_reads(snippet), snippet
    assert not env_reads("import os\nos.path.join('a', 'b')")


def test_no_module_reads_the_environment():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 40, "source tree not found"
    offenders = [
        f"{path.relative_to(PACKAGE.parent)}:{line}"
        for path in modules
        for line in env_reads(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
