"""The README's quickstart snippets must actually run, and the
architecture page's pointers must resolve.

Any fenced code block in ``README.md`` immediately preceded by the
marker comment ``<!-- test: run -->`` is executed here in a fresh
subprocess from the repository root — ``python`` fences through the
interpreter, ``sh`` fences through the shell — with ``src`` on
``PYTHONPATH``.  Every backticked ``repro.*`` name in
``docs/architecture.md`` must import (or be an attribute of a module
that does), and every backticked ``*.py`` name must be a file under
``src/repro/`` or ``tests/``.  Docs that drift from the code fail CI
instead of misleading the next reader.
"""

import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(REPO_ROOT, "README.md")
ARCHITECTURE = os.path.join(REPO_ROOT, "docs", "architecture.md")

MARKER = "<!-- test: run -->"
FENCE = re.compile(r"```(\w+)\n(.*?)```", re.DOTALL)


def runnable_snippets() -> list[tuple[int, str, str]]:
    """``(position, language, code)`` for every marked fence."""
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    snippets = []
    for count, match in enumerate(FENCE.finditer(text)):
        preceding = text[: match.start()].rstrip().splitlines()[-1]
        if preceding.strip() == MARKER:
            snippets.append((count, match.group(1), match.group(2)))
    return snippets


SNIPPETS = runnable_snippets()


def test_readme_has_runnable_snippets():
    """The quickstart is covered: at least one python and one sh fence."""
    languages = {language for _, language, _ in SNIPPETS}
    assert "python" in languages and "sh" in languages


@pytest.mark.parametrize(
    "position,language,code",
    SNIPPETS,
    ids=[f"fence{position}-{language}" for position, language, _ in SNIPPETS],
)
def test_readme_snippet_runs(position, language, code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    if language == "python":
        command = [sys.executable, "-c", code]
    elif language == "sh":
        command = ["sh", "-ec", code]
    else:  # pragma: no cover - no other fence types are marked runnable
        pytest.skip(f"no runner for {language!r} fences")
    done = subprocess.run(
        command,
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, (
        f"README fence #{position} ({language}) failed:\n"
        f"--- stdout ---\n{done.stdout}\n--- stderr ---\n{done.stderr}"
    )


# -- the architecture page's pointers -----------------------------------------


def architecture_pointers(pattern: str) -> list[str]:
    """Every distinct backticked name on the page matching ``pattern``."""
    with open(ARCHITECTURE, encoding="utf-8") as handle:
        names = set(re.findall(r"`([^`\n]+)`", handle.read()))
    return sorted(name for name in names if re.fullmatch(pattern, name))


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` is a module, or attributes of the longest
    prefix of it that imports."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def test_architecture_module_pointers_resolve():
    dotted = architecture_pointers(r"repro(\.\w+)+")
    assert dotted
    assert [name for name in dotted if not resolves(name)] == []


def test_architecture_file_pointers_exist():
    files = [
        path.relative_to(REPO_ROOT).as_posix()
        for root in ("src/repro", "tests")
        for path in pathlib.Path(REPO_ROOT, root).rglob("*.py")
    ]
    pointers = architecture_pointers(r"[\w/]+\.py")
    assert pointers
    missing = [
        name
        for name in pointers
        if not any(path == name or path.endswith("/" + name) for path in files)
    ]
    assert missing == []
