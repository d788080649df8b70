"""The documented quickstarts run as written, and without warnings.

Both snippets are read from their source (the ``repro`` package
docstring and the README's Quickstart section) and executed with every
warning turned into an error, so a quickstart that drifts from the API
or calls a deprecated path fails here.
"""

import textwrap
import warnings
from pathlib import Path

import repro

README = Path(__file__).resolve().parents[1] / "README.md"


def _package_quickstart() -> str:
    doc = repro.__doc__ or ""
    _, _, tail = doc.partition("Quickstart::\n")
    assert tail, "repro package docstring has no Quickstart:: block"
    return textwrap.dedent(tail)


def _readme_quickstart() -> str:
    text = README.read_text(encoding="utf-8")
    _, _, section = text.partition("## Quickstart\n")
    _, _, block = section.partition("```python\n")
    code, fence, _ = block.partition("```")
    assert fence, "README Quickstart has no python block"
    return code


def _run_strict(source: str) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(source, "<quickstart>", "exec"), {})


def test_package_quickstart_runs():
    _run_strict(_package_quickstart())


def test_readme_quickstart_runs(capsys):
    _run_strict(_readme_quickstart())
    assert "25C" in capsys.readouterr().out
