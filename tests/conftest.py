"""Shared pytest wiring: one visible PASS/FAIL line per acceptance
criterion at the end of the run, then the size of ``src/imagebinary``."""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "imagebinary"
# tokens that do not make a line a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

_acceptance = {}


def source_size(text):
    """(lines, code lines) of Python source: a code line is any line that
    is not blank, not only a comment and not part of a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    _acceptance[report.nodeid.split("::")[-1]] = report.passed


def pytest_terminal_summary(terminalreporter):
    if _acceptance:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(_acceptance):
            verdict = "PASS" if _acceptance[name] else "FAIL"
            terminalreporter.write_line("%s: %s" % (name, verdict))
    sizes = [source_size(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    terminalreporter.write_line(
        "src/imagebinary: %d lines, %d code lines" % tuple(map(sum, zip(*sizes)))
    )
