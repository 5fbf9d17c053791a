"""The sanitizer's invariant names: ``sanitizer.py`` raises exactly the
ones ``docs/static-analysis.md`` documents, so an invariant cannot be
added, renamed or dropped without the doc following."""

import ast
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SANITIZER = os.path.join(ROOT, "src", "repro", "analysis", "sanitizer.py")
DOC = os.path.join(ROOT, "docs", "static-analysis.md")


def invariants_raised() -> set:
    """The first argument of every ``self._fail("…", …)`` call; each
    must be a string literal, so none escapes the parse."""
    with open(SANITIZER) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "_fail":
            first = node.args[0]
            assert isinstance(first, ast.Constant), ast.dump(first)
            names.add(first.value)
    return names


def invariants_documented() -> set:
    """Every backticked lower-case hyphenated name in the "Invariants
    checked" part of the "The invariant sanitizer" section."""
    with open(DOC) as fh:
        section = fh.read().split("## The invariant sanitizer", 1)[1]
    section = section.split("### Invariants checked", 1)[1]
    section = section.split("\n### ", 1)[0]
    return set(re.findall(r"`([a-z]+(?:-[a-z]+)+)`", section))


def test_invariants_raised_match_documented():
    assert invariants_raised() == invariants_documented()
