"""The ``REPRO_*`` environment knobs: the program reads exactly the
ones ``docs/performance.md`` documents, so a knob cannot be added or
left behind silently."""

import ast
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "repro")
DOC = os.path.join(ROOT, "docs", "performance.md")

KNOB = re.compile(r"REPRO_[A-Z0-9_]+")


def knobs_read_by_program() -> set:
    """Every string constant under ``src/repro/`` that is exactly a
    ``REPRO_*`` name: the keys the program looks up in
    ``os.environ`` (directly or through a named constant)."""
    found = set()
    for dirpath, _, filenames in os.walk(PACKAGE):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            with open(os.path.join(dirpath, filename)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) \
                        and isinstance(node.value, str) \
                        and KNOB.fullmatch(node.value):
                    found.add(node.value)
    return found


def knob_table() -> set:
    """The first-column names of the "Environment knobs" table."""
    with open(DOC) as fh:
        section = fh.read().split("## Environment knobs", 1)[1]
    section = section.split("\n## ", 1)[0]
    return {match.group(1) for line in section.splitlines()
            if (match := re.match(r"\| `(REPRO_[A-Z0-9_]+)` \|", line))}


def test_knobs_read_match_documented_table():
    assert knobs_read_by_program() == knob_table()


def test_knob_set_is_the_documented_five():
    assert knob_table() == {
        "REPRO_CELL_CACHE", "REPRO_PROFILE", "REPRO_SANITIZE",
        "REPRO_SCHED_STRICT", "REPRO_WARM_ENGINES"}
