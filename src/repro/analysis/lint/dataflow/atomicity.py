"""Cross-process atomicity rules for the experiments tree.

Campaign cells run in parallel worker processes (``--jobs``), and
two campaigns can share one artifact directory.  Every artifact the
experiment layer writes therefore goes through the tmp-write + ``os.replace`` idiom in
``repro.core.artifacts`` — a torn write from a killed worker must never
be observable under the final name.  Two rules keep it that way, scoped
to ``repro/experiments/``:

``nonatomic-write``
    a file opened for writing (``open(p, "w")``, ``Path.write_text``,
    ``json.dump``/``pickle.dump`` into a raw handle) in a function that
    never performs a rename/replace — the write is visible mid-stream.
    Hand-rolled tmp+``os.replace`` sequences are accepted, but
    ``atomic_write_text``/``atomic_write_json`` are the idiom.

``cache-rmw``
    a function both reads and rewrites (or unlinks) the same shared
    path with no generation check (no fingerprint/generation/version
    comparison anywhere in the function): a concurrent writer can
    change the file between the read and the write, and the decision
    taken is stale.  A generation GC is the model citizen: it
    re-reads the entry's fingerprint and only unlinks stale
    generations.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Dict, List, Optional, Tuple

from ..findings import Finding
from .cfg import module_functions

RULE_NONATOMIC = "nonatomic-write"
RULE_RMW = "cache-rmw"

#: functions that already implement (or defer to) the atomic idiom
ATOMIC_WRITERS = frozenset({"atomic_write_text", "atomic_write_json"})

#: substrings whose presence marks a generation-checked RMW
GENERATION_MARKERS = ("fingerprint", "generation", "version", "schema")

_WRITE_MODE_CHARS = set("wax+")


def in_scope(path: str) -> bool:
    """Atomicity rules only apply to the experiments tree."""
    return "experiments" in PurePosixPath(path.replace("\\", "/")).parts


def _chain_str(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _open_write_mode(call: ast.Call) -> bool:
    """Is this ``open(...)`` call opening for write/append/create?"""
    mode: Optional[ast.expr] = None
    if len(call.args) > 1:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return False  # default "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(set(mode.value) & _WRITE_MODE_CHARS)
    return False  # dynamic mode: give it the benefit of the doubt


class _FunctionScan:
    """Single pass over one function body collecting sites."""

    def __init__(self) -> None:
        # (line, col, description) per raw write site
        self.writes: List[Tuple[int, int, str]] = []
        self.has_replace = False
        self.has_generation_check = False
        # receiver chain -> first read line
        self.reads: Dict[str, int] = {}
        # receiver chain -> (line, col, verb) for rewrites/unlinks
        self.rewrites: Dict[str, Tuple[int, int, str]] = {}

    def scan(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    self._call(node)
                elif isinstance(node, ast.Name):
                    self._marker(node.id)
                elif isinstance(node, ast.Attribute):
                    self._marker(node.attr)
                elif isinstance(node, ast.Constant) \
                        and isinstance(node.value, str):
                    self._marker(node.value)

    def _marker(self, text: str) -> None:
        if not self.has_generation_check:
            lowered = text.lower()
            if any(marker in lowered for marker in GENERATION_MARKERS):
                self.has_generation_check = True

    def _call(self, node: ast.Call) -> None:
        func = node.func
        chain = _chain_str(func)
        if isinstance(func, ast.Name):
            if func.id == "open" and _open_write_mode(node):
                self.writes.append((node.lineno, node.col_offset,
                                    "open() in write mode"))
                if node.args:
                    target = _chain_str(node.args[0])
                    if target is not None:
                        self.rewrites.setdefault(
                            target, (node.lineno, node.col_offset,
                                     "rewrites"))
            elif func.id in ATOMIC_WRITERS and node.args:
                # atomic, but still a rewrite for RMW purposes
                target = _chain_str(node.args[0])
                if target is not None:
                    self.rewrites.setdefault(
                        target, (node.lineno, node.col_offset,
                                 "rewrites"))
        if isinstance(func, ast.Attribute):
            attr = func.attr
            receiver = _chain_str(func.value)
            if attr in ("write_text", "write_bytes"):
                self.writes.append((node.lineno, node.col_offset,
                                    f".{attr}()"))
                if receiver is not None:
                    self.rewrites.setdefault(
                        receiver, (node.lineno, node.col_offset,
                                   "rewrites"))
            elif attr == "dump" and chain in ("json.dump",
                                              "pickle.dump") \
                    and len(node.args) > 1:
                self.writes.append((node.lineno, node.col_offset,
                                    f"{chain}() into a raw handle"))
            elif attr in ("replace", "rename"):
                self.has_replace = True
            elif attr in ("read_text", "read_bytes"):
                if receiver is not None:
                    self.reads.setdefault(receiver, node.lineno)
            elif attr == "unlink":
                if receiver is not None:
                    self.rewrites.setdefault(
                        receiver, (node.lineno, node.col_offset,
                                   "unlinks"))


def check_module(tree: ast.Module, path: str) -> List[Finding]:
    """Run both atomicity rules over one experiments module."""
    if not in_scope(path):
        return []
    findings: List[Finding] = []
    scopes: List[Tuple[str, List[ast.stmt]]] = [
        ("<module>", tree.body)]
    for info in module_functions(tree):
        scopes.append((info.qualname, info.node.body))

    for name, body in scopes:
        if name == "<module>":
            # module level: only statements outside function/class defs
            body = [stmt for stmt in body
                    if not isinstance(stmt, (ast.FunctionDef,
                                             ast.AsyncFunctionDef,
                                             ast.ClassDef))]
        scan = _FunctionScan()
        scan.scan(body)
        if not scan.has_replace:
            for line, col, what in scan.writes:
                findings.append(Finding(
                    path=path, line=line, col=col, rule=RULE_NONATOMIC,
                    message=(f"{what} in {name} without tmp-write+"
                             f"rename — a killed worker leaves a torn "
                             f"file; use repro.core.artifacts."
                             f"atomic_write_text/json")))
        for chain, read_line in sorted(scan.reads.items()):
            hit = scan.rewrites.get(chain)
            if hit is None or scan.has_generation_check:
                continue
            line, col, verb = hit
            findings.append(Finding(
                path=path, line=line, col=col, rule=RULE_RMW,
                message=(f"{name} reads {chain} (line {read_line}) "
                         f"then {verb} it with no generation/"
                         f"fingerprint check — a concurrent campaign "
                         f"process can change it in between")))
    return findings
