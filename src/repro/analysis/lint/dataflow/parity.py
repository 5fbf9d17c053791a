"""Tick-hook parity: structural differ for the fused tick closures.

The fused per-core tick closures (``CfsScheduler.make_tick_hook``,
``UleScheduler.make_tick_hook``, ``PolicyScheduler.make_tick_hook``)
are manual inlines of ``Engine._tick`` → ``Engine._update_curr``,
written twice for speed with a comment promising the copies stay
bit-identical.  This module turns that comment into a lint rule:

``tickhook-parity``
    Derive *anchor* statements from the normalized generic chain (the
    accounting sequence of ``_update_curr``, the NO_HZ parking triple
    of ``_tick``, the tick repost, the dispatch call) and require every
    fused closure to contain the accounting anchors as an ordered
    subsequence and the rest by presence.  Scheduler-specific inlined
    work (``update_curr``/``task_tick`` bodies) is free to differ;
    guard *conditions* are not compared (``needs_tick`` is specialized
    per scheduler by design).

Normalization rules:

1. drop the docstring;
2. substitute single-assignment locals whose RHS is a pure
   ``Name``/``Attribute`` chain (``events = self.events`` …) into
   their uses, transitively;
3. canonical renames: ``self`` → ``$engine`` in engine methods;
   ``self.engine`` → ``$engine`` then ``self`` → ``$sched`` in
   scheduler hooks;
4. remove dead stores of pure chains (the alias assignments).

Fused hooks only exist when ``Engine.faults is None`` (see
``Engine._tick_callback``), so the fault-adjusted repost time in
``_tick`` is checked by presence, not structurally.
"""

from __future__ import annotations

import ast
import copy
from typing import Dict, List, NamedTuple, Optional

from ..findings import Finding

RULE_TICKHOOK = "tickhook-parity"


def _chain_str(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_pure_chain(node: ast.AST) -> bool:
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name)


class _ChainRenamer(ast.NodeTransformer):
    """Replace whole Name/Attribute chains with canonical names.

    Chain renames must complete before bare-name renames, otherwise
    ``self`` → ``$sched`` destroys the ``self.engine`` chain before it
    can match — callers run one instance per mapping kind.
    """

    def __init__(self, chains: Dict[str, str], names: Dict[str, str]):
        self.chains = chains
        self.names = names

    def visit_Attribute(self, node: ast.Attribute):
        self.generic_visit(node)  # innermost chains first
        chain = _chain_str(node)
        if chain is not None and chain in self.chains:
            return ast.copy_location(
                ast.Name(id=self.chains[chain], ctx=node.ctx), node)
        return node

    def visit_Name(self, node: ast.Name):
        if node.id in self.chains:
            return ast.copy_location(
                ast.Name(id=self.chains[node.id], ctx=node.ctx), node)
        if node.id in self.names:
            return ast.copy_location(
                ast.Name(id=self.names[node.id], ctx=node.ctx), node)
        return node


class _AliasSubstituter(ast.NodeTransformer):
    def __init__(self, aliases: Dict[str, ast.expr]):
        self.aliases = aliases
        self.changed = False

    def visit_Name(self, node: ast.Name):
        if isinstance(node.ctx, ast.Load) and node.id in self.aliases:
            self.changed = True
            return ast.copy_location(
                copy.deepcopy(self.aliases[node.id]), node)
        return node


def _store_counts(node: ast.AST) -> Dict[str, int]:
    """How many times each bare name is stored (any scope)."""
    counts: Dict[str, int] = {}

    def bump(name: str) -> None:
        counts[name] = counts.get(name, 0) + 1

    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(
                sub.ctx, (ast.Store, ast.Del)):
            bump(sub.id)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bump(sub.name)
        elif isinstance(sub, ast.AugAssign) and isinstance(
                sub.target, ast.Name):
            bump(sub.target.id)  # Store ctx already counted; weight it
    return counts


def _collect_aliases(scope_nodes: List[ast.AST]) -> Dict[str, ast.expr]:
    """name -> pure-chain RHS for single-assignment alias locals."""
    counts: Dict[str, int] = {}
    for node in scope_nodes:
        for name, n in _store_counts(node).items():
            counts[name] = counts.get(name, 0) + n
    aliases: Dict[str, ast.expr] = {}
    for node in scope_nodes:
        for sub in ast.walk(node):
            target = None
            value = None
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                    and isinstance(sub.targets[0], ast.Name):
                target, value = sub.targets[0].id, sub.value
            elif isinstance(sub, ast.AnnAssign) \
                    and isinstance(sub.target, ast.Name) \
                    and sub.value is not None:
                target, value = sub.target.id, sub.value
            if target is None or value is None:
                continue
            if counts.get(target, 0) != 1:
                continue
            if not _is_pure_chain(value):
                continue
            # the chain root must itself be stable (a parameter or
            # another alias), or substitution would change meaning
            root = value
            while isinstance(root, ast.Attribute):
                root = root.value
            root_name = root.id  # _is_pure_chain guarantees Name
            if counts.get(root_name, 0) > 1:
                continue
            aliases[target] = value
    return aliases


def _dumps(stmts: List[ast.stmt]) -> List[str]:
    return [ast.dump(s) for s in stmts]


def _dead_store_elim(stmts: List[ast.stmt]) -> List[ast.stmt]:
    """Drop ``x = <pure chain>`` when x is never loaded afterwards."""
    while True:
        loaded = set()
        for stmt in stmts:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) and isinstance(
                        sub.ctx, ast.Load):
                    loaded.add(sub.id)

        removed = False

        def sweep(seq: List[ast.stmt]) -> List[ast.stmt]:
            nonlocal removed
            out = []
            for stmt in seq:
                if isinstance(stmt, ast.Assign) \
                        and len(stmt.targets) == 1 \
                        and isinstance(stmt.targets[0], ast.Name) \
                        and stmt.targets[0].id not in loaded \
                        and _is_pure_chain(stmt.value):
                    removed = True
                    continue
                if isinstance(stmt, ast.AnnAssign) \
                        and isinstance(stmt.target, ast.Name) \
                        and stmt.target.id not in loaded \
                        and stmt.value is not None \
                        and _is_pure_chain(stmt.value):
                    removed = True
                    continue
                for field in ("body", "orelse", "finalbody"):
                    if hasattr(stmt, field) and getattr(stmt, field):
                        setattr(stmt, field,
                                sweep(getattr(stmt, field)) or
                                [ast.Pass()])
                if isinstance(stmt, ast.Try):
                    for handler in stmt.handlers:
                        handler.body = sweep(handler.body) or [ast.Pass()]
                out.append(stmt)
            return out

        stmts = sweep(stmts)
        if not removed:
            return stmts


class NormalizeSpec(NamedTuple):
    chain_renames: Dict[str, str]
    name_renames: Dict[str, str]


ENGINE_SPEC = NormalizeSpec({}, {"self": "$engine"})
SCHED_SPEC = NormalizeSpec({"self.engine": "$engine", "engine": "$engine"},
                           {"self": "$sched"})


def _strip_docstring(body: List[ast.stmt]) -> List[ast.stmt]:
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        return body[1:]
    return body


def normalize_body(body: List[ast.stmt], spec: NormalizeSpec,
                   extra_alias_scopes: Optional[List[ast.AST]] = None
                   ) -> List[ast.stmt]:
    body = [copy.deepcopy(stmt) for stmt in _strip_docstring(body)]
    holder = ast.Module(body=body, type_ignores=[])
    scopes: List[ast.AST] = [holder]
    if extra_alias_scopes:
        scopes.extend(extra_alias_scopes)
    aliases = _collect_aliases(scopes)
    for _ in range(10):
        sub = _AliasSubstituter(aliases)
        holder = sub.visit(holder)
        if not sub.changed:
            break
    holder = _ChainRenamer(spec.chain_renames, {}).visit(holder)
    holder = _ChainRenamer({}, spec.name_renames).visit(holder)
    stmts = holder.body
    # drop imports (the hooks re-import RUN_FOREVER locally)
    stmts = [s for s in stmts
             if not isinstance(s, (ast.Import, ast.ImportFrom))]
    stmts = _dead_store_elim(stmts)
    return stmts


# -- locating the functions ---------------------------------------------


def _find_method(tree: ast.Module, name: str):
    """First def ``name`` anywhere (class method or function)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == name:
            return node
    return None


def _unparse_short(node: Optional[ast.AST], limit: int = 70) -> str:
    if node is None:
        return "<nothing>"
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        text = ast.dump(node)
    text = " ".join(text.split())
    return text if len(text) <= limit else text[:limit - 1] + "…"


# -- tick-hook anchors --------------------------------------------------


def _fallthrough_leaves(stmts: List[ast.stmt]) -> List[ast.stmt]:
    """Simple statements on paths that fall through, in order; guard
    branches ending in return/raise contribute nothing."""
    out: List[ast.stmt] = []
    for stmt in stmts:
        if isinstance(stmt, ast.If):
            for branch in (stmt.body, stmt.orelse):
                if branch and isinstance(branch[-1],
                                         (ast.Return, ast.Raise,
                                          ast.Continue, ast.Break)):
                    continue
                out.extend(_fallthrough_leaves(branch))
        elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            out.extend(_fallthrough_leaves(stmt.body))
            out.extend(_fallthrough_leaves(stmt.orelse))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            out.extend(_fallthrough_leaves(stmt.body))
        elif isinstance(stmt, ast.Try):
            out.extend(_fallthrough_leaves(stmt.body))
            out.extend(_fallthrough_leaves(stmt.orelse))
            out.extend(_fallthrough_leaves(stmt.finalbody))
        elif isinstance(stmt, (ast.Return, ast.Raise, ast.Pass,
                               ast.Continue, ast.Break)):
            continue
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            continue
        else:
            out.append(stmt)
    return out


def _all_leaves(stmts: List[ast.stmt]) -> List[ast.stmt]:
    """Every simple statement, including return-terminated branches."""
    out: List[ast.stmt] = []
    for stmt in stmts:
        for field in ("body", "orelse", "finalbody"):
            if hasattr(stmt, field) and getattr(stmt, field) \
                    and not isinstance(stmt, (ast.FunctionDef,
                                              ast.AsyncFunctionDef,
                                              ast.ClassDef)):
                out.extend(_all_leaves(getattr(stmt, field)))
        if isinstance(stmt, ast.Try):
            for handler in stmt.handlers:
                out.extend(_all_leaves(handler.body))
        if not isinstance(stmt, (ast.If, ast.For, ast.AsyncFor,
                                 ast.While, ast.With, ast.AsyncWith,
                                 ast.Try, ast.Return, ast.Raise,
                                 ast.Pass, ast.Continue, ast.Break,
                                 ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            out.append(stmt)
    return out


def _mentions_chain(node: ast.AST, chain_prefix: str) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            chain = _chain_str(sub)
            if chain is not None and chain.startswith(chain_prefix):
                return True
    return False


class TickContract(NamedTuple):
    """What every fused tick closure must reproduce."""

    accounting: List[ast.stmt]   # ordered anchors from _update_curr
    parking: List[ast.stmt]      # NO_HZ parking triple from _tick


def derive_tick_contract(engine_tree: ast.Module
                         ) -> Optional[TickContract]:
    update_curr = _find_method(engine_tree, "_update_curr")
    tick = _find_method(engine_tree, "_tick")
    if update_curr is None or tick is None:
        return None
    norm = normalize_body(update_curr.body, ENGINE_SPEC)
    leaves = _fallthrough_leaves(norm)
    # scheduler forwarding is what the hook replaces with inlined
    # per-class work — not an anchor
    accounting = [leaf for leaf in leaves
                  if not _mentions_chain(leaf, "$engine.scheduler")]
    parking: List[ast.stmt] = []
    norm_tick = normalize_body(tick.body, ENGINE_SPEC)
    for node in ast.walk(ast.Module(body=norm_tick, type_ignores=[])):
        if isinstance(node, ast.If):
            assigns_park = any(
                isinstance(sub, ast.Assign)
                and any(_chain_str(t) == "core.tick_stopped"
                        for t in sub.targets)
                for sub in ast.walk(node))
            if assigns_park:
                parking = [s for s in node.body
                           if not isinstance(s, ast.Return)]
                break
    return TickContract(accounting, parking)


def _closure_of(make_hook) -> Optional[ast.FunctionDef]:
    inner = [node for node in make_hook.body
             if isinstance(node, (ast.FunctionDef,
                                  ast.AsyncFunctionDef))]
    if not inner:
        return None
    for stmt in make_hook.body:
        if isinstance(stmt, ast.Return) \
                and isinstance(stmt.value, ast.Name):
            for cand in inner:
                if cand.name == stmt.value.id:
                    return cand
    return inner[-1]


def _is_repost_of_tick_event(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "repost"
            and bool(node.args)
            and _chain_str(node.args[0]) == "core.tick_event")


def check_tick_hook(make_hook, contract: TickContract,
                    path: str) -> List[Finding]:
    closure = _closure_of(make_hook)
    if closure is None:
        return []
    # enclosing aliases (engine = self.engine, tick_ns = self.tick_ns,
    # ...) flow into the closure; exclude the closure itself or its
    # stores would be double-counted against the normalized copy
    enclosing = [stmt for stmt in make_hook.body
                 if not isinstance(stmt, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))]
    norm = normalize_body(closure.body, SCHED_SPEC,
                          extra_alias_scopes=enclosing)
    findings: List[Finding] = []

    def emit(message: str) -> None:
        findings.append(Finding(
            path=path, line=closure.lineno, col=closure.col_offset,
            rule=RULE_TICKHOOK, message=message))

    # 1. ordered accounting anchors
    flat = _dumps(_fallthrough_leaves(norm))
    position = 0
    for anchor in contract.accounting:
        dump = ast.dump(anchor)
        while position < len(flat) and flat[position] != dump:
            position += 1
        if position == len(flat):
            emit(f"fused tick closure is missing (or reorders) the "
                 f"accounting statement `{_unparse_short(anchor)}` "
                 f"from Engine._update_curr")
            break
        position += 1
    # 2. parking triple by presence
    everything = _dumps(_all_leaves(norm))
    for stmt in contract.parking:
        if ast.dump(stmt) not in everything:
            emit(f"fused tick closure is missing the NO_HZ parking "
                 f"statement `{_unparse_short(stmt)}` from "
                 f"Engine._tick")
    # 3. tick repost + dispatch by presence
    holder = ast.Module(body=norm, type_ignores=[])
    if not any(_is_repost_of_tick_event(node)
               for node in ast.walk(holder)):
        emit("fused tick closure never reposts core.tick_event — "
             "the periodic tick would stop")
    has_dispatch = any(
        isinstance(node, ast.Call)
        and _chain_str(node.func) == "$engine._dispatch"
        for node in ast.walk(holder))
    if not has_dispatch:
        emit("fused tick closure never calls engine._dispatch(core) "
             "on need_resched")
    return findings


# -- project-level entry point ------------------------------------------


def check_parity(files: Dict[str, str]) -> List[Finding]:
    """Run the tick-hook parity check over a set of {path: source} files.

    The engine module is discovered as the first file defining both
    ``_update_curr`` and ``_tick``; fused hooks as any
    ``make_tick_hook`` containing a nested closure.  Files that fail to
    parse are skipped (the syntactic pass already reports them).
    """
    trees: Dict[str, ast.Module] = {}
    for path, source in files.items():
        try:
            trees[path] = ast.parse(source)
        except SyntaxError:
            continue
    contract: Optional[TickContract] = None
    for path, tree in sorted(trees.items()):
        contract = derive_tick_contract(tree)
        if contract is not None:
            break
    if contract is None:
        return []
    findings: List[Finding] = []
    for path, tree in sorted(trees.items()):
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) \
                    and node.name == "make_tick_hook" \
                    and _closure_of(node) is not None:
                findings.extend(check_tick_hook(node, contract, path))
    return findings
