"""Determinism taint analysis.

Flow-sensitive, interprocedural (per-function summaries) taint
propagation from nondeterminism *sources* to schedule/digest *sinks*.
This replaces the syntactic ``wall-clock`` / ``unseeded-random`` /
``id-ordering`` rules in the ``--dataflow`` tier: instead of flagging
``time.time()`` wherever it appears, it flags it only when the value
*reaches* something that can change a run — an event timestamp, a
sort key, a digest input, an RNG seed — including through locals,
containers, and helper functions.

Sources (``Src.kind``):

``wall-clock``  ``time.*`` / ``datetime.now`` host-clock reads
``random``      process-global ``random.*``, ``os.urandom``, ``uuid``,
                ``secrets``
``id``          ``id()`` — allocation addresses
``env``         ``os.environ`` / ``os.getenv`` / pids / hostnames
``set-order``   iteration order of a set (or an unsorted directory
                listing) — attaches at the point of iteration
``setlike``     carrier tag: the value *is* a set (turns into
                ``set-order`` when iterated/materialized); never
                reported itself
``digestobj``   carrier tag: a ``hashlib`` object, enables the
                ``.update(x)`` sink; never reported itself

Sinks: event timestamps (``events.post(t)`` / ``events.repost(e, t)``),
sort keys (``sorted``/``min``/``max``/``list.sort`` ``key=``, or
sorting an ``id``-tainted iterable), digest inputs (``hashlib.X(d)``,
``h.update(d)``), RNG seeds (``random.Random(s)``, ``RandomSource(s)``,
``.seed(s)``), report text (any argument of ``render_report(...)`` or
``ExperimentResult(...)``).

Sanitizers: ``sorted``/``min``/``max``/``len``/``sum``/``any``/``all``
kill order taint (their result no longer depends on input order);
``len``/``sum``/``any``/``all``/``abs``/``bool`` additionally kill
value taint (the result is a pure function of the values).
"""

from __future__ import annotations

import ast
from typing import (Dict, FrozenSet, List, NamedTuple, Optional, Set,
                    Tuple)

from ..findings import Finding
from .cfg import (ITER, STMT, TEST, WITHITEM, Block, CFG, FuncInfo,
                  build_cfg, module_functions)
from .solver import Env, solve_forward

# -- tags ---------------------------------------------------------------


class Src(NamedTuple):
    """A nondeterminism source (or carrier tag)."""

    kind: str
    line: int
    detail: str


class Par(NamedTuple):
    """'Taints whatever flowed into parameter #index' (summary tag)."""

    index: int


#: kinds whose flow into a sink is reported (carrier tags are not)
VALUE_KINDS = frozenset({"wall-clock", "random", "env", "id"})
ORDER_KIND = "set-order"
REPORTABLE_KINDS = VALUE_KINDS | {ORDER_KIND}

#: lint rule id per source kind
KIND_RULE = {
    "wall-clock": "taint-wall-clock",
    "random": "taint-random",
    "env": "taint-env",
    "id": "taint-id-order",
    "set-order": "taint-set-order",
}

# -- source tables ------------------------------------------------------

from ..rules import WALL_CLOCK_CALLS  # noqa: E402  (no import cycle)

#: fully qualified call -> source kind
VALUE_SOURCE_CALLS: Dict[str, str] = {
    **{name: "wall-clock" for name in WALL_CLOCK_CALLS},
    "os.urandom": "random",
    "uuid.uuid1": "random",
    "uuid.uuid4": "random",
    "secrets.token_bytes": "random",
    "secrets.token_hex": "random",
    "secrets.token_urlsafe": "random",
    "secrets.randbits": "random",
    "secrets.randbelow": "random",
    "os.getenv": "env",
    "os.getpid": "env",
    "os.getppid": "env",
    "os.cpu_count": "env",
    "socket.gethostname": "env",
    "platform.node": "env",
}

#: calls returning sequences in host-filesystem order
ORDER_SOURCE_CALLS = frozenset({
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
})
ORDER_SOURCE_METHODS = frozenset({"glob", "rglob", "iterdir"})

#: builtins whose result depends on values but not their order
ORDER_SANITIZERS = frozenset({"sorted", "min", "max", "len", "sum",
                              "any", "all", "frozenset", "set"})
#: builtins whose result carries no taint at all
FULL_SANITIZERS = frozenset({"len", "sum", "any", "all", "abs", "bool",
                             "isinstance", "issubclass", "callable"})
#: casts: value taint flows through, order taint does not
CAST_BUILTINS = frozenset({"int", "float", "str", "bytes", "round",
                           "format"})

#: receiver-chain name parts that make ``.post``/``.repost`` an event
#: queue sink
EVENTS_RECEIVER_PARTS = frozenset({"events", "eventq", "event_queue",
                                   "queue", "wheel"})

SINK_EVENT_TIME = "event timestamp"
SINK_SORT_KEY = "sort key"
SINK_DIGEST = "digest input"
SINK_RNG_SEED = "rng seed"
SINK_REPORT = "report text"

#: callees (last name part) every argument of which is report text
REPORT_SINK_CALLS = frozenset({"render_report", "ExperimentResult"})


class SinkParam(NamedTuple):
    """A summary entry: parameter #index flows into a sink at line."""

    index: int
    label: str
    line: int


class Summary(NamedTuple):
    """What a call to this function does, from the caller's view."""

    intrinsic: FrozenSet          # Src tags the return value carries
    param_flow: FrozenSet         # param indices flowing to the return
    sinks: Tuple[SinkParam, ...]  # params that reach sinks inside

    @staticmethod
    def empty() -> "Summary":
        return Summary(frozenset(), frozenset(), ())


EMPTY: FrozenSet = frozenset()


def _chain_str(node: ast.AST) -> Optional[str]:
    """Dotted chain of a Name/Attribute path, or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _import_table(tree: ast.Module) -> Dict[str, str]:
    """local name -> qualified prefix, same policy as rules.py."""
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                qualified = alias.asname and alias.name or \
                    alias.name.split(".")[0]
                table[local] = qualified
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    table[local] = f"{node.module}.{alias.name}"
    return table


class _FuncResult(NamedTuple):
    returns: FrozenSet
    sinks: Tuple[SinkParam, ...]


class ModuleTaint:
    """Analyze one module: summaries to fixpoint, then collect findings."""

    MAX_SUMMARY_ROUNDS = 8

    def __init__(self, tree: ast.Module, path: str):
        self.tree = tree
        self.path = path
        self.imports = _import_table(tree)
        self.functions = module_functions(tree)
        self.by_name: Dict[str, FuncInfo] = {
            f.qualname: f for f in self.functions}
        self.module_funcs: Dict[str, FuncInfo] = {
            f.qualname: f for f in self.functions if f.class_name is None}
        self.methods: Dict[Tuple[str, str], FuncInfo] = {
            (f.class_name, f.node.name): f
            for f in self.functions if f.class_name is not None}
        self.summaries: Dict[str, Summary] = {
            f.qualname: Summary.empty() for f in self.functions}
        self._cfgs: Dict[str, CFG] = {}
        self.findings: Set[Finding] = set()

    # -- public entry ---------------------------------------------------

    def analyze(self) -> List[Finding]:
        # 1. iterate summaries to a fixed point (findings suppressed)
        for _ in range(self.MAX_SUMMARY_ROUNDS):
            changed = False
            for info in self.functions:
                new = self._summarize(info)
                if new != self.summaries[info.qualname]:
                    self.summaries[info.qualname] = new
                    changed = True
            if not changed:
                break
        # 2. final collecting pass: every function + the module body
        for info in self.functions:
            self._run_function(info, collect=True)
        self._run_body(self.tree.body, init={}, collect=True,
                       current_class=None)
        return sorted(self.findings)

    # -- per-function driving -------------------------------------------

    def _cfg_for(self, info: FuncInfo) -> CFG:
        cfg = self._cfgs.get(info.qualname)
        if cfg is None:
            cfg = build_cfg(info.node.body)
            self._cfgs[info.qualname] = cfg
        return cfg

    def _summarize(self, info: FuncInfo) -> Summary:
        result = self._run_function(info, collect=False)
        intrinsic = frozenset(t for t in result.returns
                              if isinstance(t, Src))
        param_flow = frozenset(t.index for t in result.returns
                               if isinstance(t, Par))
        return Summary(intrinsic, param_flow, result.sinks)

    def _run_function(self, info: FuncInfo, collect: bool) -> _FuncResult:
        init: Env = {name: frozenset({Par(i)})
                     for i, name in enumerate(info.params)}
        return self._run_body(info.node.body, init, collect,
                              info.class_name, cfg=self._cfg_for(info))

    def _run_body(self, body, init: Env, collect: bool,
                  current_class: Optional[str],
                  cfg: Optional[CFG] = None) -> _FuncResult:
        if cfg is None:
            cfg = build_cfg(body)
        ctx = _Ctx(self, current_class, collect=False)
        in_envs = solve_forward(
            cfg, init, lambda block, env: ctx.transfer(block, env))
        # deterministic single collection pass over the fixpoint
        ctx = _Ctx(self, current_class, collect=collect)
        for block in cfg.blocks:
            env = in_envs.get(block.bid)
            ctx.transfer(block, env if env is not None else {})
        return _FuncResult(frozenset(ctx.returns), tuple(ctx.sinks))


class _Ctx:
    """Transfer-function state for one solve/collect pass."""

    def __init__(self, mod: ModuleTaint, current_class: Optional[str],
                 collect: bool):
        self.mod = mod
        self.current_class = current_class
        self.collect = collect
        self.returns: Set = set()
        self.sinks: List[SinkParam] = []
        self._seen_sinks: Set[Tuple[int, str, int]] = set()

    # -- statement transfer ---------------------------------------------

    def transfer(self, block: Block, env: Env) -> Env:
        env = dict(env)
        for item in block.items:
            if item.kind == STMT:
                self._stmt(item.node, env)
            elif item.kind == TEST:
                self.eval(item.node, env)
            elif item.kind == ITER:
                tags = self._iter_taint(self.eval(item.node, env),
                                        item.node)
                if item.target is not None:
                    self._bind(item.target, tags, env)
            elif item.kind == WITHITEM:
                tags = self.eval(item.node, env)
                if item.target is not None:
                    self._bind(item.target, tags, env)
        return env

    def _stmt(self, node: ast.stmt, env: Env) -> None:
        if isinstance(node, ast.Assign):
            tags = self.eval(node.value, env)
            for target in node.targets:
                self._bind(target, tags, env)
        elif isinstance(node, ast.AugAssign):
            tags = self.eval(node.value, env)
            tags = tags | self._load_target(node.target, env)
            self._bind(node.target, tags, env)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._bind(node.target, self.eval(node.value, env), env)
        elif isinstance(node, ast.Expr):
            self.eval(node.value, env)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self.returns |= self.eval(node.value, env)
        elif isinstance(node, (ast.Assert, ast.Raise)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.eval(child, env)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            env[node.name] = EMPTY  # closures are opaque here

    # -- binding --------------------------------------------------------

    def _bind(self, target: ast.AST, tags: FrozenSet, env: Env) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = tags
            # a rebound name invalidates attribute chains under it
            prefix = target.id + "."
            for key in [k for k in env
                        if isinstance(k, str) and k.startswith(prefix)]:
                del env[key]
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, tags, env)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, tags, env)
        elif isinstance(target, ast.Attribute):
            chain = _chain_str(target)
            if chain is not None:
                env[chain] = tags
        elif isinstance(target, ast.Subscript):
            chain = _chain_str(target.value)
            if chain is not None:
                env[chain] = env.get(chain, EMPTY) | tags

    def _load_target(self, target: ast.AST, env: Env) -> FrozenSet:
        if isinstance(target, ast.Name):
            return env.get(target.id, EMPTY)
        chain = _chain_str(target)
        if chain is not None:
            return env.get(chain, EMPTY)
        return EMPTY

    # -- expression evaluation ------------------------------------------

    def eval(self, node: ast.expr, env: Env) -> FrozenSet:
        if isinstance(node, ast.Name):
            return env.get(node.id, EMPTY)
        if isinstance(node, ast.Attribute):
            base = self.eval(node.value, env)
            chain = _chain_str(node)
            if chain is not None:
                qual = self._qualified_chain(chain)
                if qual == "os.environ":
                    return base | {Src("env", node.lineno, "os.environ")}
                stored = env.get(chain)
                if stored is not None:
                    return base | stored
            return base
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value, env)
            sub = self.eval(node.slice, env)
            return base | sub
        if isinstance(node, ast.Call):
            return self._call(node, env)
        if isinstance(node, (ast.BinOp,)):
            return self.eval(node.left, env) | self.eval(node.right, env)
        if isinstance(node, ast.BoolOp):
            out: FrozenSet = EMPTY
            for value in node.values:
                out = out | self.eval(value, env)
            return out
        if isinstance(node, ast.Compare):
            out = self.eval(node.left, env)
            for comp in node.comparators:
                out = out | self.eval(comp, env)
            return out
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand, env)
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env)
            return self.eval(node.body, env) | self.eval(node.orelse, env)
        if isinstance(node, (ast.Tuple, ast.List)):
            out = EMPTY
            for elt in node.elts:
                out = out | self.eval(elt, env)
            return out
        if isinstance(node, ast.Set):
            out = frozenset({Src("setlike", node.lineno, "set literal")})
            for elt in node.elts:
                out = out | self.eval(elt, env)
            return out
        if isinstance(node, ast.Dict):
            out = EMPTY
            for key in node.keys:
                if key is not None:
                    out = out | self.eval(key, env)
            for value in node.values:
                out = out | self.eval(value, env)
            return out
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp,
                             ast.DictComp)):
            return self._comprehension(node, env)
        if isinstance(node, ast.Lambda):
            return EMPTY
        if isinstance(node, ast.Starred):
            return self.eval(node.value, env)
        if isinstance(node, ast.Await):
            return self.eval(node.value, env)
        if isinstance(node, ast.NamedExpr):
            tags = self.eval(node.value, env)
            self._bind(node.target, tags, env)
            return tags
        if isinstance(node, ast.JoinedStr):
            out = EMPTY
            for value in node.values:
                out = out | self.eval(value, env)
            return out
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value, env)
        if isinstance(node, ast.Slice):
            out = EMPTY
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    out = out | self.eval(part, env)
            return out
        return EMPTY  # Constant and anything exotic

    def _comprehension(self, node, env: Env) -> FrozenSet:
        scratch = dict(env)
        setlike = isinstance(node, ast.SetComp)
        for gen in node.generators:
            tags = self._iter_taint(self.eval(gen.iter, scratch),
                                    gen.iter)
            self._bind(gen.target, tags, scratch)
            for cond in gen.ifs:
                self.eval(cond, scratch)
        if isinstance(node, ast.DictComp):
            out = self.eval(node.key, scratch) | \
                self.eval(node.value, scratch)
        else:
            out = self.eval(node.elt, scratch)
        if setlike:
            out = out | {Src("setlike", node.lineno, "set comprehension")}
        return out

    def _iter_taint(self, tags: FrozenSet, node: ast.AST) -> FrozenSet:
        """Iterating a set-typed value materializes its arbitrary order."""
        if any(isinstance(t, Src) and t.kind == "setlike" for t in tags):
            line = getattr(node, "lineno", 0)
            tags = frozenset(t for t in tags
                             if not (isinstance(t, Src)
                                     and t.kind == "setlike"))
            tags = tags | {Src(ORDER_KIND, line, "set iteration order")}
        return tags

    # -- call handling ---------------------------------------------------

    def _qualified_chain(self, chain: str) -> Optional[str]:
        """Resolve the chain's root through the import table."""
        root, _, rest = chain.partition(".")
        qual_root = self.mod.imports.get(root)
        if qual_root is None:
            return None
        return f"{qual_root}.{rest}" if rest else qual_root

    def _is_builtin(self, name: str) -> bool:
        """A bare name acts as the builtin unless shadowed."""
        return (name not in self.mod.imports
                and name not in self.mod.module_funcs)

    def _call(self, node: ast.Call, env: Env) -> FrozenSet:
        func = node.func
        chain = _chain_str(func)
        qual = self._qualified_chain(chain) if chain else None

        # evaluate arguments once (this also runs nested sink checks);
        # lambdas stay unevaluated — sort-key handling evaluates their
        # bodies with the right parameter binding
        pos = [self.eval(a, env) if not isinstance(a, ast.Lambda)
               else EMPTY for a in node.args]
        kw: Dict[Optional[str], FrozenSet] = {}
        for keyword in node.keywords:
            if isinstance(keyword.value, ast.Lambda):
                kw[keyword.arg] = EMPTY
            else:
                kw[keyword.arg] = self.eval(keyword.value, env)
        arg_union: FrozenSet = EMPTY
        for tags in pos:
            arg_union = arg_union | tags
        for tags in kw.values():
            arg_union = arg_union | tags

        # ---- sinks ----
        self._check_sinks(node, env, pos, kw)

        # ---- sources ----
        if qual is not None:
            kind = VALUE_SOURCE_CALLS.get(qual)
            if kind is not None:
                return arg_union | {Src(kind, node.lineno,
                                        f"{qual}()")}
            if qual == "os.environ.get":
                return arg_union | {Src("env", node.lineno,
                                        "os.environ.get()")}
            if (qual.startswith("random.")
                    and qual not in ("random.Random",
                                     "random.SystemRandom")):
                return arg_union | {Src("random", node.lineno,
                                        f"{qual}()")}
            if qual in ("random.SystemRandom",):
                return arg_union | {Src("random", node.lineno,
                                        f"{qual}()")}
            if qual in ORDER_SOURCE_CALLS:
                return arg_union | {Src(ORDER_KIND, node.lineno,
                                        f"{qual}() listing order")}
            if qual.startswith("hashlib."):
                return arg_union | {Src("digestobj", node.lineno, qual)}
        if isinstance(func, ast.Name):
            name = func.id
            if name == "id" and self._is_builtin(name):
                return frozenset({Src("id", node.lineno, "id()")})
            if name in ("set", "frozenset") and self._is_builtin(name):
                return arg_union | {Src("setlike", node.lineno,
                                        f"{name}()")}
            if name in ("list", "tuple") and self._is_builtin(name):
                # materializing a set into a sequence bakes in its order
                return self._iter_taint(arg_union, node)
            if name in FULL_SANITIZERS and self._is_builtin(name):
                return EMPTY
            if name in ("sorted", "min", "max") \
                    and self._is_builtin(name):
                return self._strip_order(arg_union)
            if name in CAST_BUILTINS and self._is_builtin(name):
                return self._strip_order(arg_union)
            # local module function: apply its summary
            info = self.mod.module_funcs.get(name)
            if info is not None:
                return self._apply_summary(node, info, pos, kw,
                                           offset=0)
        if isinstance(func, ast.Attribute):
            if func.attr in ORDER_SOURCE_METHODS:
                return arg_union | {Src(ORDER_KIND, node.lineno,
                                        f".{func.attr}() listing order")}
            # self.method(...) within the same class
            if (isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and self.current_class is not None):
                info = self.mod.methods.get(
                    (self.current_class, func.attr))
                if info is not None:
                    return self._apply_summary(node, info, pos, kw,
                                               offset=1)
            # unknown method call: receiver taint propagates too
            arg_union = arg_union | self.eval(func.value, env)
        return arg_union

    @staticmethod
    def _strip_order(tags: FrozenSet) -> FrozenSet:
        return frozenset(
            t for t in tags
            if not (isinstance(t, Src)
                    and t.kind in (ORDER_KIND, "setlike")))

    # -- sinks ----------------------------------------------------------

    def _check_sinks(self, node: ast.Call, env: Env,
                     pos: List[FrozenSet],
                     kw: Dict[Optional[str], FrozenSet]) -> None:
        func = node.func
        # event timestamps
        if isinstance(func, ast.Attribute):
            chain = _chain_str(func.value)
            parts = set(chain.split(".")) if chain else set()
            receiver_tags = self.eval(func.value, env)
            if parts & EVENTS_RECEIVER_PARTS:
                if func.attr == "post" and node.args:
                    self._sink(node, pos[0], SINK_EVENT_TIME,
                               node.args[0])
                elif func.attr == "repost" and len(node.args) > 1:
                    self._sink(node, pos[1], SINK_EVENT_TIME,
                               node.args[1])
            # digest inputs through a hashlib object
            if func.attr == "update" and node.args:
                if any(isinstance(t, Src) and t.kind == "digestobj"
                       for t in receiver_tags):
                    self._sink(node, pos[0], SINK_DIGEST, node.args[0])
            # explicit reseeding
            if func.attr == "seed" and node.args:
                self._sink(node, pos[0], SINK_RNG_SEED, node.args[0])
            # list.sort(key=...)
            if func.attr == "sort":
                self._sort_sink(node, env, receiver_tags)
        # report text
        callee = _chain_str(func)
        if callee is not None \
                and callee.rsplit(".", 1)[-1] in REPORT_SINK_CALLS:
            for arg, tags in zip(node.args, pos):
                self._sink(node, tags, SINK_REPORT, arg)
            for keyword in node.keywords:
                self._sink(node, kw[keyword.arg], SINK_REPORT,
                           keyword.value)
        if isinstance(func, ast.Name):
            name = func.id
            if name in ("sorted", "min", "max") \
                    and self._is_builtin(name) and node.args:
                iterable = self.eval(node.args[0], env) \
                    if not isinstance(node.args[0], ast.Lambda) else EMPTY
                self._sort_sink(node, env, iterable)
            chain = _chain_str(func)
            qual = self._qualified_chain(chain) if chain else None
            if qual == "random.Random" and node.args:
                self._sink(node, pos[0], SINK_RNG_SEED, node.args[0])
            if qual is not None and qual.startswith("hashlib.") \
                    and node.args:
                self._sink(node, pos[0], SINK_DIGEST, node.args[0])
            if chain is not None and chain.rsplit(".", 1)[-1] == \
                    "RandomSource" and node.args:
                self._sink(node, pos[0], SINK_RNG_SEED, node.args[0])
        elif isinstance(func, ast.Attribute):
            chain = _chain_str(func)
            qual = self._qualified_chain(chain) if chain else None
            if qual == "random.Random" and node.args:
                self._sink(node, pos[0], SINK_RNG_SEED, node.args[0])
            if qual is not None and qual.startswith("hashlib.") \
                    and node.args:
                self._sink(node, pos[0], SINK_DIGEST, node.args[0])
            if func.attr == "RandomSource" and node.args:
                self._sink(node, pos[0], SINK_RNG_SEED, node.args[0])

    def _sort_sink(self, node: ast.Call, env: Env,
                   iterable_tags: FrozenSet) -> None:
        """key= taint, or sorting an id-tainted iterable, is a sink."""
        key = None
        for keyword in node.keywords:
            if keyword.arg == "key":
                key = keyword.value
        if key is not None:
            if isinstance(key, ast.Lambda):
                scratch = dict(env)
                # a key that is a pure function of the element is the
                # sanctioned idiom (sorted(s, key=...) imposes a total
                # order regardless of iteration order), so order kinds
                # do not flow through the parameter; value kinds and
                # closure-captured taint still do
                item_tags = self._strip_order(
                    self._iter_taint(iterable_tags, node))
                for arg in key.args.args:
                    scratch[arg.arg] = item_tags
                key_tags = self.eval(key.body, scratch)
            else:
                key_tags = self.eval(key, env)
            self._sink(node, key_tags, SINK_SORT_KEY, key)
        # ordering values by their ids is nondeterministic even
        # without an explicit key
        id_tags = frozenset(t for t in iterable_tags
                            if isinstance(t, Src) and t.kind == "id")
        if id_tags:
            self._sink(node, id_tags, SINK_SORT_KEY, node)

    def _sink(self, call: ast.Call, tags: FrozenSet, label: str,
              where: ast.AST) -> None:
        line = getattr(where, "lineno", call.lineno)
        col = getattr(where, "col_offset", call.col_offset)
        for tag in sorted(tags, key=repr):
            if isinstance(tag, Par):
                key = (tag.index, label, line)
                if key not in self._seen_sinks:
                    self._seen_sinks.add(key)
                    self.sinks.append(SinkParam(tag.index, label, line))
            elif isinstance(tag, Src) and tag.kind in REPORTABLE_KINDS:
                if self.collect:
                    self.mod.findings.add(Finding(
                        path=self.mod.path, line=line, col=col,
                        rule=KIND_RULE[tag.kind],
                        message=(f"{tag.detail} (line {tag.line}) "
                                 f"flows into {label}")))

    # -- interprocedural ------------------------------------------------

    def _apply_summary(self, node: ast.Call, info: FuncInfo,
                       pos: List[FrozenSet],
                       kw: Dict[Optional[str], FrozenSet],
                       offset: int) -> FrozenSet:
        """Taint effect of calling a function we have a summary for.

        ``offset`` maps parameter indices to positional arguments
        (1 for bound-method calls, where param 0 is ``self``).
        """
        summary = self.mod.summaries.get(info.qualname, Summary.empty())

        def arg_tags(index: int) -> FrozenSet:
            slot = index - offset
            if 0 <= slot < len(pos):
                return pos[slot]
            if index < len(info.params):
                name = info.params[index]
                if name in kw:
                    return kw[name]
            return EMPTY

        out: FrozenSet = frozenset(summary.intrinsic)
        for index in summary.param_flow:
            out = out | arg_tags(index)
        for sink in summary.sinks:
            tags = arg_tags(sink.index)
            for tag in sorted(tags, key=repr):
                if isinstance(tag, Par):
                    key = (tag.index, sink.label, node.lineno)
                    if key not in self._seen_sinks:
                        self._seen_sinks.add(key)
                        self.sinks.append(
                            SinkParam(tag.index, sink.label,
                                      node.lineno))
                elif isinstance(tag, Src) \
                        and tag.kind in REPORTABLE_KINDS:
                    if self.collect:
                        self.mod.findings.add(Finding(
                            path=self.mod.path, line=node.lineno,
                            col=node.col_offset,
                            rule=KIND_RULE[tag.kind],
                            message=(
                                f"{tag.detail} (line {tag.line}) flows "
                                f"into {sink.label} inside "
                                f"{info.qualname}() at line "
                                f"{sink.line}")))
        return out


def analyze_module(tree: ast.Module, path: str) -> List[Finding]:
    """Run the determinism taint analysis over one parsed module."""
    return ModuleTaint(tree, path).analyze()
