"""schedlint ``--dataflow`` tier: CFG, taint, atomicity.

The seeded-mutation self-check is the heart of this file: every rule
family carries known-bad fixtures (synthetic snippets for taint and
atomicity) and the tier must flag every one of them, plus the
sanitizer/idiom negatives it must stay silent on.  Baseline and SARIF
plumbing, CLI exit codes, and the <10s wall-time budget for the full
tree round it out.
"""

import ast
import json
import os
import textwrap
import time

import pytest

from repro.analysis.lint import main
from repro.analysis.lint.findings import Finding
from repro.analysis.lint.rules import (DATAFLOW_RULES,
                                       REPLACED_BY_DATAFLOW, RULES,
                                       effective_rules, lint_paths,
                                       lint_source)
from repro.analysis.lint.dataflow import atomicity
from repro.analysis.lint.dataflow.baseline import (apply_baseline,
                                                   baseline_key,
                                                   canonical_path,
                                                   load_baseline,
                                                   write_baseline)
from repro.analysis.lint.dataflow.cfg import build_cfg, module_functions
from repro.analysis.lint.dataflow.sarif import sarif_dict
from repro.analysis.lint.dataflow.solver import (env_join,
                                                 solve_forward)
from repro.analysis.lint.dataflow.taint import analyze_module

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def rules_of(findings):
    return sorted({f.rule for f in findings})


def lint_df(snippet, path="repro/somewhere/code.py"):
    return lint_source(textwrap.dedent(snippet), path=path,
                       dataflow=True)


def taint_of(snippet, path="repro/somewhere/code.py"):
    tree = ast.parse(textwrap.dedent(snippet))
    return analyze_module(tree, path)


# ----------------------------------------------------------------------
# CFG construction
# ----------------------------------------------------------------------

def cfg_of(snippet):
    tree = ast.parse(textwrap.dedent(snippet))
    assert isinstance(tree.body[0], ast.FunctionDef)
    return build_cfg(tree.body[0].body)


def test_cfg_linear_body_is_one_block():
    cfg = cfg_of("""
        def f():
            a = 1
            b = a + 1
            return b
        """)
    entry = cfg.blocks[cfg.entry]
    assert [i.kind for i in entry.items] == ["stmt", "stmt", "stmt"]
    assert entry.succs == [cfg.exit]
    assert cfg.blocks[cfg.exit].items == []


def test_cfg_if_else_branches_and_join():
    cfg = cfg_of("""
        def f(x):
            if x:
                a = 1
            else:
                a = 2
            return a
        """)
    entry = cfg.blocks[cfg.entry]
    assert entry.items[-1].kind == "test"
    assert len(entry.succs) == 2
    join = [b for b in cfg.blocks
            if b.items and isinstance(b.items[0].node, ast.Return)]
    assert len(join) == 1
    assert sorted(cfg.preds()[join[0].bid]) == sorted(entry.succs)


def test_cfg_while_loop_back_edge_and_depth():
    cfg = cfg_of("""
        def f(n):
            while n:
                n -= 1
            return n
        """)
    headers = [b for b in cfg.blocks if b.is_loop_header]
    assert len(headers) == 1
    header = headers[0]
    body = [b for b in cfg.blocks
            if b.loop_depth == 1 and not b.is_loop_header and b.items]
    assert body and header.bid in body[0].succs  # the back edge
    assert header.loop_depth == 0 or header.is_loop_header


def test_cfg_code_after_return_is_unreachable():
    cfg = cfg_of("""
        def f():
            return 1
            x = 2
        """)
    preds = cfg.preds()
    dead = [b for b in cfg.blocks
            if b.items
            and isinstance(b.items[0].node, ast.Assign)]
    assert dead and preds[dead[0].bid] == []


def test_cfg_break_skips_loop_else():
    cfg = cfg_of("""
        def f(xs):
            for x in xs:
                if x:
                    break
            return 0
        """)
    # the break edge must reach the after-loop block directly
    assert any(b.items and b.items[0].kind == "iter"
               for b in cfg.blocks)


def test_module_functions_covers_methods_not_closures():
    tree = ast.parse(textwrap.dedent("""
        def top():
            def inner():
                pass
        class C:
            def method(self):
                pass
        """))
    names = [info.qualname for info in module_functions(tree)]
    assert "top" in names
    assert any(name.endswith("method") for name in names)
    assert not any("inner" in name for name in names)


# ----------------------------------------------------------------------
# fixed-point solver
# ----------------------------------------------------------------------

def test_solver_joins_branch_facts():
    cfg = cfg_of("""
        def f(x):
            if x:
                a = 1
            else:
                b = 2
            return 0
        """)

    def transfer(block, env):
        out = dict(env)
        for item in block.items:
            node = item.node
            if isinstance(node, ast.Assign) \
                    and isinstance(node.targets[0], ast.Name):
                out[node.targets[0].id] = frozenset({"defined"})
        return out

    envs = solve_forward(cfg, {}, transfer)
    exit_env = envs[cfg.exit]
    assert exit_env.get("a") == frozenset({"defined"})
    assert exit_env.get("b") == frozenset({"defined"})


def test_solver_reaches_fixpoint_through_loop():
    cfg = cfg_of("""
        def f(n):
            while n:
                a = 1
            return 0
        """)

    def transfer(block, env):
        out = dict(env)
        for item in block.items:
            node = item.node
            if isinstance(node, ast.Assign) \
                    and isinstance(node.targets[0], ast.Name):
                out[node.targets[0].id] = frozenset({"loop"})
        return out

    envs = solve_forward(cfg, {}, transfer)
    assert envs[cfg.exit].get("a") == frozenset({"loop"})


def test_env_join_is_keywise_union():
    a = {"x": frozenset({1}), "y": frozenset({2})}
    b = {"x": frozenset({3})}
    joined = env_join(a, b)
    assert joined["x"] == frozenset({1, 3})
    assert joined["y"] == frozenset({2})


# ----------------------------------------------------------------------
# determinism taint: seeded positives
# ----------------------------------------------------------------------

#: (name, snippet, expected rule) — every entry must be flagged
TAINT_FIXTURES = [
    ("wallclock-direct-post", """
        import time
        def f(events):
            events.post(time.time())
        """, "taint-wall-clock"),
    ("wallclock-laundered-local", """
        import time
        def f(events):
            t0 = time.time()
            deadline = t0 + 100
            events.post(deadline)
        """, "taint-wall-clock"),
    ("wallclock-through-helper", """
        import time
        def stamp():
            return time.time()
        def f(events):
            events.post(stamp())
        """, "taint-wall-clock"),
    ("wallclock-into-callee-sink", """
        import time
        def emit(events, when):
            events.post(when)
        def f(events):
            emit(events, time.time())
        """, "taint-wall-clock"),
    ("wallclock-module-level-seed", """
        import random
        import time
        random.seed(time.time())
        """, "taint-wall-clock"),
    ("random-reseed", """
        import random
        def f(rng):
            rng.seed(random.random())
        """, "taint-random"),
    ("urandom-randomsource", """
        import os
        from repro.core.rng import RandomSource
        def f():
            return RandomSource(os.urandom(8))
        """, "taint-random"),
    ("env-event-time", """
        import os
        def f(events):
            events.post(int(os.environ["T0"]))
        """, "taint-env"),
    ("id-sort-key", """
        def f(threads):
            return sorted(threads, key=lambda t: id(t))
        """, "taint-id-order"),
    ("set-order-digest", """
        import hashlib
        def f(items):
            h = hashlib.sha256()
            for key in set(items):
                h.update(key)
        """, "taint-set-order"),
    ("set-order-closure-sort-key", """
        def f(xs, universe):
            order = list(set(universe))
            xs.sort(key=lambda e: order.index(e))
        """, "taint-set-order"),
    ("listdir-order-digest", """
        import hashlib
        import os
        def f(root):
            h = hashlib.md5()
            for name in os.listdir(root):
                h.update(name)
            return h.hexdigest()
        """, "taint-set-order"),
    ("wallclock-into-report-text", """
        import time
        from repro.experiments.base import ExperimentResult
        def f(run):
            t0 = time.time()
            rows = run()
            elapsed = time.time() - t0
            return ExperimentResult(experiment="x", claim="c", rows=rows,
                                    text=f"done in {elapsed:.1f}s")
        """, "taint-wall-clock"),
]


@pytest.mark.parametrize(
    "name,snippet,rule",
    TAINT_FIXTURES, ids=[f[0] for f in TAINT_FIXTURES])
def test_taint_positive(name, snippet, rule):
    findings = lint_df(snippet)
    assert rule in rules_of(findings), \
        f"{name}: expected {rule}, got {rules_of(findings)}"


@pytest.mark.parametrize(
    "name,snippet,rule",
    TAINT_FIXTURES, ids=[f[0] for f in TAINT_FIXTURES])
def test_taint_suppressed(name, snippet, rule):
    dedented = textwrap.dedent(snippet)
    hits = [f for f in lint_df(snippet) if f.rule == rule]
    lines = dedented.splitlines()
    for finding in hits:
        marker = f"  # schedlint: ignore[{rule}] -- test"
        if marker not in lines[finding.line - 1]:
            lines[finding.line - 1] += marker
    remaining = lint_source("\n".join(lines),
                            path="repro/somewhere/code.py",
                            dataflow=True)
    assert rule not in rules_of(remaining)


def test_taint_interprocedural_message_names_callee():
    findings = lint_df("""
        import time
        def emit(events, when):
            events.post(when)
        def f(events):
            emit(events, time.time())
        """)
    assert any("inside emit()" in f.message for f in findings)


# ----------------------------------------------------------------------
# determinism taint: sanitizers and idioms that must stay silent
# ----------------------------------------------------------------------

TAINT_NEGATIVES = [
    ("sorted-set-no-key", """
        def f(items):
            return sorted(set(items))
        """),
    ("sort-key-pure-function-of-element", """
        def f(classes):
            return sorted(set(classes),
                          key=lambda c: (c.__module__, c.__qualname__))
        """),
    ("len-of-set", """
        def f(items, events):
            events.post(len(set(items)))
        """),
    ("engine-now-is-virtual-time", """
        def f(engine, events):
            events.post(engine.now + 100)
        """),
    ("seeded-random-instance", """
        import random
        def f(seed, events):
            rng = random.Random(seed)
            events.post(rng.randrange(100))
        """),
    ("stable-tid-sort-key", """
        def f(threads):
            return sorted(threads, key=lambda t: t.tid)
        """),
    ("report-text-from-simulated-time", """
        import sys
        import time
        from repro.experiments.base import ExperimentResult
        def f(engine, rows):
            t0 = time.time()
            print(f"{time.time() - t0:.1f}s wall", file=sys.stderr)
            return ExperimentResult(experiment="x", claim="c", rows=rows,
                                    text=f"ran {engine.now} ns")
        """),
]


@pytest.mark.parametrize(
    "name,snippet",
    TAINT_NEGATIVES, ids=[f[0] for f in TAINT_NEGATIVES])
def test_taint_negative(name, snippet):
    assert rules_of(lint_df(snippet)) == [], name


def test_replaced_syntactic_rules_disabled_under_dataflow():
    enabled = effective_rules(None, dataflow=True)
    for rule in REPLACED_BY_DATAFLOW:
        assert rule in RULES
        assert rule not in enabled
    for rule in DATAFLOW_RULES:
        assert rule in enabled


# ----------------------------------------------------------------------
# cross-process atomicity in the experiments tree
# ----------------------------------------------------------------------

EXP_PATH = "repro/experiments/code.py"

ATOMICITY_FIXTURES = [
    ("raw-open-write", """
        def save(path, payload):
            with open(path, "w") as handle:
                handle.write(payload)
        """, "nonatomic-write"),
    ("path-write-text", """
        import json
        def save(path, payload):
            path.write_text(json.dumps(payload))
        """, "nonatomic-write"),
    ("json-dump-raw-handle", """
        import json
        def save(path, payload):
            with open(path, "w") as handle:
                json.dump(payload, handle)
        """, "nonatomic-write"),
    ("rmw-without-generation-check", """
        import json
        def compact(entry):
            state = json.loads(entry.read_text())
            state["n"] = state.get("n", 0) + 1
            entry.write_text(json.dumps(state))
        """, "cache-rmw"),
]


@pytest.mark.parametrize(
    "name,snippet,rule",
    ATOMICITY_FIXTURES, ids=[f[0] for f in ATOMICITY_FIXTURES])
def test_atomicity_positive(name, snippet, rule):
    findings = lint_df(snippet, path=EXP_PATH)
    assert rule in rules_of(findings), \
        f"{name}: expected {rule}, got {rules_of(findings)}"


def test_atomicity_out_of_scope_paths_ignored():
    snippet = ATOMICITY_FIXTURES[0][1]
    assert "nonatomic-write" not in rules_of(
        lint_df(snippet, path="repro/core/code.py"))


def test_atomicity_tmp_replace_accepted():
    findings = lint_df("""
        import os
        def save(path, payload):
            tmp = str(path) + ".tmp"
            with open(tmp, "w") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        """, path=EXP_PATH)
    assert "nonatomic-write" not in rules_of(findings)


def test_atomicity_atomic_writer_accepted():
    findings = lint_df("""
        from repro.core.artifacts import atomic_write_json
        def save(path, payload):
            atomic_write_json(path, payload)
        """, path=EXP_PATH)
    assert rules_of(findings) == []


def test_atomicity_generation_checked_rmw_accepted():
    findings = lint_df("""
        import json
        def gc(entry, expected):
            state = json.loads(entry.read_text())
            if state["fingerprint"] != expected:
                return
            entry.unlink()
        """, path=EXP_PATH)
    assert "cache-rmw" not in rules_of(findings)


def test_atomicity_scope_helper():
    assert atomicity.in_scope("src/repro/experiments/runner.py")
    assert not atomicity.in_scope("src/repro/core/engine.py")


# ----------------------------------------------------------------------
# seeded-mutation self-check: the tier catches every planted bug
# ----------------------------------------------------------------------

def test_seeded_fixture_inventory_spans_families():
    """>= 12 seeded bugs across the two families, every one flagged
    by the dataflow tier (asserted per-fixture above; this pins the
    inventory so it cannot silently shrink)."""
    inventory = len(TAINT_FIXTURES) + len(ATOMICITY_FIXTURES)
    assert len(TAINT_FIXTURES) >= 6
    assert len(ATOMICITY_FIXTURES) >= 3
    assert inventory >= 12


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------

def test_canonical_path_strips_tree_prefix():
    assert canonical_path("src/repro/cfs/core.py") == \
        "repro/cfs/core.py"
    assert canonical_path("/x/y/repro/cfs/core.py") == \
        "repro/cfs/core.py"
    assert canonical_path("elsewhere/mod.py") == "elsewhere/mod.py"


def test_baseline_key_is_line_insensitive():
    a = Finding("src/repro/m.py", 10, 0, "taint-env", "msg")
    b = Finding("other/repro/m.py", 99, 4, "taint-env", "msg")
    assert baseline_key(a) == baseline_key(b)


def test_apply_baseline_splits_new_and_stale():
    known = Finding("src/repro/m.py", 10, 0, "taint-env", "known")
    fresh = Finding("src/repro/m.py", 20, 0, "taint-env", "fresh")
    gone = ("repro/m.py", "taint-env", "fixed long ago")
    baseline = [baseline_key(known), gone]
    new, stale = apply_baseline([known, fresh], baseline)
    assert new == [fresh]
    assert stale == [gone]


def test_baseline_round_trip(tmp_path):
    target = str(tmp_path / "baseline.json")
    findings = [
        Finding("src/repro/m.py", 10, 0, "taint-env", "msg"),
        Finding("src/repro/m.py", 11, 0, "taint-env", "msg"),
    ]
    count = write_baseline(target, findings)
    assert count == 1  # identical keys collapse
    assert load_baseline(target) == [("repro/m.py", "taint-env", "msg")]
    new, stale = apply_baseline(findings, load_baseline(target))
    assert new == [] and stale == []


def test_missing_baseline_is_empty():
    assert load_baseline("/nonexistent/baseline.json") == []


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------

def test_sarif_snapshot_structure():
    finding = Finding("src/repro/m.py", 7, 4, "taint-env", "boom")
    log = sarif_dict([finding], {"taint-env": "env reads"})
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "schedlint"
    assert {"id": "taint-env",
            "shortDescription": {"text": "env reads"}} \
        in driver["rules"]
    result = run["results"][0]
    assert result["ruleId"] == "taint-env"
    assert result["message"]["text"] == "boom"
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region == {"startLine": 7, "startColumn": 5}  # 1-based col


def test_sarif_rule_table_covers_finding_rules():
    finding = Finding("m.py", 1, 0, "not-in-catalog", "x")
    log = sarif_dict([finding], {})
    ids = [r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]]
    assert "not-in-catalog" in ids
    assert log["runs"][0]["results"][0]["ruleIndex"] == \
        ids.index("not-in-catalog")


# ----------------------------------------------------------------------
# CLI: exit codes, reports, baseline lifecycle
# ----------------------------------------------------------------------

DIRTY = ("\"\"\"m.\"\"\"\n"
         "import time\n"
         "def f(events):\n"
         "    events.post(time.time())\n")


def test_cli_dataflow_clean_exit_zero(tmp_path, capsys):
    mod = tmp_path / "clean.py"
    mod.write_text("\"\"\"m.\"\"\"\nX = 1\n")
    assert main(["--dataflow", "--no-contract", str(mod)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_dataflow_finding_exit_one(tmp_path, capsys):
    mod = tmp_path / "dirty.py"
    mod.write_text(DIRTY)
    assert main(["--dataflow", "--no-contract", str(mod)]) == 1
    assert "taint-wall-clock" in capsys.readouterr().out


def test_cli_dataflow_rule_ids_accepted_in_rules_flag(tmp_path):
    mod = tmp_path / "dirty.py"
    mod.write_text(DIRTY)
    assert main(["--dataflow", "--no-contract",
                 "--rules", "taint-wall-clock", str(mod)]) == 1
    assert main(["--dataflow", "--no-contract",
                 "--rules", "cache-rmw", str(mod)]) == 0


def test_cli_unknown_rule_exit_two(capsys):
    assert main(["--rules", "not-a-rule"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_update_baseline_requires_baseline(capsys):
    assert main(["--update-baseline"]) == 2


def test_cli_baseline_lifecycle(tmp_path, capsys):
    mod = tmp_path / "dirty.py"
    mod.write_text(DIRTY)
    baseline = str(tmp_path / "baseline.json")
    argv = ["--dataflow", "--no-contract", "--baseline", baseline,
            str(mod)]
    assert main(argv) == 1                       # not yet accepted
    assert main(argv + ["--update-baseline"]) == 0
    capsys.readouterr()
    assert main(argv) == 0                       # baselined now
    mod.write_text("\"\"\"m.\"\"\"\nX = 1\n")    # bug fixed
    assert main(argv) == 0
    assert "stale baseline entry" in capsys.readouterr().err


def test_cli_sarif_and_json_reports(tmp_path):
    mod = tmp_path / "dirty.py"
    mod.write_text(DIRTY)
    sarif = tmp_path / "out.sarif"
    report = tmp_path / "out.json"
    main(["--dataflow", "--no-contract", "--sarif", str(sarif),
          "--json", str(report), str(mod)])
    log = json.loads(sarif.read_text())
    assert log["version"] == "2.1.0"
    assert log["runs"][0]["results"][0]["ruleId"] == "taint-wall-clock"
    data = json.loads(report.read_text())
    assert data["counts"] == {"taint-wall-clock": 1}
    assert "taint-wall-clock" in data["rules"]


def test_cli_list_rules_includes_dataflow_tier(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in DATAFLOW_RULES:
        assert rule in out


# ----------------------------------------------------------------------
# whole-tree gate
# ----------------------------------------------------------------------

def test_shipped_tree_clean_and_fast_at_dataflow_tier():
    started = time.monotonic()
    findings = lint_paths([os.path.join(SRC, "repro")], dataflow=True)
    elapsed = time.monotonic() - started
    assert findings == []
    assert elapsed < 10.0, f"dataflow tier took {elapsed:.1f}s"
