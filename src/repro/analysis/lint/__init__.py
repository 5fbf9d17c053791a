"""schedlint: determinism & contract static analysis for the simulator.

Run it over the tree::

    python -m repro.analysis.lint            # lints src/repro/
    python -m repro.analysis.lint PATH...    # lints specific trees
    make lint                                # repo shortcut

Exit codes: ``0`` clean, ``1`` findings reported, ``2`` usage or
internal error.  ``--json FILE`` additionally writes the machine-
readable report; ``--sarif FILE`` writes a SARIF 2.1.0 log.  Suppress
a finding in place with ``# schedlint: ignore[rule] -- reason``.

``--dataflow`` enables the flow-aware tier (interprocedural
determinism taint, cross-process atomicity) in place of the three
syntactic rules it subsumes.  ``--baseline FILE``
accepts the findings recorded in the baseline and fails only on new
ones; ``--update-baseline`` rewrites the baseline to the current
findings instead of failing.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .contract import (CONTRACT_HOOKS, LINUX_TO_METHOD, REQUIRED_HOOKS,
                       check_contracts, check_freebsd_api,
                       check_sched_class, registered_sched_classes)
from .findings import (Finding, is_suppressed, report_dict,
                       suppressions_in, write_report)
from .rules import (DATAFLOW_RULES, DEFAULT_ALLOWLIST, RULES,
                    WALL_CLOCK_CALLS, effective_rules,
                    iter_python_files, lint_paths, lint_source)

__all__ = [
    "CONTRACT_HOOKS", "DATAFLOW_RULES", "DEFAULT_ALLOWLIST", "Finding",
    "LINUX_TO_METHOD", "REQUIRED_HOOKS", "RULES", "WALL_CLOCK_CALLS",
    "check_contracts", "check_freebsd_api", "check_sched_class",
    "effective_rules", "is_suppressed", "iter_python_files",
    "lint_paths", "lint_source", "main", "registered_sched_classes",
    "report_dict", "suppressions_in", "write_report",
]

#: contract rules are not per-line AST rules but appear in reports
CONTRACT_RULES = {
    "contract-missing-hook":
        "a registered SchedClass subclass does not override a "
        "required Table 1 hook",
    "contract-signature":
        "an overridden hook's parameters diverge from sched/base.py",
    "contract-name":
        "a registered SchedClass subclass does not set 'name'",
    "freebsd-api-missing":
        "a Table 1 FreeBSD entry point is missing from the adapter",
    "freebsd-api-unmapped":
        "an adapter sched_* method has no Table 1 row",
    "freebsd-api-mapping":
        "a FreeBSD entry point forwards to the wrong (or more than "
        "one) Linux hook",
}


def _default_target() -> str:
    import repro
    return os.path.dirname(os.path.abspath(repro.__file__))


def main(argv: Optional[List[str]] = None) -> int:
    """schedlint CLI; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="determinism/contract static analysis for the "
                    "scheduler simulator")
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or trees to lint "
                             "(default: the installed repro package)")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="also write a machine-readable report")
    parser.add_argument("--sarif", metavar="FILE", default=None,
                        help="also write a SARIF 2.1.0 log")
    parser.add_argument("--rules", default=None,
                        help="comma-separated subset of rule ids")
    parser.add_argument("--dataflow", action="store_true",
                        help="enable the flow-aware tier (taint "
                             "and atomicity rules)")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="accept findings recorded in this "
                             "baseline; fail only on new ones")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite --baseline to the current "
                             "findings instead of failing")
    parser.add_argument("--no-contract", action="store_true",
                        help="skip SchedClass/FreeBSD-API contract "
                             "checks (pure AST lint only)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    catalog = {**RULES, **DATAFLOW_RULES, **CONTRACT_RULES}
    if args.list_rules:
        for rule, doc in sorted(catalog.items()):
            print(f"{rule:<22} {doc}")
        return 0
    if args.update_baseline and args.baseline is None:
        print("schedlint: --update-baseline requires --baseline",
              file=sys.stderr)
        return 2

    rules = None
    if args.rules is not None:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in rules if r not in catalog]
        if unknown:
            print(f"schedlint: unknown rule(s): "
                  f"{', '.join(unknown)}", file=sys.stderr)
            return 2

    paths = args.paths or [_default_target()]
    for path in paths:
        if not os.path.exists(path):
            print(f"schedlint: no such path: {path}", file=sys.stderr)
            return 2

    try:
        ast_rules = None if rules is None else \
            [r for r in rules if r not in CONTRACT_RULES]
        findings = lint_paths(paths, rules=ast_rules,
                              dataflow=args.dataflow)
        if not args.no_contract:
            contract = check_contracts() + check_freebsd_api()
            if rules is not None:
                contract = [f for f in contract if f.rule in rules]
            findings = sorted(findings + contract)
    except Exception as exc:  # noqa: BLE001 - report, exit 2
        print(f"schedlint: internal error: {exc!r}", file=sys.stderr)
        return 2

    stale = []
    if args.baseline is not None:
        from .dataflow.baseline import (apply_baseline, load_baseline,
                                        write_baseline)
        if args.update_baseline:
            count = write_baseline(args.baseline, findings)
            print(f"schedlint: baseline updated "
                  f"({count} entries in {args.baseline})")
            return 0
        findings, stale = apply_baseline(findings,
                                         load_baseline(args.baseline))

    enabled = sorted(rules) if rules is not None else sorted(
        set(effective_rules(None, args.dataflow)) | set(CONTRACT_RULES))
    for finding in findings:
        print(finding.format())
    for path, rule, message in stale:
        print(f"schedlint: stale baseline entry: "
              f"{path}: {rule}: {message}", file=sys.stderr)
    if args.json:
        write_report(args.json, report_dict(findings, paths, enabled))
    if args.sarif:
        from .dataflow.sarif import write_sarif
        write_sarif(args.sarif, findings,
                    {r: catalog[r] for r in enabled if r in catalog})
    if findings:
        print(f"schedlint: {len(findings)} finding(s) in "
              f"{len(paths)} path(s)", file=sys.stderr)
        return 1
    print(f"schedlint: clean "
          f"({len(iter_python_files(paths))} files checked)")
    return 0
