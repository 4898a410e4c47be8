"""
Command-line harness: build worlds, run honest/attack/control executions
across the scenario matrix, check all goals, diff against the expected
fixture, and render the verdict tables.

A cell of the matrix is one (approach, scenario, tunnel setting, goal).
Its verdict is "violated" iff any execution of that world - the honest run,
every applicable attack script, every applicable negative control - yields
a trace violating the goal.  Pass therefore means "no scripted or honest
execution violates the goal", not a proof of absence; the renderer says so.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Optional

from .attacks import (ATTACKS_BY_ID, attack_registry, audit_trace,
                      honest_script, negative_controls)
from .fixture import GOALS, expected_matrix, scenario_rows
from .events import Trace
from .goals import CATALOG, GoalVerdict, check_all, check_goal, goal_catalog
from .scenarios import (ConfigError, ScenarioConfig, build_world, expand_recs,
                        parse_config)
from .terms import Knowledge

_SPECS = {g.name: g for g in CATALOG}


@dataclass
class RunOutcome:
    """One world execution: which script ran it, its trace and the
    adversary's end-of-run knowledge, its audit, and the verdicts of the
    goals checked so far.  ``verdict`` answers any goal, checking it on
    first ask, with the text an eager check gives."""
    script: str
    trace: Trace
    knowledge: Knowledge
    audit_failures: list
    aborted: Optional[str]
    checked: dict         # goal name -> GoalVerdict

    def verdict(self, goal: str) -> GoalVerdict:
        v = self.checked.get(goal)
        if v is None:
            v = self.checked[goal] = check_goal(self.trace, self.knowledge,
                                                _SPECS[goal])
        return v


@dataclass
class Cell:
    approach: str
    scenario: int
    tls: bool
    goal: str
    actual: str                      # "pass" | "violated"
    expected: Optional[str] = None   # resolved fixture mark, None under recs
    refs: tuple = ()
    via: Optional[str] = None        # script that demonstrated the violation
    witness: Optional[str] = None

    @property
    def agree(self) -> Optional[bool]:
        return None if self.expected is None else self.actual == self.expected


@dataclass
class MatrixReport:
    cells: list
    recs: tuple
    runtime: float
    audit_failures: list = field(default_factory=list)

    def disagreements(self) -> list:
        return [c for c in self.cells if c.agree is False]

    def cell_map(self) -> dict:
        return {(c.approach, c.scenario, c.tls, c.goal): c for c in self.cells}


def run_world(cfg: ScenarioConfig, name: str, script,
              catalog=CATALOG) -> RunOutcome:
    """One script in a freshly built world, with the verdicts of the goals
    of `catalog` and its capability audit."""
    world = build_world(cfg)
    aborted = None
    try:
        script(world)
    except AssertionError:
        raise
    except Exception as exc:  # a script bug, not a verdict
        aborted = f"{type(exc).__name__}: {exc}"
    trace, knowledge = world.trace, world.adversary.knowledge
    return RunOutcome(name, trace, knowledge, audit_trace(trace), aborted,
                      check_all(trace, knowledge, catalog))


def run_world_suite(cfg: ScenarioConfig) -> list[RunOutcome]:
    """Honest script, then every applicable attack and negative control,
    each in a freshly built world.  A run is checked for the goals that no
    earlier run violated, the only ones its cells read."""
    runs = [("honest", honest_script)]
    runs += [(s.id, s.run) for s in attack_registry() if s.applicable(cfg)]
    runs += [(c.id, c.run) for c in negative_controls(cfg)]
    outcomes = []
    open_goals = CATALOG
    for name, fn in runs:
        outcomes.append(run_world(cfg, name, fn, open_goals))
        open_goals = [g for g in open_goals if outcomes[-1].checked[g.name].ok]
    return outcomes


def evaluate_cell_group(cfg: ScenarioConfig, outcomes: list[RunOutcome],
                        compare: bool) -> tuple:
    """All 15 goal cells for one (approach, scenario, tls) from the runs of
    its world, plus the audit failures and crashes of those runs."""
    expected = expected_matrix().get((cfg.approach, cfg.scenario))
    cells = []
    audit_failures = []
    for o in outcomes:
        for msg in o.audit_failures:
            audit_failures.append(f"{cfg.describe()} run={o.script}: {msg}")
        if o.aborted:
            audit_failures.append(
                f"{cfg.describe()} run={o.script}: run crashed: {o.aborted}")
    for goal in GOALS:
        via = witness = None
        actual = "pass"
        for o in outcomes:
            v = o.verdict(goal)
            if not v.ok:
                actual, via, witness = "violated", o.script, v.witness
                break
        exp = expected[goal] if compare else None
        cells.append(Cell(
            cfg.approach, cfg.scenario, cfg.tls, goal, actual,
            expected=None if exp is None else exp.resolved(cfg.tls),
            refs=() if exp is None else exp.attack_refs,
            via=via, witness=witness))
    return cells, audit_failures


def run_matrix(approaches=("ds", "ac"), scenarios=None, tls_values=(True, False),
               recs=frozenset()) -> MatrixReport:
    start = time.monotonic()
    cells = []
    audit_failures = []
    compare = not recs
    for approach in approaches:
        rows = scenario_rows(approach)
        for scenario in rows:
            if scenarios and scenario not in scenarios:
                continue
            for tls in tls_values:
                cfg = ScenarioConfig(approach, scenario, tls,
                                     recs=expand_recs(recs, approach))
                group, audits = evaluate_cell_group(
                    cfg, run_world_suite(cfg), compare)
                cells.extend(group)
                audit_failures.extend(audits)
    return MatrixReport(cells, tuple(sorted(recs)),
                        time.monotonic() - start, audit_failures)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_MARK = {("pass", "pass"): "+", ("violated", "violated"): "x",
         ("pass", "violated"): "o", ("violated", "pass"): "!"}


def render_text(report: MatrixReport) -> str:
    """Rows are scenarios, columns goals; each cell folds the two tunnel
    settings: + holds, x fails, o fails only without the tunnel, ! fails
    only with it (never expected).  Superscripts are the script ids."""
    cmap = report.cell_map()
    out = []
    if report.recs:
        out.append(f"hardening in effect: {', '.join(report.recs)}")
    for approach, label in (("ds", "default-server approach"),
                            ("ac", "activation-code approach")):
        rows = [sc for sc in scenario_rows(approach)
                if any(k[0] == approach and k[1] == sc for k in cmap)]
        if not rows:
            continue
        out.append(f"== {label} ==")
        head = "scen | " + " ".join(f"{g:>4}" for g in GOALS)
        out.append(head)
        out.append("-" * len(head))
        for sc in rows:
            marks = []
            for g in GOALS:
                with_tls = cmap.get((approach, sc, True, g))
                without = cmap.get((approach, sc, False, g))
                if with_tls is None or without is None:
                    present = with_tls or without
                    mark = "x" if present.actual == "violated" else "+"
                    refs = "".join(present.refs)
                else:
                    mark = _MARK[(with_tls.actual, without.actual)]
                    refs = "".join(with_tls.refs or without.refs)
                disagree = any(c is not None and c.agree is False
                               for c in (with_tls, without))
                marks.append(f"{mark}{refs:<2}{'*' if disagree else ' '}"[:4].rjust(4))
            out.append(f"{sc:>4} | " + " ".join(marks))
        out.append("")
    bad = report.disagreements()
    out.append(f"cells: {len(report.cells)}  disagreements: {len(bad)}  "
               f"audit failures: {len(report.audit_failures)}  "
               f"runtime: {report.runtime:.2f}s")
    for c in bad:
        out.append(f"  DISAGREE {c.approach}/{c.scenario}/"
                   f"{'tls' if c.tls else 'notls'}/{c.goal}: actual={c.actual} "
                   f"expected={c.expected} via={c.via}")
        if c.witness:
            out.append(f"    witness: {c.witness}")
    for msg in report.audit_failures:
        out.append(f"  AUDIT {msg}")
    out.append("note: 'pass' means no scripted or honest execution violates "
               "the goal; it is evidence, not proof of absence.")
    return "\n".join(out)


# render_json's report and cell, keys in sorted order; the report's
# "seed" is always 0, kept because the product's pinned digests include it
_JSON_REPORT = ('{{\n  "audit_failures": {},\n  "cells": {},\n'
                '  "disagreements": {:d},\n  "recs": {},\n  "seed": 0\n}}')
_JSON_CELL = ('{{\n      "actual": {},\n      "agree": {},\n      "approach": {},\n'
              '      "expected": {},\n      "goal": {},\n      "refs": {},\n'
              '      "scenario": {:d},\n      "tls": {},\n      "via": {},\n'
              '      "witness": {}\n    }}')
_JSON_CONST = {None: "null", True: "true", False: "false"}


def _json_str(s: Optional[str]) -> str:
    return "null" if s is None else encode_basestring_ascii(s)


def _json_list(items, indent: str, encode=encode_basestring_ascii) -> str:
    """`items` as ``json.dumps(indent=2)`` lists them at `indent`."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(map(encode, items)) + "\n" + indent + "]"


def _json_cell(c: Cell) -> str:
    return _JSON_CELL.format(
        _json_str(c.actual), _JSON_CONST[c.agree], _json_str(c.approach),
        _json_str(c.expected), _json_str(c.goal), _json_list(c.refs, "      "),
        c.scenario, _JSON_CONST[c.tls], _json_str(c.via), _json_str(c.witness))


def render_json(report: MatrixReport) -> str:
    """What ``json.dumps(payload, indent=2, sort_keys=True)`` gives for the
    report's payload, written from its fixed shape: ``json`` uses its C
    encoder only when it does not indent, and its Python one is 3x slower."""
    return _JSON_REPORT.format(
        _json_list(report.audit_failures, "  "),
        _json_list(report.cells, "  ", _json_cell), len(report.disagreements()),
        _json_list(report.recs, "  "))


def render_csv(report: MatrixReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["approach", "scenario", "tls", "goal", "actual", "expected",
                "agree", "refs", "via", "witness"])
    for c in report.cells:
        w.writerow([c.approach, c.scenario, int(c.tls), c.goal, c.actual,
                    c.expected or "", "" if c.agree is None else int(c.agree),
                    "".join(c.refs), c.via or "", c.witness or ""])
    return buf.getvalue()


RENDERERS = {"text": render_text, "json": render_json, "csv": render_csv}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _add_world_flags(p: argparse.ArgumentParser) -> None:
    # every world flag defaults to None, "not given", so that _cfg_from_args
    # can tell a given flag from a default; the defaults are parse_config's
    p.add_argument("--approach", choices=["ds", "ac"],
                   help="profile ordering approach: default-server or "
                        "activation-code (default: ds)")
    p.add_argument("--scenario", type=int, metavar="N",
                   help="scenario to build, 1 to 11 (default: 1)")
    tls = p.add_mutually_exclusive_group()
    tls.add_argument("--tls", dest="tls", action="store_true", default=None,
                     help="run the LPA-to-server traffic in the transport "
                          "tunnel (the default)")
    tls.add_argument("--no-tls", dest="tls", action="store_false", default=None,
                     help="send that traffic in the clear, where the network "
                          "adversary reads and rewrites it")
    p.add_argument("--recs",
                   help="comma-separated hardening set, e.g. R2,R7,R9 or R10")
    p.add_argument("--careless-user", action="store_true", default=None,
                   help="the user confirms the operator name shown at m12 "
                        "without comparing it")
    p.add_argument("--config", help="key=value scenario file; flags override")


def _cfg_from_args(args) -> ScenarioConfig:
    """The --config file, if any, with each flag given on the command line
    laid over it as one more key=value line."""
    text = ""
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read --config: {exc}")
    given = {"approach": args.approach, "scenario": args.scenario,
             "tls": args.tls, "recs": args.recs,
             "careless_user": args.careless_user}
    text += "".join(f"\n{key}={value}" for key, value in given.items()
                    if value is not None)
    return parse_config(text)


def _chosen_attack(attack_id: str, cfg: ScenarioConfig):
    """The attack script `--attack` names, None if it names none; an unknown
    id or one that does not apply to `cfg` is a usage error."""
    if not attack_id:
        return None
    script = ATTACKS_BY_ID.get(attack_id)
    if script is None:
        raise ConfigError(f"unknown attack id {attack_id!r}")
    if not script.applicable(cfg):
        raise ConfigError(f"attack {attack_id} does not apply to {cfg.describe()}")
    return script


def _cmd_matrix(args) -> int:
    approaches = ("ds", "ac") if args.approach_filter == "both" \
        else (args.approach_filter,)
    tls_values = {"both": (True, False), "on": (True,), "off": (False,)}[args.tls_filter]
    scenarios = set(args.scenario_filter) if args.scenario_filter else None
    recs = frozenset(x.strip().upper() for x in args.recs.split(",") if x.strip())
    report = run_matrix(approaches, scenarios, tls_values, recs=recs)
    if not report.cells:
        raise ConfigError("no scenario row matches the selection")
    text = RENDERERS[args.format](report)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write --out: {exc}")
    else:
        print(text)
    if report.audit_failures:
        return 1
    if not recs and report.disagreements():
        return 1
    return 0


def _cmd_run(args) -> int:
    cfg = _cfg_from_args(args)
    script = _chosen_attack(args.attack, cfg)
    if script is None:
        outcomes = run_world_suite(cfg)
    else:
        outcomes = [run_world(cfg, "honest", honest_script),
                    run_world(cfg, script.id, script.run)]
    print(cfg.describe())
    for o in outcomes:
        bad = [g for g in GOALS if not o.verdict(g).ok]
        print(f"  run {o.script}: " +
              ("all goals hold" if not bad else "violated " + ", ".join(bad)))
        for g in bad:
            print(f"    {g}: {o.verdict(g).witness}")
    cells, audit_failures = evaluate_cell_group(
        cfg, outcomes, compare=not cfg.recs and script is None)
    mismatches = [c for c in cells if c.agree is False]
    for c in mismatches:
        print(f"  MISMATCH {c.goal}: actual={c.actual} expected={c.expected}")
    for msg in audit_failures:
        print(f"  AUDIT {msg}")
    return 1 if mismatches or audit_failures else 0


def _cmd_trace(args) -> int:
    cfg = _cfg_from_args(args)
    script = _chosen_attack(args.attack, cfg)
    world = build_world(cfg)
    (honest_script if script is None else script.run)(world)
    print(world.trace.render())
    return 0


def _cmd_goals(args) -> int:
    for g in goal_catalog():
        inj = "/".join("inj" if r.injective else "noninj" for r in g.requires) \
            if g.requires else "secrecy"
        print(f"{g.name:>2} [{g.side}] ({inj}) {g.summary}")
    return 0


def _cmd_explain(args) -> int:
    script = ATTACKS_BY_ID.get(args.marker)
    if script is None:
        print(f"unknown attack marker {args.marker!r}", file=sys.stderr)
        return 2
    print(f"attack {script.id}: {script.title}")
    print(f"typically violates: {', '.join(sorted(script.claims))}")
    print()
    print(script.explanation)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsp-lab",
        description="executable security lab for consumer remote SIM provisioning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="run the full scenario matrix and diff "
                                      "against the expected fixture")
    p.add_argument("--approach", dest="approach_filter",
                   choices=["ds", "ac", "both"], default="both",
                   help="profile ordering approach to run (default: both)")
    p.add_argument("--scenario", dest="scenario_filter", type=int,
                   action="append", metavar="N",
                   help="run only this scenario row; repeat for several "
                        "(default: every row)")
    p.add_argument("--tls", dest="tls_filter", choices=["on", "off", "both"],
                   default="both",
                   help="transport tunnel setting to run (default: both)")
    p.add_argument("--recs", default="",
                   help="comma-separated hardening set, such as R2,R7 or R10; "
                        "with one, no fixture comparison is made")
    p.add_argument("--format", choices=sorted(RENDERERS), default="text",
                   help="report format (default: text)")
    p.add_argument("--out", help="write the report to this file instead of "
                                 "standard output")
    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser("run", help="run one world: honest plus applicable attacks")
    _add_world_flags(p)
    p.add_argument("--attack", default="",
                   help="only this attack id (default: all applicable)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("trace", help="dump the canonical trace of one run")
    _add_world_flags(p)
    p.add_argument("--attack", default="",
                   help="trace this attack id's run (default: the honest run)")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("goals", help="list the goal catalog")
    p.set_defaults(fn=_cmd_goals)

    p = sub.add_parser("explain", help="describe one attack marker")
    p.add_argument("marker", help="attack id, as in the matrix superscripts")
    p.set_defaults(fn=_cmd_explain)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"rsp-lab {args.command}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
