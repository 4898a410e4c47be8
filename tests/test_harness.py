"""Harness contract: exit codes, deterministic reports, renderers, CLI."""

import argparse
import dataclasses
import hashlib
import json

import pytest

from rsplab import harness
from rsplab.harness import (main, render_csv, render_json, render_text,
                            run_matrix)


@pytest.fixture(scope="module")
def small_report():
    return run_matrix(approaches=("ds",), scenarios={1, 5})


class TestReports:
    def test_two_runs_give_byte_identical_json(self):
        a = run_matrix(approaches=("ac",), scenarios={10})
        b = run_matrix(approaches=("ac",), scenarios={10})
        ja, jb = render_json(a), render_json(b)
        assert ja == jb

    def test_json_cells_carry_witnesses_for_failures(self, small_report):
        payload = json.loads(render_json(small_report))
        failed = [c for c in payload["cells"] if c["actual"] == "violated"]
        assert failed and all(c["witness"] for c in failed)
        redirect = [c for c in failed
                    if c["scenario"] == 5 and not c["tls"] and c["goal"] == "A"]
        # the witness slice names the rogue server identity the client accepted
        assert redirect and "sm-dp-2" in redirect[0]["witness"]

    def test_text_table_folds_the_two_tunnel_settings(self, small_report):
        text = render_text(small_report)
        assert "default-server approach" in text
        assert "o3" in text          # tunnel-dependent failure marker
        assert "disagreements: 0" in text

    def test_csv_has_one_row_per_cell(self, small_report):
        rows = render_csv(small_report).strip().splitlines()
        assert len(rows) == 1 + len(small_report.cells)

    def test_a_second_run_adds_no_term_and_no_memo_entry(self):
        # terms are interned and the memos are keyed by them; worlds are
        # deterministic, so one pass builds every term and fills every memo
        from rsplab import network, pki, roles, scenarios, terms
        from rsplab.events import MessageOp

        def sizes():
            return {"terms._TABLE": len(terms._TABLE),
                    "open_parts": terms._open_parts.cache_info().currsize,
                    "build": roles.Message.build.cache_info().currsize,
                    "sign": roles.Message.sign.cache_info().currsize,
                    "decode": roles.Message._decode.cache_info().currsize,
                    "open": roles.Message._open.cache_info().currsize,
                    "verify_cert": pki.verify_cert.cache_info().currsize,
                    "encode": terms.encode.cache_info().currsize}

        def one_pass():
            run_matrix()
            run_matrix(approaches=("ds",), recs=frozenset({"R10"}))
            # several downloads in one world, then replays of its requests
            world = scenarios.build_world(scenarios.ScenarioConfig("ac", 1, False))
            for user in (scenarios.VICTIM, scenarios.BYSTANDER, scenarios.VICTIM):
                world.start_download(user, code=world.request_profile(user))
            dial = world.servers[scenarios.SERVER1].identity.domain
            for e in list(world.trace.entries):
                if (isinstance(e, MessageOp) and e.channel == network.CH_LPA_SERVER
                        and e.direction.startswith("lpa->server:")):
                    network.adversary_request(world, dial, e.term)

        one_pass()
        first = sizes()
        assert all(first.values()), first
        one_pass()
        assert sizes() == first


# the plain matrix and the two R10 matrices, as the benchmark runs them
THREE_MATRICES = ((("ds", "ac"), frozenset()), (("ds",), frozenset({"R10"})),
                  (("ac",), frozenset({"R10"})))


def worlds_of_three_matrices(monkeypatch) -> list:
    """Every world the three matrices build, kept with its trace."""
    worlds = []
    build = harness.build_world

    def recording(cfg):
        worlds.append(build(cfg))
        return worlds[-1]

    monkeypatch.setattr(harness, "build_world", recording)
    for approaches, recs in THREE_MATRICES:
        run_matrix(approaches=approaches, recs=recs)
    return worlds


class TestBehaviourCounts:
    def test_the_three_matrices_keep_their_behaviour_counts(self, monkeypatch):
        # the counts that bench/README.md says a pure speed change must not
        # move, taken from the traces of every world the matrices build
        from rsplab.events import MessageOp, Note
        worlds = worlds_of_three_matrices(monkeypatch)
        entries = [e for w in worlds for e in w.trace.entries]
        assert len(worlds) == 203
        assert len(entries) == 9421
        assert sum(isinstance(e, MessageOp) and e.by_adversary
                   for e in entries) == 157
        assert sum(isinstance(e, Note) and e.kind == "abort"
                   for e in entries) == 60
        # no block is the LPA's: both are the adversary's "dropped m7"
        assert sum(isinstance(e, Note) and e.kind == "blocked"
                   for e in entries) == 2

    def test_the_three_matrices_check_only_the_goals_their_cells_read(
            self, monkeypatch):
        # a run is checked only for the goals no earlier run of its cell
        # group violated: 2,045 + 762 verdicts, where checking every goal of
        # every run computes 2,233 + 812
        from rsplab import goals
        calls = {"check_correspondence": 0, "check_secrecy": 0}
        for name in calls:
            def counting(*args, _check=getattr(goals, name), _name=name):
                calls[_name] += 1
                return _check(*args)
            monkeypatch.setattr(goals, name, counting)
        assert len(worlds_of_three_matrices(monkeypatch)) == 203
        assert calls == {"check_correspondence": 2045, "check_secrecy": 762}

    def test_no_run_compares_trace_entries_by_value(self, monkeypatch):
        # entries are plain tuples, so one equals a bare tuple of its values;
        # the matrices must not depend on that, or on entry equality at all.
        # Each event tag has its own class, and each one is patched: a patch
        # on a shared base could sit behind tuple's own __eq__
        from rsplab.events import EVENT_FIELDS, Event, LearnOp, MessageOp, Note
        compared = []

        def refuse(a, b):
            compared.append((a, b))
            raise AssertionError("a trace entry was compared by value")

        event_kinds = Event.__subclasses__()
        assert sorted(k.tag for k in event_kinds) == sorted(EVENT_FIELDS)
        for kind in (*event_kinds, LearnOp, MessageOp, Note):
            monkeypatch.setattr(kind, "__eq__", refuse)
            monkeypatch.setattr(kind, "__ne__", refuse)
        worlds = worlds_of_three_matrices(monkeypatch)
        assert len(worlds) == 203 and not compared


def dumped_payload(report) -> str:
    """The report through ``json.dumps``, as render_json wrote it before it
    wrote the fixed shape itself."""
    payload = {
        "seed": 0,
        "recs": list(report.recs),
        "cells": [
            {"approach": c.approach, "scenario": c.scenario, "tls": c.tls,
             "goal": c.goal, "actual": c.actual, "expected": c.expected,
             "agree": c.agree, "refs": list(c.refs), "via": c.via,
             "witness": c.witness}
            for c in report.cells
        ],
        "disagreements": len(report.disagreements()),
        "audit_failures": report.audit_failures,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


class TestJsonRendering:
    @pytest.mark.parametrize("approaches,recs", [
        (("ds", "ac"), frozenset()),
        (("ds",), frozenset({"R10"})),
        (("ac",), frozenset({"R10"})),
    ], ids=["plain", "r10-ds", "r10-ac"])
    def test_the_matrices_render_as_json_dumps_writes_them(self, approaches, recs):
        report = run_matrix(approaches=approaches, recs=recs)
        assert render_json(report) == dumped_payload(report)

    def test_an_empty_report_renders_as_json_dumps_writes_it(self):
        report = harness.MatrixReport([], (), 0.0)
        assert render_json(report) == dumped_payload(report)

    def test_every_field_shape_renders_as_json_dumps_writes_it(self):
        odd = 'say "hi" \\ back\nthen\ttab: caf\u00e9 \u2603'
        cells = [
            harness.Cell("ds", 1, True, "A", "pass", expected="pass"),
            harness.Cell("ac", 12, False, "Bp", "violated", expected="pass",
                         refs=("a", "e", "8"), via="e", witness=odd),
            harness.Cell("ds", 3, False, "K", "violated", refs=("c",),
                         via=odd, witness=""),
            harness.Cell("ac", 6, True, odd, odd),
        ]
        report = harness.MatrixReport(cells, ("R10", odd), 1.5,
                                      audit_failures=["crashed: " + odd, ""])
        assert [c.agree for c in cells] == [True, False, None, None]
        assert render_json(report) == dumped_payload(report)
        assert json.loads(render_json(report))["cells"][1]["witness"] == odd


class TestCli:
    def test_matrix_exits_zero_on_agreement(self, capsys):
        assert main(["matrix", "--approach", "ds", "--scenario", "1"]) == 0
        assert "disagreements: 0" in capsys.readouterr().out

    def test_matrix_json_is_byte_identical_to_the_pinned_product(self, capsys):
        # the product itself: any change to a verdict, witness, ref or the
        # rendering moves this digest
        assert main(["matrix", "--format", "json"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == \
            "97c2546b37e691c18b88178b4c755c06393796d961ae7e56922f373ad32e8fa6"

    @pytest.mark.parametrize("approach, digest", [
        ("ds", "d7e94d6e92411895ef3fcdf40f7392bee3d9a72456fc0e8392641f2734f9bc3a"),
        ("ac", "395658d11db39b1fb9b646d8c0199c51f0f1501df5dd2bd8bf8cbe126d019807"),
    ], ids=["ds", "ac"])
    def test_r10_matrix_json_is_byte_identical_to_the_pinned_digest(
            self, approach, digest):
        # the fully hardened matrices: every world built under R10
        report = run_matrix(approaches=(approach,), recs={"R10"})
        out = render_json(report).encode()
        assert hashlib.sha256(out).hexdigest() == digest

    def test_run_prints_violations_with_witness(self, capsys):
        rc = main(["run", "--approach", "ds", "--scenario", "9", "--tls",
                   "--attack", "a"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "violated" in out and "Bp" in out
        assert "trigger #" in out

    def test_run_under_hardening_shows_no_violations(self, capsys):
        for tls_flag in ("--tls", "--no-tls"):
            rc = main(["run", "--approach", "ds", "--scenario", "5",
                       "--recs", "R2,R7,R9", tls_flag])
            out = capsys.readouterr().out
            assert rc == 0
            assert "violated" not in out.replace("violated none", "")

    def test_trace_dumps_canonical_terms(self, capsys):
        rc = main(["trace", "--approach", "ac", "--scenario", "1", "--no-tls"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "(nonce" in out and "U3(" in out

    def test_goals_lists_all_fifteen(self, capsys):
        assert main(["goals"]) == 0
        out = capsys.readouterr().out
        assert len([l for l in out.splitlines() if l.strip()]) == 15

    def test_explain_knows_every_marker(self, capsys):
        for marker in "123456789abcdef":
            assert main(["explain", marker]) == 0
        assert main(["explain", "zz"]) == 2

    def test_unknown_attack_id_usage_error(self, capsys):
        assert main(["trace", "--approach", "ds", "--attack", "zz"]) == 2

    @pytest.mark.parametrize("argv", [
        ["run", "--approach", "ds", "--attack", "zz"],
        ["run", "--approach", "ds", "--scenario", "1", "--attack", "a"],
        ["trace", "--approach", "ds", "--scenario", "1", "--attack", "a"],
        ["matrix", "--recs", "R2"],
        ["run", "--approach", "ac", "--recs", "R2"],
        ["matrix", "--scenario", "42"],
        ["matrix", "--approach", "ac", "--scenario", "9"],
        ["run", "--config", "{missing}/x.cfg"],
        ["trace", "--config", "{missing}/x.cfg"],
        ["run", "--config", "{not_utf8}"],
        ["run", "--config", "{unknown_key}"],
        ["matrix", "--approach", "ds", "--scenario", "1",
         "--out", "{missing}/x.json"],
        ["explain", "zz"],
    ], ids=" ".join)
    def test_input_errors_exit_2_with_one_line(self, argv, tmp_path, capsys):
        (tmp_path / "latin1.cfg").write_bytes(b"scenario = \xe9\n")
        (tmp_path / "typo.cfg").write_text("scenaro = 3\n")
        argv = [a.format(missing=tmp_path / "missing",
                         not_utf8=tmp_path / "latin1.cfg",
                         unknown_key=tmp_path / "typo.cfg") for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"rsp-lab {argv[0]}: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["matrix", "run", "trace"])
    def test_seed_is_refused_where_nothing_reads_it(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "1"])
        assert exc.value.code == 2

    def test_every_matrix_flag_says_what_it_does(self):
        # and every flag and argument of the other subcommands too
        sub = next(a for a in harness.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = [a for a in sub.choices["matrix"]._actions if a.option_strings]
        assert len(flags) == 7  # --help and six of its own
        silent = [(name, a.dest) for name, p in sub.choices.items()
                  for a in p._actions if not a.help]
        assert sorted(sub.choices) == ["explain", "goals", "matrix", "run", "trace"]
        assert silent == []

    def test_matrix_echoes_recs_as_read(self, capsys):
        argv = ["matrix", "--approach", "ds", "--scenario", "1", "--tls", "on",
                "--recs", "r10, R7"]
        assert main(argv + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["recs"] == ["R10", "R7"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("hardening in effect: R10, R7\n")

    def test_run_reports_a_crashed_script(self, monkeypatch, capsys):
        def crash(world):
            raise RuntimeError("boom")

        controls = harness.negative_controls
        monkeypatch.setattr(harness, "negative_controls", lambda cfg: [
            dataclasses.replace(c, run=crash) for c in controls(cfg)])
        rc = main(["run", "--approach", "ds", "--scenario", "1"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "run=ctl-no-forgery: run crashed: RuntimeError: boom" in out

    def test_run_with_attack_builds_only_the_two_worlds_it_prints(
            self, monkeypatch, capsys):
        built = []
        build = harness.build_world
        monkeypatch.setattr(harness, "build_world",
                            lambda cfg: built.append(cfg) or build(cfg))
        rc = main(["run", "--approach", "ac", "--scenario", "3", "--no-tls",
                   "--attack", "e"])
        out = capsys.readouterr().out
        assert rc == 0
        assert len(built) == 2
        assert out.splitlines()[1:3] == ["  run honest: all goals hold",
                                         "  run e: violated B, Bp, E, F, J, K"]
        # the output of the suite-then-filter version this replaces
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "10568e2aa9c194101f3cbd5256d421d8997f7289843f37a87f2e117477c2e6b9"

    def test_config_file_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "world.cfg"
        cfg.write_text("approach=ac\nscenario=10\ntls=off\n")
        rc = main(["run", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "scenario=10" in out

    def test_flags_override_the_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "world.cfg"
        cfg.write_text("approach=ac\nscenario=10\ntls=off\n")
        rc = main(["run", "--config", str(cfg), "--approach", "ds",
                   "--scenario", "9"])
        out = capsys.readouterr().out
        assert rc == 0
        # the flags win; the file still sets what no flag names
        assert out.startswith("approach=ds scenario=9 tls=off")
