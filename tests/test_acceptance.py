"""Acceptance gate: one test per criterion, each printing its own verdict
line.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

1. honest baseline passes everywhere, under a second per world
2. the full matrix agrees with the expected-verdict fixture, under a minute
3. the named attack reproductions land with witnesses
4. the hardening sets remove the tunnel dependence (except ac scenario 3)
5. forward secrecy holds, and the ephemeral-leaking mutant is caught
6. the deduction engine matches the brute-force oracle on 1000+ random bases
7. every adversary send in every criteria-1..4 trace was derivable when sent
8. flipping each checked field of each signed message aborts the session
"""

import random
import time

import pytest

from dy_oracle import oracle_deduce
from term_gen import TermGen
from rsplab.attacks import honest_script
from rsplab.fixture import GOALS, PAPER_DIVERGENCES, expected_matrix
from rsplab.goals import check_all, check_forward_secrecy
from rsplab.harness import run_matrix, run_world_suite
from rsplab.scenarios import ScenarioConfig, build_world
from rsplab.terms import Knowledge


def _verdict_line(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def matrix_report():
    return run_matrix()


@pytest.fixture(scope="module")
def hardened_reports():
    return {approach: run_matrix(approaches=(approach,),
                                 recs=frozenset({"R10"}))
            for approach in ("ds", "ac")}


def test_criterion_1_honest_baseline():
    worst = 0.0
    for approach in ("ds", "ac"):
        start = time.monotonic()
        world = build_world(ScenarioConfig(approach, 1, True))
        honest_script(world)
        verdicts = check_all(world.trace, world.adversary.knowledge)
        worst = max(worst, time.monotonic() - start)
        bad = [g for g in GOALS if not verdicts[g].ok]
        assert not bad, f"honest {approach} run violates {bad}"
    _verdict_line(1, worst < 1.0,
                  f"all 15 goals hold on honest runs, worst build+run+check "
                  f"{worst:.3f}s")


def test_criterion_2_fixture_agreement(matrix_report):
    bad = matrix_report.disagreements()
    detail = (f"{len(matrix_report.cells)} cells, "
              f"{len(bad)} disagreements, {matrix_report.runtime:.2f}s")
    for c in bad[:5]:
        detail += f"; {c.approach}/{c.scenario}/{c.tls}/{c.goal}"
    _verdict_line(2, len(matrix_report.cells) == 570 and not bad
                  and matrix_report.runtime < 60.0, detail)


def test_criterion_3_named_reproductions():
    def cell_actuals(approach, scenario, tls):
        outcomes = run_world_suite(ScenarioConfig(approach, scenario, tls))
        actual = {}
        for g in GOALS:
            hit = next((o for o in outcomes if not o.verdicts[g].ok), None)
            actual[g] = (hit is not None,
                         hit.verdicts[g].witness if hit else None)
        return actual

    # (a) redirect against the honest intended server, tunnel off
    a = cell_actuals("ds", 5, False)
    for g in ("A", "C", "D", "E", "F", "I", "J", "X", "Z"):
        violated, witness = a[g]
        assert violated and witness, f"ds/5/no-tls {g} not demonstrated"
    # (b) signature swap with a compromised second eUICC leaks the profile
    b = cell_actuals("ac", 6, False)
    for g in ("B", "D", "W", "Y"):
        assert b[g][0], f"ac/6/no-tls {g} not demonstrated"
    assert "adversary derives" in b["Y"][1]
    # (c) double-order against the victim's eUICC
    c = cell_actuals("ds", 9, True)
    for g in ("Bp", "G", "J", "K"):
        assert c[g][0], f"ds/9 {g} not demonstrated"
    # (d) misbinding in both directions
    assert cell_actuals("ds", 2, True)["B"][0]
    assert cell_actuals("ds", 5, False)["B"][0]
    assert cell_actuals("ds", 3, False)["C"][0]
    assert cell_actuals("ac", 6, False)["C"][0]
    _verdict_line(3, True, "redirect, signature-swap, double-order and both "
                           "misbinding reproductions all verified with witnesses")


def test_criterion_4_recommendation_efficacy(hardened_reports):
    def rows(report):
        out = {}
        for c in report.cells:
            out.setdefault((c.scenario, c.tls), {})[c.goal] = c.actual
        return out

    ds = rows(hardened_reports["ds"])
    ds_diff = [sc for sc in sorted({k[0] for k in ds})
               if ds[(sc, True)] != ds[(sc, False)]]
    ac = rows(hardened_reports["ac"])
    ac_diff = [sc for sc in sorted({k[0] for k in ac})
               if ac[(sc, True)] != ac[(sc, False)]]
    ok = not ds_diff and ac_diff == [3]
    _verdict_line(4, ok,
                  f"hardened default-server tunnel-independent (diffs {ds_diff}), "
                  f"hardened activation-code differs only in scenario {ac_diff}")


def test_criterion_5_forward_secrecy():
    for approach in ("ds", "ac"):
        for tls in (True, False):
            world = build_world(ScenarioConfig(approach, 1, tls))
            honest_script(world)
            assert check_forward_secrecy(world).ok, (approach, tls)
    # the mutant: the server's ephemeral private share leaks after the run
    mutant = build_world(ScenarioConfig("ds", 1, False))
    honest_script(mutant)
    (_, sent_qs), = mutant.trace.events_tagged("SENT_QS")
    mutant.adversary.learn(sent_qs.params[0].of)
    caught = not check_forward_secrecy(mutant).ok
    _verdict_line(5, caught, "long-term key leak after the run reveals "
                             "nothing; the ephemeral-leaking mutant is caught")


def test_criterion_6_deduction_oracle_equivalence():
    rng = random.Random(20260810)
    cases = 0
    for _ in range(250):
        gen = TermGen(rng)
        base = gen.base()
        kb = Knowledge(base)
        for _ in range(4):
            goal = gen.term(rng.randrange(1, 5))
            assert kb.deduce(goal) == oracle_deduce(base, goal)
            cases += 1
    _verdict_line(6, cases >= 1000,
                  f"deduce matches the saturation oracle on {cases} random cases")


def test_criterion_7_adversary_soundness(matrix_report, hardened_reports):
    failures = list(matrix_report.audit_failures)
    for report in hardened_reports.values():
        failures += report.audit_failures
    _verdict_line(7, not failures,
                  f"capability audit clean across all matrix traces "
                  f"({len(matrix_report.cells)} plain + hardened cells); "
                  + (failures[0] if failures else "no exceptions"))


def test_criterion_8_fault_injection_abort_coverage():
    from test_roles import FLIPS, flip_once
    checked = 0
    for approach in ("ds", "ac"):
        for stage, name, rec, outcome in FLIPS:
            world, result = flip_once(approach, stage, name, rec)
            if outcome == "stops":
                assert not result.completed, (approach, stage, name, rec)
                assert not (world.trace.events_tagged("U3")
                            and world.trace.events_tagged("S3"))
                checked += 1
    _verdict_line(8, checked >= 44,
                  f"{checked} field flips across both approaches each hit "
                  f"their abort site; no flipped run completed")


def test_documented_fixture_divergence_is_single_and_reasoned():
    assert set(PAPER_DIVERGENCES) == {("ac", 3, "I")}
    mark, refs, why = PAPER_DIVERGENCES[("ac", 3, "I")]
    assert refs == ("e",) and "MAC" in why


@pytest.mark.xfail(reason="published analysis marks goal I tunnel-dependent in "
                          "activation-code scenario 3 via code replacement; with "
                          "the operator id MAC-verified by the eUICC (required, "
                          "or scenario 4 regresses) the accepted session always "
                          "has matching start events, so no trace violates I",
                   strict=True)
def test_divergent_cell_as_published():
    outcomes = run_world_suite(ScenarioConfig("ac", 3, False))
    assert any(not o.verdicts["I"].ok for o in outcomes)
