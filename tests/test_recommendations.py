"""Hardening is monotone: over every subset of the recommendations that
apply to an approach (16 for ds over R2, R7, R8, R9; 32 for ac over R1, R3,
R7, R8, R9), adding one recommendation never turns a cell that holds into
one that is violated, and no subset's runs fail the capability audit.

It is also the one tier-1 test that builds worlds under every
recommendation set in one process.  The plain matrix, run first and again
last, must agree with the fixture both times, so a per-world setting that
leaks into state shared between worlds (the PKI, the script registries)
fails here."""

from itertools import combinations

import pytest

from rsplab.harness import run_matrix

APPLICABLE = {"ds": ("R2", "R7", "R8", "R9"),
              "ac": ("R1", "R3", "R7", "R8", "R9")}


def verdicts(report) -> dict:
    return {(c.scenario, c.tls, c.goal): c.actual for c in report.cells}


def subsets(recs):
    return [frozenset(c) for n in range(len(recs) + 1)
            for c in combinations(recs, n)]


@pytest.mark.parametrize("approach", ["ds", "ac"])
def test_adding_a_recommendation_never_breaks_a_cell(approach):
    recs = APPLICABLE[approach]
    actual = {}
    for subset in subsets(recs):
        report = run_matrix(approaches=(approach,), recs=subset)
        # only the plain matrix (the empty subset) has fixture marks
        assert not report.audit_failures and not report.disagreements(), \
            (sorted(subset), report.audit_failures)
        actual[subset] = verdicts(report)
    assert len(actual) == 2 ** len(recs)
    assert not run_matrix(approaches=(approach,)).disagreements()
    flips = [(sorted(subset), r, cell)
             for subset, cells in actual.items()
             for r in recs if r not in subset
             for cell, verdict in cells.items()
             if verdict == "pass" and actual[subset | {r}][cell] == "violated"]
    assert not flips
