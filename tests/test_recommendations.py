"""Hardening is monotone: over every subset of the recommendations that
apply to an approach (16 for ds over R2, R7, R8, R9; 32 for ac over R1, R3,
R7, R8, R9), adding one recommendation never turns a cell that holds into
one that is violated, and no subset's runs fail the capability audit.

Two more metamorphic relations hold on the plain, R10-ds and R10-ac
matrices: taking the tunnel away, or granting the adversary more, never
turns a violated cell into one that holds.

It is also the one tier-1 test that builds worlds under every
recommendation set in one process.  The plain matrix, run first and again
last, must agree with the fixture both times, so a per-world setting that
leaks into state shared between worlds (the PKI, the script registries)
fails here."""

from itertools import combinations

import pytest

from rsplab.fixture import scenario_rows
from rsplab.harness import run_matrix
from rsplab.scenarios import COMPROMISES

APPLICABLE = {"ds": ("R2", "R7", "R8", "R9"),
              "ac": ("R1", "R3", "R7", "R8", "R9")}


# the plain matrix and the two R10 matrices
MATRICES = {"plain": (("ds", "ac"), frozenset()),
            "R10-ds": (("ds",), frozenset({"R10"})),
            "R10-ac": (("ac",), frozenset({"R10"}))}


def verdicts(report) -> dict:
    return {(c.scenario, c.tls, c.goal): c.actual for c in report.cells}


@pytest.fixture(scope="module", params=MATRICES)
def violated(request) -> set:
    """The (approach, scenario, tls, goal) cells one matrix shows violated."""
    approaches, recs = MATRICES[request.param]
    return {key for key, cell in
            run_matrix(approaches=approaches, recs=recs).cell_map().items()
            if cell.actual == "violated"}


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


def test_taking_the_tunnel_away_never_fixes_a_cell(violated):
    assert violated
    assert not [(a, row, goal) for a, row, tls, goal in violated
                if tls and (a, row, False, goal) not in violated]


def test_granting_more_never_fixes_a_cell(violated):
    # pairs of rows whose COMPROMISES grants include one another's, read
    # from the table: row 1 grants nothing, and row 5's server is one of
    # row 2's two
    included = [(small, large) for small in COMPROMISES for large in COMPROMISES
                if small != large
                and set(COMPROMISES[small]) <= set(COMPROMISES[large])]
    assert (5, 2) in included
    assert not [(a, small, large, tls, goal)
                for small, large in included
                for a, row, tls, goal in violated
                if row == small and large in scenario_rows(a)
                and (a, large, tls, goal) not in violated]
