"""The three benchmark workloads.

Each workload is built once from the seed (its constructor is the set-up)
and then runs one identical iteration per ``iterate`` call, so every
iteration of a run does the same work and per-iteration counts repeat
exactly.  Iterations drive the
lab only through its stable public entry points: ``build_world``,
``World.request_profile`` / ``start_download``, ``network.adversary_request``,
``check_all``, ``audit_trace``, ``run_matrix`` and ``render_json``.  They are
always looked up on their modules at call time, so the traced run can wrap
them without the workloads knowing.

``iterate`` checks its own outputs and returns ``(ops, failed)``: the number
of operations the iteration attempted and how many of them failed a check.

Why these three (the prediction table is in README.md):

* ``matrix`` is the product: the plain 570-cell matrix plus the R10-hardened
  matrices of both approaches.  It mixes every layer.
* ``replay`` is deduction-bound: every adversary send passes the derivability
  gate right after the adversary learned something new, so nearly every send
  rebuilds the knowledge closure.  Goal checking hardly matters.
* ``sessions`` is write-heavy and check-bound: the adversary learns ~300 terms
  and never sends, so there is one closure at check time, and correspondence
  checking over a long trace dominates.
"""

from __future__ import annotations

import collections
import hashlib
import random
from contextlib import nullcontext

from rsplab import attacks, fixture, goals, harness, network, scenarios
from rsplab.events import MessageOp
from rsplab.world import ADVERSARY_USER

# sha256 of render_json() for the plain, R10-ds and R10-ac matrices, recorded
# when the benchmark was added; equal under PYTHONHASHSEED 0, 1 and 7.
MATRIX_DIGESTS = {
    "plain": "ce92300a4c862fa34efeb8b746fea67f5f1136aa149e5c4ef4a0cce7b159bb31",
    "r10_ds": "d7e94d6e92411895ef3fcdf40f7392bee3d9a72456fc0e8392641f2734f9bc3a",
    "r10_ac": "395658d11db39b1fb9b646d8c0199c51f0f1501df5dd2bd8bf8cbe126d019807",
}
MATRIX_CELLS = {"plain": 570, "r10_ds": 270, "r10_ac": 300}
MATRIX_RUNS = (
    ("plain", ("ds", "ac"), frozenset()),
    ("r10_ds", ("ds",), frozenset({"R10"})),
    ("r10_ac", ("ac",), frozenset({"R10"})),
)

REPLAY_STEPS = 200
REPLAY_NEW_SESSIONS = 70      # m3 replays: each opens a session and teaches new terms
SESSION_USERS = (scenarios.VICTIM, scenarios.BYSTANDER, ADVERSARY_USER)
ORDERS_UP_FRONT = 7           # per user, placed before any download
ORDERS_LATER = 7              # per user, placed one after each early download


def no_span(name: str):
    return nullcontext()


def _all_goals_hold(world) -> bool:
    verdicts = goals.check_all(world.trace, world.adversary.knowledge)
    return all(v.ok for v in verdicts.values())


def _audit_clean(world) -> bool:
    return not attacks.audit_trace(world.trace)


def _common_setup() -> None:
    """What every run pays before its first iteration, beyond imports: the
    fixture, the goal catalog and a first world."""
    fixture.expected_matrix()
    goals.goal_catalog()
    scenarios.build_world(scenarios.ScenarioConfig("ds", 1, True))


class Matrix:
    """Plain matrix plus R10-ds and R10-ac; fixed input, the seed is unused."""

    op_name = "cells"

    def __init__(self, seed: int) -> None:
        _common_setup()
        self.ops_per_iteration = sum(MATRIX_CELLS.values())

    def iterate(self, span=no_span) -> tuple[int, int]:
        failed = 0
        for label, approaches, recs in MATRIX_RUNS:
            with span("harness.matrix." + label):
                report = harness.run_matrix(approaches=approaches, recs=recs)
            with span("harness.render_json"):
                text = harness.render_json(report)
            digest = hashlib.sha256(text.encode()).hexdigest()
            # audit_failures also lists crashed script runs
            if (len(report.cells) != MATRIX_CELLS[label]
                    or report.disagreements() or report.audit_failures
                    or digest != MATRIX_DIGESTS[label]):
                failed += MATRIX_CELLS[label]
        return self.ops_per_iteration, failed


class Replay:
    """Honest download, then seeded replays of the observed LPA->server
    requests through the adversary's gated client connection."""

    op_name = "replay steps"

    def __init__(self, seed: int) -> None:
        _common_setup()
        rng = random.Random(seed)
        self.approach = rng.choice(scenarios.APPROACHES)
        # the share of session-opening replays is fixed; the seed only picks
        # which stale request fills each other slot and the order of all, so
        # every seed gives the same closure sizes
        plan = ["m3"] * REPLAY_NEW_SESSIONS
        plan += [rng.choice(("m7", "m11", "m15"))
                 for _ in range(REPLAY_STEPS - REPLAY_NEW_SESSIONS)]
        rng.shuffle(plan)
        self.plan = plan
        self.ops_per_iteration = len(plan)

    def iterate(self, span=no_span) -> tuple[int, int]:
        cfg = scenarios.ScenarioConfig(self.approach, 1, False)
        world = scenarios.build_world(cfg)
        failed = 0
        with span("attacks.script"):
            code = world.request_profile(scenarios.VICTIM)
            downloaded = world.start_download(scenarios.VICTIM, code=code).completed
            observed = {e.direction.split(":")[1]: e.term
                        for e in world.trace.entries
                        if isinstance(e, MessageOp)
                        and e.channel == network.CH_LPA_SERVER
                        and e.direction.startswith("lpa->server:")}
            dial = world.servers[scenarios.SERVER1].identity.domain
            for stage in self.plan:
                try:
                    network.adversary_request(world, dial, observed[stage])
                except network.GateViolation:
                    failed += 1
        if not (downloaded and _all_goals_hold(world) and _audit_clean(world)):
            failed = self.ops_per_iteration
        return self.ops_per_iteration, failed


class Sessions:
    """Many honest downloads by three users in a seeded order, one world per
    ordering approach; the adversary only listens."""

    op_name = "downloads"

    def __init__(self, seed: int) -> None:
        _common_setup()
        rng = random.Random(seed)
        self.up_front = [u for u in SESSION_USERS for _ in range(ORDERS_UP_FRONT)]
        self.later = [u for u in SESSION_USERS for _ in range(ORDERS_LATER)]
        rng.shuffle(self.up_front)
        rng.shuffle(self.later)
        self.downloads_per_world = len(self.up_front) + len(self.later)
        self.ops_per_iteration = self.downloads_per_world * len(scenarios.APPROACHES)

    def iterate(self, span=no_span) -> tuple[int, int]:
        failed = 0
        for approach in scenarios.APPROACHES:
            world = scenarios.build_world(scenarios.ScenarioConfig(approach, 1, False))
            world_failed = 0
            with span("attacks.script"):
                # downloads consume orders first-in first-out, the order the
                # server announces them in
                queue = collections.deque(
                    (u, world.request_profile(u)) for u in self.up_front)
                later = iter(self.later)
                while queue:
                    user, code = queue.popleft()
                    if not world.start_download(user, code=code).completed:
                        world_failed += 1
                    nxt = next(later, None)
                    if nxt is not None:
                        queue.append((nxt, world.request_profile(nxt)))
            if not (_all_goals_hold(world) and _audit_clean(world)):
                world_failed = self.downloads_per_world
            failed += world_failed
        return self.ops_per_iteration, failed


WORKLOADS = {"matrix": Matrix, "replay": Replay, "sessions": Sessions}
