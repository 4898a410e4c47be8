"""The trace-sweep gate: every honest, attack and control run over every
scenario row, tunnel setting, valid hardening set and user mode, rendered
and hashed.

A refactor of how a run is driven must leave every rendered trace, and the
text of every exception a run raises, byte for byte as it was.  The digest
below was taken when the LPA lost its strict mode; any change to it is a
change of behaviour, to be made on purpose and recorded.
"""

import hashlib

from rsplab.fixture import scenario_rows
from rsplab.harness import world_runs
from rsplab.scenarios import (ConfigError, ScenarioConfig, build_world,
                              expand_recs)

REC_SETS = ((), ("R10",), ("R1",), ("R2",), ("R3",), ("R7",), ("R8",),
            ("R9",), ("R7", "R9"))
RUNS = 1524
DIGEST = "400e8d70ec7adc1b319bd5744d3c9a5d59b5a86382f57980a26d57d4199449df"


def configs():
    for approach in ("ds", "ac"):
        for scenario in scenario_rows(approach):
            for tls in (True, False):
                for recs in REC_SETS:
                    try:
                        rec_set = expand_recs(recs, approach)
                        cfgs = [ScenarioConfig(approach, scenario, tls, rec_set,
                                               careless)
                                for careless in (False, True)]
                    except ConfigError:
                        continue  # a recommendation of the other approach
                    yield from cfgs


def sweep():
    """(number of runs, sha256 over every run's header, trace and error)."""
    digest = hashlib.sha256()
    count = 0
    for cfg in configs():
        for name, script in world_runs(cfg):
            world = build_world(cfg)
            try:
                script(world)
                error = ""
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            digest.update(f"== {cfg.describe()} "
                          f"careless={cfg.careless_user} run={name}\n"
                          f"{world.trace.render()}\n{error}\n".encode())
            count += 1
    return count, digest.hexdigest()


def test_every_run_renders_the_trace_it_rendered_before():
    assert sweep() == (RUNS, DIGEST)
