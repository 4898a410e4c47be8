"""What a trace costs the cyclic collector: each event is one tracked object
and the trace's index holds untracked trace positions, so a long-lived world
holds about one tracked object per trace entry.  Full collections scale with
the tracked objects that long traces keep alive."""

import gc

from rsplab.events import Event, Trace
from rsplab.goals import check_all
from rsplab.scenarios import (BYSTANDER, VICTIM, ScenarioConfig, build_world)
from rsplab.terms import Atom, Nonce
from rsplab.world import ADVERSARY_USER

USERS = (VICTIM, BYSTANDER, ADVERSARY_USER)


def tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


class TestTraceFootprint:
    def test_each_appended_event_is_one_tracked_object(self):
        # the fields come from a small pool of terms built up front, and one
        # field is bucketed before the appends, so the index's lists exist
        trace = Trace()
        pool = [Nonce(n, "i-t") for n in range(4)]
        sa, s, mno = Atom("srv-a"), Atom("dl"), Atom("mno1")
        for it in pool:
            trace.append(Event.S0(Sa=sa, It=it, S=s, mno=mno, iac=mno))
        assert len(trace.with_value("S0", 1, pool[0])) == 1
        n = 2000
        before = tracked()
        for k in range(n):
            trace.append(Event.S0(Sa=sa, It=pool[k % 4], S=s, mno=mno, iac=mno))
        # an index entry or a field tuple of its own per event would make it 3n
        assert tracked() - before <= n + 10
        assert len(trace.with_value("S0", 1, pool[0])) == 1 + n // 4
        assert len(trace.events_tagged("S0")) == 4 + n

    def test_a_finished_world_holds_about_one_tracked_object_per_entry(self):
        # 42 honest downloads by three users, 7 orders each up front and one
        # more after each of the first 21 downloads, then every goal checked.
        # The first world interns the run's terms, which the second reuses.
        def run() -> object:
            w = build_world(ScenarioConfig("ds", 1, False))
            queue = [(u, w.request_profile(u)) for _ in range(7) for u in USERS]
            later = [u for _ in range(7) for u in USERS]
            while queue:
                user, code = queue.pop(0)
                assert w.start_download(user, code=code).completed
                if later:
                    user = later.pop(0)
                    queue.append((user, w.request_profile(user)))
            assert all(v.ok for v in check_all(w.trace, w.adversary.knowledge).values())
            return w

        run()
        before = tracked()
        world = run()
        held = tracked() - before
        entries = len(world.trace.entries)
        assert entries > 1400
        # three tracked objects per event would make it about 2.0 per entry
        assert held <= 1.5 * entries, (held, entries)
