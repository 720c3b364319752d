import time

import footfall.nmf
import footfall.scenes
from spans import WRAPPED, NullTracer, Tracer


def test_self_times_add_up_to_the_root_span():
    tr = Tracer()
    with tr.span("bench.capture"):
        with tr.span("a"):
            time.sleep(0.002)
            with tr.span("b"):
                time.sleep(0.002)
        with tr.span("c"):
            time.sleep(0.001)
    own = tr.self_times()
    root = tr.spans[0]
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]
    assert abs(sum(own) - (root.end - root.start)) < 1e-12
    assert all(t >= 0 for t in own)
    kids = tr.children()
    assert sorted(tr.subtree(0, kids)) == [0, 1, 2, 3]
    assert tr.subtree(1, kids) == [1, 2]


def test_patched_wraps_callees_and_restores_them():
    originals = {(m, a): getattr(__import__(m, fromlist=[a]), a) for m, a, _ in WRAPPED}
    tr = Tracer()
    with tr.patched():
        assert footfall.nmf.nmf_fit is not originals[("footfall.nmf", "nmf_fit")]
        assert footfall.scenes.place_footstep.__wrapped__ is \
            originals[("footfall.scenes", "place_footstep")]
    for (m, a), fn in originals.items():
        assert getattr(__import__(m, fromlist=[a]), a) is fn


def test_null_tracer_records_nothing():
    tr = NullTracer()
    with tr.patched(), tr.span("x") as s:
        assert s is None
    assert not tr.enabled
