"""The incremental SwitchCAC caches agree with a from-scratch rebuild.

The admission acceptance criterion for the cache layer: after any
admit/release/admit sequence, every ``CheckResult`` produced by the
incrementally-maintained switch must be *identical* (exact ``==`` on
Fraction arithmetic) to the one produced by a fresh switch that
re-admits the same legs from nothing.  These tests drive both switches
through mixed-priority, multi-input scenarios and compare after every
transition, and also assert :meth:`SwitchCAC.verify_consistency`, which
cross-checks each populated derived cache (``Sif``, higher-priority
aggregates, ``Soa`` sums) against the per-leg ground truth.
"""

import random
from fractions import Fraction as F

import pytest

from repro.core.switch_cac import SwitchCAC
from repro.core.traffic import VBRParameters, cbr

BOUNDS = {0: 10_000, 1: 10_000, 2: 10_000}

STREAMS = [
    cbr(F(1, 16)).worst_case_stream(),
    VBRParameters(pcr=F(1, 4), scr=F(1, 50), mbs=3).worst_case_stream(),
    VBRParameters(pcr=F(1, 2), scr=F(1, 40), mbs=5).worst_case_stream(),
    VBRParameters(pcr=F(1, 8), scr=F(1, 100), mbs=2)
    .worst_case_stream().delayed(F(7, 2)),
]


def make_switch():
    switch = SwitchCAC("sw-incremental")
    switch.configure_link("out", BOUNDS)
    switch.configure_link("other", {0: 10_000})
    return switch


def rebuilt_copy(switch):
    """A fresh switch holding the same legs, built from nothing."""
    fresh = SwitchCAC(switch.name, filter_per_input=switch.filter_per_input)
    for out_link in switch.out_links():
        fresh.configure_link(out_link, {
            priority: switch.advertised_bound(out_link, priority)
            for priority in switch.priorities(out_link)
        })
    for leg in switch.legs.values():
        fresh.admit(leg.connection_id, leg.in_link, leg.out_link,
                    leg.priority, leg.stream)
    return fresh


def assert_matches_rebuild(switch, probes):
    """Incremental and rebuilt switches must give identical answers."""
    fresh = rebuilt_copy(switch)
    assert switch.verify_consistency()
    for in_link, out_link, priority, stream in probes:
        incremental = switch.check(in_link, out_link, priority, stream)
        scratch = fresh.check(in_link, out_link, priority, stream)
        assert incremental.computed_bounds == scratch.computed_bounds
        assert incremental.violations == scratch.violations
    for out_link in switch.out_links():
        for priority in switch.priorities(out_link):
            assert (switch.soa(out_link, priority)
                    == fresh.soa(out_link, priority))
            assert (switch.sof_higher(out_link, priority)
                    == fresh.sof_higher(out_link, priority))
            assert (switch.computed_bound(out_link, priority)
                    == fresh.computed_bound(out_link, priority))
            assert (switch.buffer_requirement(out_link, priority)
                    == fresh.buffer_requirement(out_link, priority))


PROBES = [
    ("in0", "out", 0, STREAMS[1]),
    ("in0", "out", 2, STREAMS[0]),
    ("in1", "out", 1, STREAMS[2]),
    ("in2", "out", 1, STREAMS[3]),
    ("in1", "other", 0, STREAMS[0]),
]


def test_admit_release_admit_matches_rebuild():
    """The acceptance-criterion sequence, checked at every step."""
    switch = make_switch()
    switch.admit("vc0", "in0", "out", 0, STREAMS[0])
    assert_matches_rebuild(switch, PROBES)
    switch.admit("vc1", "in1", "out", 1, STREAMS[1])
    assert_matches_rebuild(switch, PROBES)
    switch.release("vc0")
    assert_matches_rebuild(switch, PROBES)
    switch.admit("vc2", "in0", "out", 2, STREAMS[2])
    assert_matches_rebuild(switch, PROBES)


def test_mixed_priority_multi_input_sequence():
    switch = make_switch()
    plan = [
        ("vc0", "in0", "out", 1, STREAMS[0]),
        ("vc1", "in0", "out", 0, STREAMS[1]),   # higher prio, same input
        ("vc2", "in1", "out", 2, STREAMS[2]),   # lower prio, other input
        ("vc3", "in1", "other", 0, STREAMS[3]),  # unrelated port
        ("vc4", "in2", "out", 1, STREAMS[1]),
    ]
    for connection_id, in_link, out_link, priority, stream in plan:
        switch.admit(connection_id, in_link, out_link, priority, stream)
        assert_matches_rebuild(switch, PROBES)
    for connection_id in ("vc1", "vc3", "vc0"):
        switch.release(connection_id)
        assert_matches_rebuild(switch, PROBES)


def test_randomized_interleaving_matches_rebuild():
    rng = random.Random(1997)
    switch = make_switch()
    admitted = []
    for step in range(40):
        if admitted and rng.random() < 0.4:
            switch.release(admitted.pop(rng.randrange(len(admitted))))
        else:
            connection_id = f"vc{step}"
            switch.admit(
                connection_id,
                rng.choice(["in0", "in1", "in2"]),
                "out",
                rng.choice([0, 1, 2]),
                rng.choice(STREAMS),
            )
            admitted.append(connection_id)
        assert switch.verify_consistency()
    assert_matches_rebuild(switch, PROBES)


def test_rejection_leaves_caches_intact():
    switch = SwitchCAC("sw-tight")
    switch.configure_link("out", {0: 1, 1: 1})
    switch.admit("vc0", "in0", "out", 0, cbr(F(1, 4)).worst_case_stream())
    before = switch.computed_bound("out", 0)
    heavy = VBRParameters(pcr=1, scr=F(1, 2), mbs=64).worst_case_stream()
    from repro.exceptions import SwitchRejection
    with pytest.raises(SwitchRejection):
        switch.admit("vc1", "in1", "out", 0, heavy)
    assert switch.verify_consistency()
    assert switch.computed_bound("out", 0) == before
    assert_matches_rebuild(
        switch, [("in0", "out", 1, cbr(F(1, 8)).worst_case_stream())],
    )


def test_release_to_empty_clears_state():
    switch = make_switch()
    switch.admit("vc0", "in0", "out", 1, STREAMS[1])
    switch.admit("vc1", "in1", "out", 0, STREAMS[0])
    switch.release("vc0")
    switch.release("vc1")
    assert switch.verify_consistency()
    for priority in switch.priorities("out"):
        assert switch.soa("out", priority).is_zero
        assert switch.computed_bound("out", priority) == 0
    assert_matches_rebuild(switch, PROBES)


def test_float_streams_stay_consistent_within_tolerance():
    """The same invariants hold on float streams (approximately)."""
    switch = make_switch()
    floats = [stream.as_floats() for stream in STREAMS]
    for index, stream in enumerate(floats):
        switch.admit(f"vc{index}", f"in{index % 2}", "out", index % 3,
                     stream)
        assert switch.verify_consistency()
    fresh = rebuilt_copy(switch)
    for priority in switch.priorities("out"):
        incremental = switch.computed_bound("out", priority)
        scratch = fresh.computed_bound("out", priority)
        assert abs(incremental - scratch) <= 1e-9 * (1 + abs(scratch))
    switch.release("vc1")
    assert switch.verify_consistency()
