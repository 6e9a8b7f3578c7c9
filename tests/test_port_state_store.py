"""The two state layers: PortState per port, SwitchCAC per switch.

The layering contract (``docs/architecture.md``): a pure
:class:`PortState` per (out_link, priority) owns the aggregates and
incremental caches; the :class:`SwitchCAC` owning it holds every port,
the committed/pending legs, the journal and the in-link ledger.
"""

from fractions import Fraction as F

import pytest

from repro.core import SwitchCAC
from repro.core.bitstream import aggregate
from repro.core.port_state import PortState
from repro.core.switch_cac import Leg
from repro.core.traffic import cbr
from repro.exceptions import AdmissionError


def stream(rate):
    return cbr(rate).worst_case_stream()


def streams_equal(left, right):
    return left.rates == right.rates and left.times == right.times


# ----------------------------------------------------------------------
# PortState: the pure domain object
# ----------------------------------------------------------------------


class TestPortState:
    def make_port(self, priority=1, higher=()):
        return PortState("out", priority, 64,
                         higher_ports=lambda: list(higher))

    def test_apply_same_maintains_sia_ground_truth(self):
        port = self.make_port()
        a, b = stream(F(1, 5)), stream(F(1, 7))
        port.apply_same("in-a", a, add=True)
        port.apply_same("in-a", b, add=True)
        assert streams_equal(port.sia("in-a"), a + b)
        port.apply_same("in-a", b, add=False)
        assert streams_equal(port.sia("in-a"), a)
        assert port.in_links() == ["in-a"]
        assert port.long_run_rate() == F(1, 5)

    def test_soa_patched_matches_rebuild(self):
        port = self.make_port()
        port.apply_same("in-a", stream(F(1, 5)), add=True)
        _ = port.soa()  # populate the cache, then patch it
        port.apply_same("in-b", stream(F(1, 9)), add=True)
        patched = port.soa()
        rebuilt = PortState("out", 1, 64)
        rebuilt.apply_same("in-a", stream(F(1, 5)), add=True)
        rebuilt.apply_same("in-b", stream(F(1, 9)), add=True)
        assert patched.approx_equal(rebuilt.soa(), 0)

    def test_soa_with_generalises_replace(self):
        port = self.make_port()
        port.apply_same("in-a", stream(F(1, 5)), add=True)
        port.apply_same("in-b", stream(F(1, 9)), add=True)
        candidate = port._filter(port.sia("in-a") + stream(F(1, 11)))
        single = port.soa(replace=("in-a", candidate))
        multi = port.soa_with({"in-a": candidate})
        assert single.approx_equal(multi, 0)
        # two substitutions at once == rebuilding from scratch
        cand_b = port._filter(port.sia("in-b") + stream(F(1, 13)))
        both = port.soa_with({"in-a": candidate, "in-b": cand_b})
        assert both.approx_equal(aggregate([candidate, cand_b]), 0)

    def test_sof_higher_with_generalises_extra(self):
        high = PortState("out", 0, 32)
        high.apply_same("in-a", stream(F(1, 6)), add=True)
        low = self.make_port(priority=1, higher=[high])
        low.apply_same("in-a", stream(F(1, 8)), add=True)
        extra = stream(F(1, 10))
        assert low.sof_higher(extra=("in-a", extra)).approx_equal(
            low.sof_higher_with({"in-a": extra}), 0)

    def test_bulk_apply_invalidates_and_lazy_rebuild_agrees(self):
        high = PortState("out", 0, 32)
        low = self.make_port(priority=1, higher=[high])
        low.apply_same("in-a", stream(F(1, 8)), add=True)
        _ = low.soa(), low.sof_higher(), low.service()  # warm every cache
        # a bulk delta at the higher priority drops, not patches
        high.apply_same("in-a", stream(F(1, 6)), add=True,
                        patch_caches=False)
        low.apply_higher("in-a", stream(F(1, 6)), add=True,
                         patch_caches=False)
        assert streams_equal(high.sia("in-a"), stream(F(1, 6)))
        # lazy rebuilds now see the post-delta truth
        reference = PortState("out", 1, 64, higher_ports=lambda: [high])
        reference.apply_same("in-a", stream(F(1, 8)), add=True)
        assert low.sof_higher().approx_equal(reference.sof_higher(), 0)
        assert low.soa().approx_equal(reference.soa(), 0)

    def test_verify_against_accepts_truth_and_rejects_drift(self):
        port = self.make_port()
        port.apply_same("in-a", stream(F(1, 5)), add=True)
        truth = {("in-a", "out", 1): stream(F(1, 5))}
        assert port.verify_against(truth)
        assert not port.verify_against(
            {("in-a", "out", 1): stream(F(1, 4))})
        assert not port.verify_against({})  # port holds a stream truth lacks
        # an extra ground-truth key the port does not hold also fails
        truth[("in-b", "out", 1)] = stream(F(1, 9))
        assert not port.verify_against(truth)


# ----------------------------------------------------------------------
# SwitchCAC: the legs, journal and ports of one switch
# ----------------------------------------------------------------------


def drive(switch):
    """A fixed admit/reserve/commit/rollback workout on one switch."""
    for link in ["out-b", "out-a", "out-c"]:
        switch.configure_link(link, {0: 32, 2: 96})
    switch.admit("vc0", "in-a", "out-a", 0, stream(F(1, 10)))
    switch.admit("vc1", "in-b", "out-b", 2, stream(F(1, 12)))
    switch.reserve("vc2", "in-a", "out-c", 0, stream(F(1, 14)))
    switch.commit("vc2")
    switch.reserve("vc3", "in-b", "out-a", 2, stream(F(1, 16)))
    switch.rollback("vc3")
    switch.release("vc1")
    switch.admit("vc4", "in-c", "out-b", 0, stream(F(1, 18)))
    return switch


def test_snapshot_restore_round_trip():
    source = drive(SwitchCAC("sw"))
    source.reserve("vc5", "in-a", "out-b", 2, stream(F(1, 20)))
    snapshot = source.snapshot_state()
    assert [leg.connection_id for leg in snapshot["committed"]] == \
        list(source.legs)
    assert [leg.connection_id for leg in snapshot["pending"]] == ["vc5"]

    target = SwitchCAC("sw2")
    for link in source.out_links():
        target.configure_link(link, {0: 32, 2: 96})
    target.restore_state(snapshot)
    assert list(target.legs) == list(source.legs)
    assert list(target.pending) == ["vc5"]
    assert target.verify_consistency()
    for link in source.out_links():
        for priority in source.priorities(link):
            assert streams_equal(target.soa(link, priority),
                                 source.soa(link, priority))
    # ``legs`` is the caller's copy
    target.legs.clear()
    assert list(target.legs) == list(source.legs)
    # the restore journaled everything: crash recovery still works and
    # discards the restored (uncommitted) reservation
    target.crash()
    target.recover()
    assert list(target.legs) == list(source.legs)
    assert not target.pending


def test_restore_state_requires_empty_switch():
    switch = drive(SwitchCAC("sw"))
    with pytest.raises(AdmissionError, match="not empty"):
        switch.restore_state({"committed": [], "pending": []})


def test_out_links_and_priorities_are_sorted():
    switch = SwitchCAC("sw")
    for link in ["out-z", "out-a", "out-m"]:
        switch.configure_link(link, {3: 96, 0: 32, 1: 64})
    assert switch.out_links() == ["out-a", "out-m", "out-z"]
    assert switch.priorities("out-z") == [0, 1, 3]


def test_clear_volatile_keeps_configuration():
    switch = SwitchCAC("sw")
    switch.configure_link("out", {0: 32})
    switch.admit("vc0", "in-a", "out", 0, stream(F(1, 10)))
    switch.crash()
    assert switch.out_links() == ["out"]
    assert switch.priorities("out") == [0]
    assert switch.advertised_bound("out", 0) == 32
    assert not switch.legs and not switch.pending
    assert switch.in_link_utilization("in-a") == 0


def test_unknown_port_raises_admission_error():
    switch = SwitchCAC("sw")
    switch.configure_link("out", {0: 32})
    with pytest.raises(AdmissionError):
        switch.port("out", 7)
    with pytest.raises(AdmissionError):
        switch.port("nope", 0)


@pytest.mark.parametrize("bad_leg", [
    Leg("vc9", "in-a", "out-x", 0, stream(F(1, 20))),  # unconfigured link
    Leg("vc9", "in-a", "out-a", 1, stream(F(1, 20))),  # unserved priority
    Leg("vc0", "in-b", "out-b", 2, stream(F(1, 20))),  # duplicate id
], ids=["unknown-link", "unknown-priority", "duplicate-id"])
def test_restore_state_refuses_a_bad_snapshot_untouched(bad_leg):
    """A snapshot from outside the program is checked before any write."""
    source = drive(SwitchCAC("sw"))
    good = source.snapshot_state()["committed"]
    target = SwitchCAC("sw2")
    for link in source.out_links():
        target.configure_link(link, {0: 32, 2: 96})
    with pytest.raises(AdmissionError):
        target.restore_state({"committed": good, "pending": [bad_leg]})
    assert not target.legs and not target.pending
    assert len(target.journal) == 0
    assert target.verify_consistency()
    # the refused restore left nothing a crash/recover cycle trips on
    target.crash()
    target.recover()
    assert not target.legs and target.verify_consistency()
    target.restore_state({"committed": good, "pending": []})
    assert list(target.legs) == list(source.legs)
