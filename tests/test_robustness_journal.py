"""Journal semantics, crash/recover, and the double-release regression.

The boundary corpus at the end scales with the ``FAULT_SCHEDULES``
environment variable, like the other fault suites (the CI stress job
sets 500).
"""

import os
import random
from fractions import Fraction as F

import pytest

from repro.core.admission import NetworkCAC
from repro.core.switch_cac import Leg, SwitchCAC
from repro.core.traffic import VBRParameters, cbr
from repro.exceptions import AdmissionError, SwitchUnavailable
from repro.network.connection import ConnectionRequest
from repro.network.routing import shortest_path
from repro.network.topology import line_network
from repro.robustness.journal import (JOURNAL_OPS, AdmissionJournal,
                                      JournalEntry)

#: Seeded op scripts in the crash-at-every-boundary corpus.
BOUNDARY_SEEDS = max(4, int(os.environ.get("FAULT_SCHEDULES", "60")) // 10)


def stream(rate):
    return cbr(rate).worst_case_stream()


def loaded_switch():
    """A switch with committed legs at two priorities plus one pending."""
    switch = SwitchCAC("sw0")
    switch.configure_link("out", {0: 64, 1: 256})
    switch.admit("a", "in-a", "out", 0, stream(F(1, 8)))
    switch.admit("b", "in-b", "out", 1, stream(F(1, 10)))
    switch.admit("c", "in-a", "out", 1, stream(F(1, 16)))
    switch.release("c")
    switch.reserve("d", "in-b", "out", 0, stream(F(1, 12)))
    return switch


def committed_snapshot(switch):
    """Exact committed-state fingerprint: legs plus every Sia aggregate."""
    keys = {
        (leg.in_link, leg.out_link, leg.priority)
        for leg in switch.legs.values()
    }
    return (
        dict(switch.legs),
        {key: switch.sia(*key) for key in keys},
    )


class TestJournalPrimitive:
    def test_entries_are_sequenced_and_immutable(self):
        journal = AdmissionJournal()
        journal.append("admit", "a", leg="leg-a")
        journal.append("release", "a")
        assert [entry.sequence for entry in journal] == [0, 1]
        assert [entry.op for entry in journal] == ["admit", "release"]
        snapshot = journal.entries
        journal.append("admit", "b", leg="leg-b")
        assert len(snapshot) == 2          # old snapshots never mutate
        assert len(journal) == 3

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown journal op"):
            AdmissionJournal().append("compact", "a")
        with pytest.raises(ValueError, match="unknown journal op"):
            JournalEntry(0, "compact", "a")

    def test_reserve_requires_a_leg(self):
        with pytest.raises(ValueError, match="must carry its leg"):
            AdmissionJournal().append("reserve", "a")

    def test_replay_folds_to_committed_and_pending(self):
        journal = AdmissionJournal()
        journal.append("reserve", "a", leg="leg-a")
        journal.append("commit", "a")
        journal.append("reserve", "b", leg="leg-b")
        journal.append("abort", "b")
        journal.append("admit", "c", leg="leg-c")
        journal.append("release", "c")
        journal.append("reserve", "d", leg="leg-d")
        committed, pending = journal.replay()
        assert committed == {"a": "leg-a"}
        assert pending == {"d": "leg-d"}


class TestSwitchJournaling:
    def test_every_transition_is_journaled(self):
        switch = loaded_switch()
        ops = [(entry.op, entry.connection_id) for entry in switch.journal]
        assert ops == [
            ("admit", "a"), ("admit", "b"), ("admit", "c"),
            ("release", "c"), ("reserve", "d"),
        ]

    def test_two_phase_ops_are_journaled(self):
        switch = SwitchCAC("sw0")
        switch.configure_link("out", {0: 64})
        switch.reserve("x", "in", "out", 0, stream(F(1, 8)))
        switch.commit("x")
        switch.rollback("x")
        switch.reserve("y", "in", "out", 0, stream(F(1, 8)))
        switch.rollback("y")
        ops = [(entry.op, entry.connection_id) for entry in switch.journal]
        assert ops == [
            ("reserve", "x"), ("commit", "x"), ("release", "x"),
            ("reserve", "y"), ("abort", "y"),
        ]


class TestCrashRecover:
    def test_crash_loses_volatile_state_and_refuses_work(self):
        switch = loaded_switch()
        switch.crash()
        assert switch.crashed
        assert switch.legs == {}
        assert switch.pending == {}
        with pytest.raises(SwitchUnavailable):
            switch.check("in-a", "out", 0, stream(F(1, 8)))
        with pytest.raises(SwitchUnavailable):
            switch.admit("z", "in-a", "out", 0, stream(F(1, 8)))
        with pytest.raises(SwitchUnavailable):
            switch.release("a")
        with pytest.raises(SwitchUnavailable):
            switch.reserve("z", "in-a", "out", 0, stream(F(1, 8)))
        with pytest.raises(SwitchUnavailable):
            switch.commit("d")
        with pytest.raises(SwitchUnavailable):
            switch.rollback("a")

    def test_recovery_is_bit_identical_on_committed_state(self):
        switch = loaded_switch()
        switch.rollback("d")   # make pre-crash state committed-only
        legs_before, sia_before = committed_snapshot(switch)
        journal_before = len(switch.journal)
        switch.crash()
        switch.recover()
        legs_after, sia_after = committed_snapshot(switch)
        assert legs_after == legs_before
        assert set(sia_after) == set(sia_before)
        for key in sia_before:
            # Fraction arithmetic + op-for-op replay => exact equality.
            assert sia_after[key] == sia_before[key]
        assert switch.verify_consistency()
        assert len(switch.journal) == journal_before   # replay appends nothing

    def test_recovery_discards_inflight_reservations(self):
        switch = loaded_switch()
        legs_before = dict(switch.legs)
        switch.crash()
        switch.recover()
        assert set(switch.legs) == set(legs_before)
        assert switch.pending == {}
        # The discarded reservation is journaled as an abort, so a second
        # crash/recover round-trips to the same state.
        assert switch.journal.entries[-1].op == "abort"
        assert switch.journal.entries[-1].connection_id == "d"
        switch.crash()
        switch.recover()
        assert set(switch.legs) == set(legs_before)
        assert switch.verify_consistency()

    def test_recovered_switch_keeps_admitting(self):
        switch = loaded_switch()
        switch.crash()
        switch.recover()
        result = switch.admit("e", "in-a", "out", 1, stream(F(1, 16)))
        assert result.admitted
        assert switch.verify_consistency()


class TestDoubleReleaseRegression:
    """Satellite: double release must raise, never corrupt the caches."""

    def test_double_release_raises_and_leaves_caches_intact(self):
        switch = SwitchCAC("sw0")
        switch.configure_link("out", {0: 64})
        switch.admit("a", "in-a", "out", 0, stream(F(1, 8)))
        switch.admit("b", "in-b", "out", 0, stream(F(1, 10)))
        switch.release("a")
        soa_before = switch.soa("out", 0)
        with pytest.raises(AdmissionError, match="not admitted"):
            switch.release("a")
        assert switch.soa("out", 0) == soa_before
        assert set(switch.legs) == {"b"}
        assert switch.verify_consistency()

    def test_release_of_unknown_connection_raises(self):
        switch = SwitchCAC("sw0")
        switch.configure_link("out", {0: 64})
        with pytest.raises(AdmissionError, match="unknown or already"):
            switch.release("ghost")
        assert switch.verify_consistency()

    def test_release_of_pending_reservation_points_at_rollback(self):
        switch = SwitchCAC("sw0")
        switch.configure_link("out", {0: 64})
        switch.reserve("r", "in", "out", 0, stream(F(1, 8)))
        with pytest.raises(AdmissionError, match="only reserved"):
            switch.release("r")
        assert "r" in switch.pending
        assert switch.verify_consistency()

    def test_rollback_is_idempotent(self):
        switch = SwitchCAC("sw0")
        switch.configure_link("out", {0: 64})
        switch.admit("a", "in-a", "out", 0, stream(F(1, 8)))
        assert switch.rollback("a") is not None
        assert switch.rollback("a") is None
        assert switch.rollback("never-existed") is None
        assert switch.verify_consistency()

    def test_network_double_teardown_raises_cleanly(self):
        network = line_network(3, bounds={0: 32}, terminals_per_switch=1)
        cac = NetworkCAC(network)
        cac.setup(ConnectionRequest(
            "vc0", cbr(F(1, 8)), shortest_path(network, "t0.0", "t2.0")))
        cac.teardown("vc0")
        with pytest.raises(AdmissionError, match="no established"):
            cac.teardown("vc0")
        for switch in cac.switches().values():
            assert switch.legs == {}
            assert switch.verify_consistency()


# ----------------------------------------------------------------------
# Crash at every journal boundary
# ----------------------------------------------------------------------

OUT_LINKS = ("out-a", "out-b")
IN_LINKS = ("in-a", "in-b")
BOUNDS = {0: 24.0, 1: 96.0}
SCRIPT_OPS = ("admit", "reserve", "reserve_checked", "commit", "rollback",
              "expire", "release")


def boundary_switch():
    switch = SwitchCAC("sw")
    for link in OUT_LINKS:
        switch.configure_link(link, BOUNDS)
    return switch


def random_float_stream(rng):
    """A float CBR or VBR envelope, clumped by a float CDV."""
    if rng.random() < 0.5:
        traffic = cbr(rng.uniform(0.02, 0.2))
    else:
        traffic = VBRParameters(rng.uniform(0.3, 1.0),
                                rng.uniform(0.02, 0.15), rng.randint(2, 6))
    return traffic.worst_case_stream().delayed(rng.uniform(0.0, 20.0))


def run_op(switch, op, arg):
    """One scripted call; refusals write nothing and are ignored."""
    try:
        if op == "reserve_checked":
            batch = switch.check_batch([arg])
            if batch.admitted:
                switch.reserve_checked(arg, batch.results[arg.connection_id])
        elif op in ("admit", "reserve"):
            getattr(switch, op)(arg.connection_id, arg.in_link,
                                arg.out_link, arg.priority, arg.stream)
        else:
            getattr(switch, op)(arg)
    except AdmissionError:
        pass


def op_script(seed, length=32):
    """A seeded op sequence, drawn against the state it produces."""
    rng = random.Random(seed)
    switch = boundary_switch()
    script = []
    for index in range(length):
        op = rng.choice(SCRIPT_OPS)
        if op in ("admit", "reserve", "reserve_checked"):
            arg = Leg(f"c{index}", rng.choice(IN_LINKS),
                      rng.choice(OUT_LINKS), rng.choice(sorted(BOUNDS)),
                      random_float_stream(rng))
        else:
            pool = {
                "commit": list(switch.pending),
                "expire": list(switch.pending),
                "release": list(switch.legs),
            }.get(op, list(switch.legs) + list(switch.pending))
            arg = rng.choice(pool + ["ghost"])
        script.append((op, arg))
        run_op(switch, op, arg)
    return script, switch


def state_of(switch):
    """Legs in order, Sia by repr, ledger sums and journal op sequence."""
    ports = [(link, priority) for link in OUT_LINKS for priority in BOUNDS]
    return {
        "legs": list(switch.legs.items()),
        "pending": list(switch.pending.items()),
        "sia": {(in_link, link, priority):
                repr(switch.sia(in_link, link, priority))
                for in_link in IN_LINKS for link, priority in ports},
        "ledger": {(port.out_link, port.priority):
                   (port.ledger_rate, port.ledger_burst,
                    port.ledger_higher_rate, port.ledger_higher_burst)
                   for port in (switch.port(*key) for key in ports)},
        "in_links": {in_link: switch.in_link_utilization(in_link)
                     for in_link in IN_LINKS},
        "journal": [(entry.op, entry.connection_id)
                    for entry in switch.journal],
    }


def test_boundary_scripts_write_every_journal_op():
    written = set()
    for seed in range(BOUNDARY_SEEDS):
        _script, switch = op_script(seed)
        written.update(entry.op for entry in switch.journal)
    assert written == set(JOURNAL_OPS)


@pytest.mark.parametrize("seed", range(BOUNDARY_SEEDS))
def test_crash_at_every_journal_boundary(seed):
    """Recovery from a crash after any prefix equals a clean unwind.

    Each scripted op writes at most one journal entry, so every prefix
    ends on a journal boundary.  One twin crashes there and recovers;
    the other rolls its pending legs back live, in insertion order --
    exactly what recovery must reproduce, bit for bit.
    """
    script, _final = op_script(seed)
    for k in range(len(script) + 1):
        crashed, unwound = boundary_switch(), boundary_switch()
        for op, arg in script[:k]:
            run_op(crashed, op, arg)
            run_op(unwound, op, arg)
        crashed.crash()
        crashed.recover()
        for connection_id in list(unwound.pending):
            unwound.rollback(connection_id)
        assert state_of(crashed) == state_of(unwound), f"prefix {k}"
        assert crashed.verify_consistency(), f"prefix {k}"
