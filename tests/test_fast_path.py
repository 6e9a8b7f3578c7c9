"""The screened admission fast path is invisible except to the clock.

``SwitchCAC`` keeps an incrementally patched (sigma, rho) headroom
ledger per port and screens every check against two conservative
bounds before falling back to Algorithm 4.1.  These tests pin the
contract from ``docs/performance.md``: decision-for-decision identity
with the exact path -- same admits, same refusals, same journals, same
committed state -- over random transactional interleavings, seeded
fault schedules, churn workloads, and exact-Fraction arithmetic.
"""

import os
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.switch_cac import SwitchCAC
from repro.core.traffic import VBRParameters, cbr
from repro.exceptions import AdmissionError
from repro.robustness.harness import run_schedule
from repro.workload.churn import ChurnScenario, run_scenario

BOUNDS = {0: 300, 1: 1200}


@st.composite
def traffic_descriptors(draw):
    pcr_den = draw(st.integers(min_value=2, max_value=16))
    scr_scale = draw(st.integers(min_value=2, max_value=16))
    mbs = draw(st.integers(min_value=1, max_value=6))
    pcr = F(1, pcr_den)
    return VBRParameters(pcr=pcr, scr=pcr / scr_scale, mbs=mbs)


@st.composite
def transactional_actions(draw, max_actions=14):
    """Random admit/reserve/commit/rollback/release interleavings."""
    actions = []
    names = []
    count = draw(st.integers(min_value=1, max_value=max_actions))
    for index in range(count):
        kinds = ["admit", "reserve"]
        if names:
            kinds += ["commit", "rollback", "release"]
        kind = draw(st.sampled_from(kinds))
        if kind in ("admit", "reserve"):
            name = f"vc{index}"
            names.append(name)
            in_link = f"in{draw(st.integers(min_value=0, max_value=2))}"
            priority = draw(st.integers(min_value=0, max_value=1))
            params = draw(traffic_descriptors())
            cdv = draw(st.integers(min_value=0, max_value=64))
            actions.append((kind, name, in_link, priority, (params, cdv)))
        else:
            victim = draw(st.sampled_from(names))
            actions.append((kind, victim, None, None, None))
    return actions


def _run_twin(actions, fast_path):
    """Drive one action sequence; return (switch, outcomes, journal)."""
    switch = SwitchCAC("sw", fast_path=fast_path)
    switch.configure_link("out", BOUNDS)
    outcomes = []
    for kind, name, in_link, priority, extra in actions:
        try:
            if kind in ("admit", "reserve"):
                params, cdv = extra
                stream = params.worst_case_stream().delayed(cdv)
                if kind == "admit":
                    switch.admit(name, in_link, "out", priority, stream)
                else:
                    switch.reserve(name, in_link, "out", priority, stream)
                outcomes.append((kind, name, "ok"))
            elif kind == "commit":
                switch.commit(name)
                outcomes.append((kind, name, "ok"))
            elif kind == "rollback":
                leg = switch.rollback(name)
                outcomes.append((kind, name, leg is not None))
            else:
                switch.release(name)
                outcomes.append((kind, name, "ok"))
        except (AdmissionError, KeyError) as exc:
            outcomes.append((kind, name, type(exc).__name__))
    journal = tuple((entry.op, entry.connection_id)
                    for entry in switch.journal.entries)
    return switch, outcomes, journal


@given(transactional_actions())
@settings(max_examples=60, deadline=None)
def test_screened_switch_is_decision_identical(actions):
    fast, fast_outcomes, fast_journal = _run_twin(actions, fast_path=True)
    exact, exact_outcomes, exact_journal = _run_twin(actions,
                                                     fast_path=False)
    assert fast_outcomes == exact_outcomes
    assert fast_journal == exact_journal
    assert set(fast.legs) == set(exact.legs)
    assert fast.verify_consistency()
    assert exact.verify_consistency()
    for priority in BOUNDS:
        assert (fast.computed_bound("out", priority)
                == exact.computed_bound("out", priority))
        for link in ("in0", "in1", "in2"):
            assert (fast.sia(link, "out", priority)
                    == exact.sia(link, "out", priority))


def test_screen_accept_bound_is_conservative():
    """When the screen accepts, its bound dominates the exact bound."""
    fast = SwitchCAC("sw", fast_path=True)
    exact = SwitchCAC("sw", fast_path=False)
    for switch in (fast, exact):
        switch.configure_link("out", {0: 10_000})
        switch.admit("base", "in0", "out", 0, cbr(F(1, 8)).worst_case_stream())
    stream = cbr(F(1, 16)).worst_case_stream().delayed(4)
    screened = fast.check("in1", "out", 0, stream)
    reference = exact.check("in1", "out", 0, stream)
    assert screened.admitted and reference.admitted
    assert screened.computed_bounds[0] >= reference.computed_bounds[0]


CHURN_SCENARIOS = {
    "instant": ChurnScenario(topology="dual-ring", nodes=4, bound=48.0,
                             rate=0.15, offered_load=3.0, events=250,
                             seed=5, k=2),
    "plane": ChurnScenario(topology="dual-ring", nodes=4, bound=48.0,
                           rate=0.15, offered_load=3.0, events=250,
                           seed=5, k=2, setup_latency=2.0,
                           reservation_ttl=40.0),
    "star-vbr": ChurnScenario(topology="star", nodes=6, bound=32.0,
                              rate=0.1, mbs=4, offered_load=2.0,
                              events=250, seed=9),
}


@pytest.mark.parametrize("name", sorted(CHURN_SCENARIOS))
def test_churn_runs_are_report_identical(name):
    scenario = CHURN_SCENARIOS[name]
    screened = run_scenario(replace(scenario, fast_path=True))
    exact = run_scenario(replace(scenario, fast_path=False))
    assert screened.ledger_digest == exact.ledger_digest
    assert screened.journal_digest == exact.journal_digest
    assert screened.arrivals == exact.arrivals
    assert screened.admitted == exact.admitted
    assert screened.blocked == exact.blocked
    assert screened.blocking == exact.blocking
    assert screened.link_utilization == exact.link_utilization


def _line_factory():
    from repro.network.topology import line_network
    return line_network(4, bounds={0: 64}, terminals_per_switch=2)


def _line_requests(network):
    from repro.network.connection import ConnectionRequest
    from repro.network.routing import shortest_path
    requests = []
    for index in range(6):
        src = f"t0.{index % 2}"
        dst = f"t3.{(index + 1) % 2}"
        requests.append(ConnectionRequest(
            f"vc{index}", cbr(F(1, 12)), shortest_path(network, src, dst)))
    return requests


_FAST_PATH_SEEDS = int(os.environ.get("FAST_PATH_SEEDS", "6"))


@pytest.mark.parametrize("seed", range(_FAST_PATH_SEEDS))
@pytest.mark.parametrize("batched", [False, True])
def test_fault_schedules_are_report_identical(seed, batched):
    """Crashes, retries and link failures hit both paths identically."""
    reports = {
        fast: run_schedule(seed, _line_factory, _line_requests,
                           batched=batched, link_failures=1,
                           fast_path=fast)
        for fast in (True, False)
    }
    screened, exact = reports[True], reports[False]
    assert screened.plan == exact.plan
    assert screened.established == exact.established
    assert screened.errors == exact.errors
    assert screened.recovered == exact.recovered
    assert screened.journals == exact.journals
    assert screened.migrated == exact.migrated
    assert screened.dropped == exact.dropped
    assert screened.kept == exact.kept
    assert screened.consistent and exact.consistent
    assert screened.equivalent and exact.equivalent
    assert screened.booking_safe and exact.booking_safe


def test_fraction_streams_stay_on_the_exact_arithmetic_path():
    """Exact Fraction traffic: the screen still agrees."""
    fast, fast_outcomes, _ = _run_twin(
        [("admit", f"vc{i}", f"in{i % 3}", i % 2,
          (VBRParameters(pcr=F(1, 4), scr=F(1, 12), mbs=3), 8 * i))
         for i in range(8)], fast_path=True)
    exact, exact_outcomes, _ = _run_twin(
        [("admit", f"vc{i}", f"in{i % 3}", i % 2,
          (VBRParameters(pcr=F(1, 4), scr=F(1, 12), mbs=3), 8 * i))
         for i in range(8)], fast_path=False)
    assert fast_outcomes == exact_outcomes
    assert fast.verify_consistency() and exact.verify_consistency()
