"""RingAnalysis correctness and the figure drivers (Section 5)."""

import math
from fractions import Fraction as F

import pytest

from repro.core.bitstream import BitStream
from repro.core.traffic import cbr
from repro.exceptions import AdmissionError
from repro.rtnet import (
    RingAnalysis,
    asymmetric_capacity_curve,
    asymmetric_workload,
    broadcast_route,
    establish_workload,
    priority_capacity_curve,
    ring_node,
    soft_hard_capacity_curve,
    symmetric_delay_curve,
    symmetric_workload,
)


class TestRingAnalysisAgainstFullCac:
    """The direct path must match the procedural CAC machinery exactly."""

    @pytest.mark.parametrize("ring_nodes,terminals,load", [
        (4, 1, 0.5),
        (5, 2, 0.4),
        (3, 3, 0.6),
    ])
    def test_symmetric_link_bounds_match(self, ring_nodes, terminals, load):
        workload = symmetric_workload(load, ring_nodes, terminals)
        analysis = RingAnalysis(workload, ring_nodes)
        cac, _est = establish_workload(workload, ring_nodes, terminals)
        for k in range(ring_nodes):
            link = f"ring{k}->ring{(k + 1) % ring_nodes}"
            direct = float(analysis.link_bound(k, 0))
            procedural = float(
                cac.switch(ring_node(k)).computed_bound(link, 0))
            assert direct == pytest.approx(procedural, abs=1e-9)

    def test_symmetric_e2e_bounds_match(self):
        workload = symmetric_workload(0.45, 5, 2)
        analysis = RingAnalysis(workload, 5)
        cac, _est = establish_workload(workload, 5, 2)
        for node in range(5):
            route = broadcast_route(cac.network, node, 0)
            assert float(analysis.e2e_bound(node, 0)) == pytest.approx(
                float(cac.computed_e2e_bound(route, 0)), abs=1e-9)

    def test_asymmetric_bounds_match(self):
        workload = asymmetric_workload(0.4, 0.5, 4, 2)
        analysis = RingAnalysis(workload, 4)
        cac, _est = establish_workload(workload, 4, 2)
        for k in range(4):
            link = f"ring{k}->ring{(k + 1) % 4}"
            assert float(analysis.link_bound(k, 0)) == pytest.approx(
                float(cac.switch(ring_node(k)).computed_bound(link, 0)),
                abs=1e-9)

    def test_soft_policy_matches(self):
        workload = symmetric_workload(0.4, 4, 2)
        analysis = RingAnalysis(workload, 4, cdv_policy="soft")
        cac, _est = establish_workload(workload, 4, 2, cdv_policy="soft")
        link = "ring0->ring1"
        assert float(analysis.link_bound(0, 0)) == pytest.approx(
            float(cac.switch("ring0").computed_bound(link, 0)), abs=1e-9)


class TestRingAnalysisStructure:
    def test_symmetric_links_identical(self):
        analysis = RingAnalysis(symmetric_workload(0.5, 6, 2), 6)
        bounds = analysis.all_link_bounds(0)
        assert all(b == pytest.approx(bounds[0]) for b in bounds)

    def test_bounds_grow_with_load(self):
        low = RingAnalysis(symmetric_workload(0.2, 6, 2), 6)
        high = RingAnalysis(symmetric_workload(0.6, 6, 2), 6)
        assert high.worst_link_bound(0) > low.worst_link_bound(0)

    def test_bounds_grow_with_burstiness(self):
        """More terminals per node (same load) means burstier nodes."""
        smooth = RingAnalysis(symmetric_workload(0.4, 6, 1), 6)
        bursty = RingAnalysis(symmetric_workload(0.4, 6, 8), 6)
        assert bursty.worst_link_bound(0) > smooth.worst_link_bound(0)

    def test_soft_bounds_below_hard(self):
        workload = symmetric_workload(0.5, 6, 4)
        hard = RingAnalysis(workload, 6, cdv_policy="hard")
        soft = RingAnalysis(workload, 6, cdv_policy="soft")
        assert soft.worst_link_bound(0) <= hard.worst_link_bound(0)

    def test_e2e_is_sum_of_route_links(self):
        analysis = RingAnalysis(asymmetric_workload(0.4, 0.6, 5, 1), 5)
        expected = sum(analysis.link_bound((2 + j) % 5, 0)
                       for j in range(4))
        assert analysis.e2e_bound(2, 0) == expected

    def test_missing_priority_bound_rejected(self):
        workload = symmetric_workload(0.4, 4, 1, priority=2)
        with pytest.raises(ValueError, match="priority 2"):
            RingAnalysis(workload, 4, node_bound={0: 32})

    def test_feasible_checks_queue_and_deadline(self):
        analysis = RingAnalysis(symmetric_workload(0.3, 4, 1), 4)
        assert analysis.feasible()
        assert not analysis.feasible(queue_bounds={0: 1e-6})
        assert not analysis.feasible(e2e_requirements={0: 1e-6})

    def test_interference_empty_for_single_priority(self):
        analysis = RingAnalysis(symmetric_workload(0.3, 4, 1), 4)
        assert analysis.interference_stream(0, 0).is_zero

    def test_two_priority_interference(self):
        workload = asymmetric_workload(
            0.4, 0.5, 4, 2, hot_priority=0, other_priority=1)
        analysis = RingAnalysis(workload, 4, node_bound={0: 32, 1: 128})
        assert not analysis.interference_stream(1, 1).is_zero
        assert analysis.link_bound(1, 1) >= analysis.link_bound(1, 0)


class TestEnvelopeMemo:
    """Each distinct delayed envelope is built once per analysis."""

    @staticmethod
    def _count_delays(monkeypatch):
        calls = []
        original = BitStream.delayed

        def counting(self, cdv):
            calls.append(cdv)
            return original(self, cdv)

        monkeypatch.setattr(BitStream, "delayed", counting)
        return calls

    @staticmethod
    def _distinct_keys(workload, ring_nodes):
        return {
            (params, priority, hops)
            for params, priority in workload.values()
            for hops in range(ring_nodes - 1)
        }

    @pytest.mark.parametrize("case", ["symmetric", "two-priority"])
    def test_one_delay_per_distinct_envelope(self, monkeypatch, case):
        if case == "symmetric":
            # The Fig. 10 N=16 point: 256 terminals, one descriptor.
            workload = symmetric_workload(0.35, 16, 16)
            bounds = {0: 32}
        else:
            workload = asymmetric_workload(
                0.4, 0.5, 16, 4, hot_priority=1, other_priority=0)
            bounds = {0: 32, 1: 128}
        calls = self._count_delays(monkeypatch)
        analysis = RingAnalysis(workload, 16, bounds)
        for priority in bounds:
            analysis.all_link_bounds(priority)
            analysis.worst_link_backlog(priority)
        assert 0 < len(calls) <= len(self._distinct_keys(workload, 16))
        for priority in bounds:
            for link in range(16):
                fresh = RingAnalysis(workload, 16, bounds)
                assert repr(analysis.link_bound(link, priority)) == repr(
                    fresh.link_bound(link, priority))

    def test_equal_descriptors_of_different_types_stay_apart(self):
        analysis = RingAnalysis({(0, 0): (cbr(0.25), 0)}, 4)
        as_float = analysis._delayed_envelope(cbr(0.25), 0, 2)
        exact = analysis._delayed_envelope(cbr(F(1, 4)), 0, 2)
        assert all(isinstance(rate, float) for rate in as_float.rates[1:])
        assert all(isinstance(rate, F) for rate in exact.rates[1:])


class TestFigure10Driver:
    def test_paper_headline_n1(self):
        """N=1: 75% load supported within the 1 ms (370 cell) bound."""
        points = symmetric_delay_curve([0.75], terminals_per_node=1)
        assert points[0].admissible
        assert points[0].delay_bound <= 370

    def test_paper_headline_n16(self):
        """N=16: about 35% supported with a bound near 370 cells."""
        points = symmetric_delay_curve([0.35], terminals_per_node=16)
        assert points[0].admissible
        assert points[0].delay_bound == pytest.approx(370, rel=0.1)

    def test_monotone_in_load(self):
        loads = [0.1, 0.3, 0.5, 0.7]
        points = symmetric_delay_curve(loads, terminals_per_node=4)
        delays = [p.delay_bound for p in points]
        assert delays == sorted(delays)

    def test_monotone_in_terminals(self):
        at_load = lambda n: symmetric_delay_curve(
            [0.4], terminals_per_node=n)[0].delay_bound
        assert at_load(1) <= at_load(4) <= at_load(16)

    def test_inadmissible_at_extreme_load(self):
        points = symmetric_delay_curve([0.99], terminals_per_node=16)
        assert not points[0].admissible


class TestFigure11Driver:
    def test_capacity_decreases_with_asymmetry(self):
        # At the paper's 16-node scale the end-to-end deadline binds and
        # concentrating load on one terminal costs capacity (shorter
        # rings can invert this: a single hot stream is smoothed by its
        # own access link).
        points = asymmetric_capacity_curve(
            [0.0, 0.4, 0.8], terminals_per_node=4,
            ring_nodes=16, tolerance=1 / 32)
        loads = [p.max_load for p in points]
        assert loads[0] >= loads[1] >= loads[2]

    def test_capacity_decreases_with_terminals(self):
        small = asymmetric_capacity_curve(
            [0.5], terminals_per_node=1, ring_nodes=8,
            tolerance=1 / 32)[0].max_load
        large = asymmetric_capacity_curve(
            [0.5], terminals_per_node=8, ring_nodes=8,
            tolerance=1 / 32)[0].max_load
        assert large <= small


class TestFigure12Driver:
    def test_two_priorities_never_worse(self):
        rows = priority_capacity_curve(
            [0.0, 0.5, 0.9], terminals_per_node=4,
            ring_nodes=8, tolerance=1 / 32)
        for _p, single, dual in rows:
            assert dual >= single

    def test_gap_appears_at_high_asymmetry(self):
        rows = priority_capacity_curve(
            [0.9], terminals_per_node=8, ring_nodes=8, tolerance=1 / 32)
        _p, single, dual = rows[0]
        assert dual > single


class TestFigure13Driver:
    def test_soft_never_worse(self):
        rows = soft_hard_capacity_curve(
            [0.0, 0.5, 0.9], terminals_per_node=4,
            ring_nodes=8, tolerance=1 / 32)
        for _p, hard, soft in rows:
            assert soft >= hard

    def test_soft_strictly_better_somewhere(self):
        rows = soft_hard_capacity_curve(
            [0.0], terminals_per_node=8, ring_nodes=8, tolerance=1 / 64)
        _p, hard, soft = rows[0]
        assert soft > hard


class TestFigureGoldenValues:
    """Exact figure points, pinned as literals.

    Any change to the bit-stream arithmetic or the ring analysis that
    moves a single float bit of these points fails here.  The capacity
    rows use a coarse bisection tolerance to stay cheap.
    """

    def test_figure10_points(self):
        assert repr(symmetric_delay_curve([0.25, 0.35], 16)) == (
            "[DelayCurvePoint(load=0.25, delay_bound=322.64999999999986, "
            "admissible=True), DelayCurvePoint(load=0.35, "
            "delay_bound=380.23648648629944, admissible=True)]")

    def test_figure11_row(self):
        assert repr(asymmetric_capacity_curve(
            [0.5], 8, tolerance=1 / 32)) == (
            "[CapacityCurvePoint(hot_fraction=0.5, max_load=0.2734375)]")

    def test_figure12_row(self):
        assert repr(priority_capacity_curve(
            [0.9], 8, tolerance=1 / 32)) == (
            "[(0.9, 0.212890625, 0.455078125)]")

    def test_figure13_row(self):
        assert repr(soft_hard_capacity_curve(
            [0.0], 8, tolerance=1 / 32)) == (
            "[(0.0, 0.5458984375, 0.6669921875)]")


class TestEstablishWorkload:
    def test_infeasible_workload_raises(self):
        workload = symmetric_workload(0.99, 8, 8)
        with pytest.raises(AdmissionError):
            establish_workload(workload, 8, 8)

    def test_all_terminals_established(self):
        workload = symmetric_workload(0.3, 4, 2)
        cac, established = establish_workload(workload, 4, 2)
        assert len(established) == 8
        assert len(cac.established) == 8
