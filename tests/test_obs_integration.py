"""End-to-end instrumentation: fixed workloads, exact metric snapshots."""

from fractions import Fraction as F

import pytest

from repro.core.admission import NetworkCAC
from repro.core.delay_bound import delay_bound
from repro.core.switch_cac import SwitchCAC
from repro.core.traffic import cbr
from repro.exceptions import AdmissionError, SignalingTimeout
from repro.network.connection import ConnectionRequest
from repro.network.routing import shortest_path
from repro.network.topology import line_network
from repro.robustness.faults import DROP, FaultInjector, FaultPlan, FaultSpec
from repro.robustness.retry import RetryPolicy


def two_switch_net():
    return line_network(2, bounds={0: 32}, terminals_per_switch=1)


def request_for(net, name="vc0"):
    return ConnectionRequest(
        name, cbr(F(1, 8)), shortest_path(net, "t0.0", "t1.0"))


class TestSetupTeardownSnapshot:
    """Regression-pin the counters of a fixed 2-switch setup/teardown."""

    def test_accepted_setup_counts(self, obs_enabled):
        registry, _tracer = obs_enabled
        net = two_switch_net()
        cac = NetworkCAC(net)
        cac.setup(request_for(net))
        # One reserve (with its check) and one commit per hop.
        assert registry.total("cac_checks_total") == 2
        assert registry.total("cac_reserves_total") == 2
        assert registry.total("cac_commits_total") == 2
        assert registry.total("cac_rollbacks_total") == 0
        assert registry.total("cac_check_rejections_total") == 0
        assert registry.value("network_setups_total",
                              outcome="accepted") == 1
        # The faultless hop RTT is 0 simulated time, but every delivery
        # is observed: 2 reserves + 2 commits.
        assert registry.value("signaling_messages_total",
                              phase="reserve") == 2
        assert registry.value("signaling_messages_total",
                              phase="commit") == 2
        # The two-phase walk journals reserve + commit at each switch.
        assert registry.value("journal_ops_total", op="reserve") == 2
        assert registry.value("journal_ops_total", op="commit") == 2

    def test_teardown_counts(self, obs_enabled):
        registry, _tracer = obs_enabled
        net = two_switch_net()
        cac = NetworkCAC(net)
        cac.setup(request_for(net))
        cac.teardown("vc0")
        assert registry.total("network_teardowns_total") == 1
        assert registry.total("cac_rollbacks_total") == 2
        assert registry.value("signaling_messages_total",
                              phase="release") == 2
        assert registry.value("journal_ops_total", op="release") == 2

    def test_rejected_setup_outcome(self, obs_enabled):
        registry, _tracer = obs_enabled
        net = two_switch_net()
        cac = NetworkCAC(net)
        with pytest.raises(AdmissionError):
            cac.setup(ConnectionRequest(
                "vc0", cbr(F(1, 8)),
                shortest_path(net, "t0.0", "t1.0"), delay_bound=1))
        assert registry.value("network_setups_total",
                              outcome="unsatisfiable") == 1
        assert registry.value("network_setups_total",
                              outcome="accepted") == 0

    def test_setup_time_histogram_uses_simulated_time(self, obs_enabled):
        registry, _tracer = obs_enabled
        net = two_switch_net()
        NetworkCAC(net).setup(request_for(net))
        hist = registry.histogram("network_setup_time")
        assert hist.count == 1
        assert hist.sum == 0.0              # faultless walk: no timeouts


class TestSignalingFaultMetrics:
    def test_drop_counts_fault_and_retransmit(self, obs_enabled):
        registry, _tracer = obs_enabled
        net = two_switch_net()
        cac = NetworkCAC(
            net,
            fault_injector=FaultInjector(FaultPlan(
                [FaultSpec(DROP, phase="reserve", hop=1)])),
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5,
                                     max_delay=4.0),
        )
        cac.setup(request_for(net))
        assert registry.value("signaling_faults_total", kind=DROP) == 1
        assert registry.value("signaling_retransmits_total",
                              phase="reserve") == 1
        assert registry.total("signaling_timeouts_total") == 0
        # The dropped attempt burned one hop timeout plus backoff, all
        # visible in the delivery's simulated RTT.
        hist = registry.histogram("signaling_hop_rtt", phase="reserve")
        assert hist.count == 2
        assert hist.sum > 0

    def test_exhausted_retries_count_a_timeout(self, obs_enabled):
        registry, _tracer = obs_enabled
        net = two_switch_net()
        cac = NetworkCAC(
            net,
            fault_injector=FaultInjector(FaultPlan(
                [FaultSpec(DROP, phase="reserve", hop=1, count=3)])),
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5,
                                     max_delay=4.0),
        )
        with pytest.raises(SignalingTimeout):
            cac.setup(request_for(net))
        assert registry.value("signaling_timeouts_total",
                              phase="reserve") == 1
        assert registry.value("network_setups_total", outcome="timeout") == 1
        assert registry.total("cac_rollbacks_total") >= 1


class TestRecoveryMetrics:
    def loaded(self):
        switch = SwitchCAC("sw0")
        switch.configure_link("out", {0: 64})
        switch.admit("a", "in", "out", 0,
                     cbr(F(1, 8)).worst_case_stream())
        switch.reserve("b", "in", "out", 0,
                       cbr(F(1, 16)).worst_case_stream())
        return switch

    def test_recover_counts_and_verifies(self, obs_enabled):
        registry, _tracer = obs_enabled
        switch = self.loaded()
        switch.crash()
        switch.recover()
        assert registry.value("cac_recoveries_total", switch="sw0") == 1
        assert registry.value("cac_recoveries_verified_total",
                              switch="sw0") == 1
        # Both journal entries replay (the pending reserve is then
        # discarded, but it was still walked).
        assert registry.value("cac_recovery_replayed_entries",
                              switch="sw0") == 2


class TestKernelPathMetrics:
    """``bound_evaluations_total``: one series per op, any number type."""

    def test_exact_inputs_take_the_scalar_path(self, obs_enabled):
        registry, _tracer = obs_enabled
        delay_bound(cbr(F(1, 8)).worst_case_stream())
        delay_bound(cbr(0.125).worst_case_stream())
        assert registry.value("bound_evaluations_total",
                              op="delay_bound") == 2


class TestSimMetrics:
    def test_delivered_cells_and_worst_delay(self, obs_enabled):
        from repro.sim.cell import Cell
        from repro.sim.engine import Engine
        from repro.sim.metrics import Metrics

        registry, _tracer = obs_enabled
        metrics = Metrics()
        metrics.record(Cell("vc0", 0, 0.0, hop_waits=[3.0, 1.0]))
        metrics.record(Cell("vc0", 1, 1.0, hop_waits=[0.5]))
        assert registry.value("sim_cells_delivered_total") == 2
        assert registry.value("sim_worst_e2e_delay") == 4.0

        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert registry.value("sim_events_processed") == 2


class TestDisabledOverheadPath:
    def test_disabled_registry_records_nothing(self):
        from repro import obs
        assert not obs.enabled()
        net = two_switch_net()
        cac = NetworkCAC(net)
        cac.setup(request_for(net))
        cac.teardown("vc0")
        assert obs.get_registry().samples() == []

    def test_handles_rebind_after_registry_swap(self, obs_enabled):
        registry, _tracer = obs_enabled
        net = two_switch_net()
        cac = NetworkCAC(net)
        cac.setup(request_for(net))
        assert registry.total("cac_checks_total") == 2
        # Swap in a second registry mid-life: the switches' cached
        # instrument handles must follow it.
        from repro import obs
        second, _ = obs.enable(clock_source=cac.clock)
        cac.teardown("vc0")
        cac.setup(request_for(net, "vc1"))
        assert second.total("cac_checks_total") == 2
        assert registry.total("cac_checks_total") == 2   # untouched
