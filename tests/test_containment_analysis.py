"""Unit tests for the closed-form containment bounds.

The :class:`~repro.analysis.containment.ContainmentBound` terms are
checked against hand-derived values for the calibration point the fault
campaign runs at (ZCU102 DRAM timing, 16-beat equalization, 400-cycle
watchdog), plus structural properties (monotonicity, composition) that
must survive any re-derivation of the individual terms.
"""

import pytest

from repro.analysis import ContainmentBound
from repro.analysis.interference import transaction_service_cycles
from repro.analysis.latency import hyperconnect_propagation
from repro.platforms import ZCU102

TIMEOUT = 400


def bound(n_ports=2, timeout=TIMEOUT, period=None, outstanding=8,
          nominal=16):
    return ContainmentBound(n_ports=n_ports, nominal_burst=nominal,
                            memory=ZCU102.dram, timeout_cycles=timeout,
                            rogue_outstanding=outstanding, period=period)


class TestTerms:
    """Each component term against its hand-derived value."""

    def test_detection_is_the_programmed_timeout(self):
        assert bound().detection_cycles == TIMEOUT
        assert bound(timeout=123).detection_cycles == 123

    def test_drain_counts_in_flight_service_plus_pipeline_tail(self):
        service = transaction_service_cycles(16)
        tail = (ZCU102.dram.read_latency + ZCU102.dram.write_latency
                + ZCU102.dram.resp_latency)
        assert bound().drain_cycles == 2 * 8 * service + tail

    def test_propagation_slack_is_the_four_channel_traversal(self):
        prop = hyperconnect_propagation()
        assert (bound().propagation_slack
                == prop["AR"] + prop["AW"] + prop["R"] + prop["B"])


class TestComposites:
    """Composition identities and the pinned calibration values."""

    def test_healthy_delay_excludes_synthesis(self):
        """Synthesis runs behind the closed gate; neighbours never see
        it, so the healthy bound must not charge for it."""
        b = bound()
        service = transaction_service_cycles(16)
        assert b.healthy_port_delay_bound() == (
            b.detection_cycles + b.drain_cycles + b.n_ports * service
            + b.propagation_slack)

    @pytest.mark.parametrize("n_ports,expected", ((2, 771), (3, 788),
                                                  (4, 805)))
    def test_calibrated_healthy_bounds(self, n_ports, expected):
        """Pinned values the fuzz oracle and campaign assert against.

        A change here is a deliberate re-derivation of the bound; the
        measured campaign deltas (~270-400 cycles at n=2) must stay
        below the new values.
        """
        assert bound(n_ports=n_ports).healthy_port_delay_bound() == expected

    def test_reservation_period_adds_one_blackout_window(self):
        free = bound().healthy_port_delay_bound()
        assert bound(period=2048).healthy_port_delay_bound() == free + 2048
        assert bound(period=2048).healthy_port_delay_bound() == 2819

    def test_cascade_slack(self):
        b = bound()
        service = transaction_service_cycles(16)
        per_level = b.propagation_slack + b.n_ports * service
        assert b.cascade_slack(levels=1) == 0
        assert b.cascade_slack(levels=2) == per_level
        assert b.cascade_slack(levels=3) == 2 * per_level
        with pytest.raises(ValueError):
            b.cascade_slack(levels=0)


class TestMonotonicity:
    """Looser configurations may never yield tighter bounds."""

    def test_monotone_in_timeout(self):
        assert (bound(timeout=500).healthy_port_delay_bound()
                > bound(timeout=400).healthy_port_delay_bound())

    def test_monotone_in_ports(self):
        assert (bound(n_ports=4).healthy_port_delay_bound()
                > bound(n_ports=2).healthy_port_delay_bound())

    def test_monotone_in_outstanding(self):
        assert (bound(outstanding=16).healthy_port_delay_bound()
                > bound(outstanding=8).healthy_port_delay_bound())

    def test_monotone_in_nominal_burst(self):
        assert (bound(nominal=32).healthy_port_delay_bound()
                > bound(nominal=16).healthy_port_delay_bound())


class TestValidation:
    def test_rejects_bad_parameters(self):
        for kwargs in ({"n_ports": 0}, {"nominal": 0}, {"timeout": 0},
                       {"outstanding": 0}, {"period": 0}):
            with pytest.raises(ValueError):
                bound(**kwargs)
