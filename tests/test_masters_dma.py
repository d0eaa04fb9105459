"""Unit tests for the AXI DMA model."""

import pytest

from repro.masters import AxiDma, DmaDescriptor, standard_case_study_dma
from repro.platforms import ZCU102
from repro.sim import ConfigurationError
from repro.system import SocSystem

from conftest import drain


def build():
    soc = SocSystem.build(ZCU102, n_ports=2)
    dma = AxiDma(soc.sim, "dma", soc.port(0))
    return soc, dma


class TestDescriptors:
    def test_invalid_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            DmaDescriptor("copy", 0, 16)

    def test_invalid_size_rejected(self):
        with pytest.raises(ConfigurationError):
            DmaDescriptor("read", 0, 0)

    def test_empty_program_rejected(self):
        soc, dma = build()
        with pytest.raises(ConfigurationError):
            dma.program([])

    def test_start_without_program_rejected(self):
        soc, dma = build()
        with pytest.raises(ConfigurationError):
            dma.start()


class TestRounds:
    def test_single_round(self):
        soc, dma = build()
        dma.program([DmaDescriptor("read", 0x1000, 256),
                     DmaDescriptor("write", 0x9000, 256)])
        dma.start()
        drain(soc)
        assert dma.rounds_completed == 1
        assert dma.round_rate.events == 1
        assert len(dma.round_latencies) == 1

    def test_round_bookkeeping_runs_before_external_callbacks(self):
        soc, dma = build()
        dma.program([DmaDescriptor("read", 0x1000, 256)])
        seen = []
        dma.on_job_complete(
            lambda job, cycle: seen.append(dma.rounds_completed))
        dma.start()
        drain(soc)
        assert seen == [1]

    def test_repeat_reschedules(self):
        soc, dma = build()
        dma.program([DmaDescriptor("read", 0x1000, 256)], repeat=True)
        dma.start()
        soc.sim.run(5000)
        assert dma.rounds_completed > 3

    def test_round_counts_all_descriptors(self):
        soc, dma = build()
        dma.program([DmaDescriptor("read", 0x1000, 128),
                     DmaDescriptor("read", 0x2000, 128),
                     DmaDescriptor("write", 0x9000, 128)])
        dma.start()
        drain(soc)
        assert dma.rounds_completed == 1
        assert dma.bytes_read == 256
        assert dma.bytes_written == 128

    def test_one_shot_jobs_do_not_count_as_rounds(self):
        soc, dma = build()
        dma.enqueue_read(0x1000, 128)
        drain(soc)
        assert dma.rounds_completed == 0


class TestCaseStudyFactory:
    def test_standard_case_study_dma(self):
        soc = SocSystem.build(ZCU102, n_ports=2)
        dma = standard_case_study_dma(soc.sim, "hadma", soc.port(1),
                                      nbytes=4096)
        dma.start()
        soc.sim.run(4000)
        assert dma.rounds_completed >= 1
        # each round moves nbytes in and nbytes out
        assert dma.bytes_read >= 4096
        assert dma.bytes_written >= 4096
