#!/usr/bin/env python3
"""Runtime reconfiguration of the interconnect (no re-synthesis).

State-of-the-art interconnects are configured at integration time and
frozen into the bitstream; the AXI HyperConnect instead "exports a control
AXI slave interface that allows changing its configuration from the PS as
a standard memory-mapped device".  This example exercises that interface
live, including through actual AXI transactions on the control port:

* re-balancing bandwidth budgets while traffic is running,
* changing the equalization (nominal burst) of a port,
* the dynamic-partial-reconfiguration workflow: decouple a port, "swap"
  the accelerator behind it, re-couple, re-program its reservation.

Run with::

    python examples/runtime_reconfiguration.py
"""

from repro.axi import AxiLink, WriteBeat, make_write_request
from repro.hyperconnect.regs import HYPERCONNECT_CTRL_BASE, REG_PERIOD
from repro.masters import GreedyTrafficGenerator
from repro.platforms import ZCU102
from repro.system import SocSystem

WINDOW = 150_000


def observed_shares(a, b, previous):
    """Byte share of each master since the previous snapshot."""
    bytes_a = a.bytes_read - previous[0]
    bytes_b = b.bytes_read - previous[1]
    total = max(1, bytes_a + bytes_b)
    return (bytes_a / total, bytes_b / total,
            (a.bytes_read, b.bytes_read))


def write_register_over_axi(soc, link, offset, value):
    """Program one register through the control slave like a CPU would."""
    link.aw.push(make_write_request(HYPERCONNECT_CTRL_BASE + offset, 1, 4))
    link.w.push(WriteBeat(last=True, data=value.to_bytes(4, "little")))
    soc.sim.run(5)
    assert link.b.can_pop(), "control interface must acknowledge"
    link.b.pop()


def main() -> None:
    soc = SocSystem.build(ZCU102, interconnect="hyperconnect", n_ports=2,
                          period=2048)
    # expose the control interface as a real AXI slave
    control_link = AxiLink(soc.sim, "ctrl-link", data_bytes=16)
    soc.interconnect.attach_control_interface(control_link)

    a = GreedyTrafficGenerator(soc.sim, "phase-A", soc.port(0),
                               job_bytes=8192, depth=4)
    b = GreedyTrafficGenerator(soc.sim, "phase-B", soc.port(1),
                               job_bytes=8192, depth=4)
    snapshot = (0, 0)

    print("1. default configuration (fair round-robin, no reservation)")
    soc.sim.run(WINDOW)
    share_a, share_b, snapshot = observed_shares(a, b, snapshot)
    print(f"   shares: port0={share_a:.0%} port1={share_b:.0%}")

    print("2. live re-balance to 75/25 via the driver")
    soc.driver.set_bandwidth_shares({0: 0.75, 1: 0.25})
    soc.sim.run(WINDOW)
    share_a, share_b, snapshot = observed_shares(a, b, snapshot)
    print(f"   shares: port0={share_a:.0%} port1={share_b:.0%}")

    print("3. reservation period re-programmed over the AXI control port")
    write_register_over_axi(soc, control_link, REG_PERIOD, 4096)
    assert soc.interconnect.central.period == 4096
    print(f"   period now {soc.driver.period} cycles "
          f"(written as a memory-mapped register)")

    print("4. dynamic partial reconfiguration workflow on port 1")
    soc.driver.decouple(1)
    b.enabled = False                      # old accelerator going away
    b.reset()                              # DPR wipes the region's state
    b.active = False                       # ... and removes it entirely
    soc.port(1).clear()                    # ... including the port eFIFOs
    soc.sim.run(20_000)                    # region being reprogrammed
    swapped = GreedyTrafficGenerator(soc.sim, "phase-B-v2", soc.port(1),
                                     job_bytes=4096, burst_len=32,
                                     depth=2)
    soc.driver.couple(1)
    soc.driver.set_bandwidth_shares({0: 0.5, 1: 0.5})
    soc.sim.run(WINDOW)
    __, __, final = observed_shares(a, swapped, (snapshot[0], 0))
    print(f"   swapped accelerator moved "
          f"{swapped.bytes_read / 1024:.0f} KiB after re-coupling")
    print(f"   issue counters (port1): {soc.driver.issued(1)}")
    print("done: every change happened at runtime, no re-synthesis.")


if __name__ == "__main__":
    main()
