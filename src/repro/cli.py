"""Command-line interface: run the paper's experiments from a shell.

Installed as ``python -m repro``.  Subcommands map one-to-one onto the
experiment harnesses::

    python -m repro latency                         # Fig. 3(a)
    python -m repro access-time --size 16384        # Fig. 3(b) point
    python -m repro case-study --share 70           # Fig. 5 row (HC-70-30)
    python -m repro resources --ports 4             # Table I extrapolated
    python -m repro wcrt --bytes 65536 --budget 32 --period 1024
    python -m repro campaign --grid smoke --workers 4 -o results.jsonl
    python -m repro info
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import (
    HyperConnectWcrt,
    hyperconnect_propagation,
    improvement,
    smartconnect_propagation,
)
from .platforms import PLATFORMS
from .resources import resource_table
from .sim import ConfigurationError
from .system import (
    measure_access_time,
    measure_channel_latencies,
    run_case_study,
)
from . import __version__


def _platform(name: str):
    try:
        return PLATFORMS[name]
    except KeyError:
        raise SystemExit(
            f"unknown platform {name!r}; choose from "
            f"{', '.join(sorted(PLATFORMS))}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_latency(args: argparse.Namespace) -> int:
    """Fig. 3(a): per-channel propagation latency table."""
    platform = _platform(args.platform)
    hc = measure_channel_latencies("hyperconnect", platform).as_dict()
    sc = measure_channel_latencies("smartconnect", platform).as_dict()
    print(f"per-channel propagation latency on {platform.name} (cycles)")
    print(f"{'channel':<9}{'HyperConnect':>13}{'SmartConnect':>13}"
          f"{'improvement':>13}")
    for channel in ("AR", "AW", "R", "W", "B"):
        print(f"{channel:<9}{hc[channel]:>13}{sc[channel]:>13}"
              f"{improvement(sc[channel], hc[channel]):>12.0%}")
    return 0


def cmd_access_time(args: argparse.Namespace) -> int:
    """Fig. 3(b): memory access time for given sizes."""
    platform = _platform(args.platform)
    for nbytes in args.size:
        hc = measure_access_time("hyperconnect", nbytes, platform)
        sc = measure_access_time("smartconnect", nbytes, platform)
        print(f"{nbytes:>9} B   HC {hc:>8} cycles   SC {sc:>8} cycles   "
              f"improvement {improvement(sc, hc):.1%}")
    return 0


def cmd_case_study(args: argparse.Namespace) -> int:
    """Fig. 4/5: one case-study configuration."""
    platform = _platform(args.platform)
    shares = None
    label = args.interconnect
    if args.share is not None:
        if args.interconnect != "hyperconnect":
            raise SystemExit("--share requires the hyperconnect")
        fraction = args.share / 100.0
        shares = {0: fraction, 1: round(1.0 - fraction, 4)}
        label = f"HC-{args.share}-{100 - args.share}"
    result = run_case_study(args.interconnect, shares=shares,
                            scale=args.scale,
                            window_cycles=args.window,
                            platform=platform, tlm=args.tlm)
    print(f"{label} on {platform.name}: "
          f"CHaiDNN {result.chaidnn_fps:.0f} scaled fps "
          f"({result.chaidnn_frames} frames), "
          f"DMA {result.dma_rate:.0f} rounds/s "
          f"({result.dma_rounds} rounds) "
          f"in {result.window_cycles} cycles")
    return 0


def cmd_resources(args: argparse.Namespace) -> int:
    """Table I: resource consumption estimate."""
    platform = _platform(args.platform)
    print(resource_table(platform, n_ports=args.ports,
                         data_bytes=args.width // 8))
    return 0


def cmd_wcrt(args: argparse.Namespace) -> int:
    """Closed-form worst-case response-time bound."""
    platform = _platform(args.platform)
    model = HyperConnectWcrt(
        n_ports=args.ports, nominal_burst=args.nominal,
        memory=platform.dram, budget=args.budget, period=args.period)
    bound = model.job_bound_bytes(args.bytes, platform.hp_data_bytes)
    print(f"WCRT bound for a {args.bytes} B read on {platform.name} "
          f"({args.ports} ports, nominal {args.nominal}"
          + (f", budget {args.budget}/{args.period}"
             if args.budget is not None else "")
          + f"): {bound} cycles "
          f"({platform.cycles_to_seconds(bound) * 1e6:.1f} us)")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Stream a named scenario grid through the campaign runner."""
    from .verify import CampaignConfig, grid_names, grid_scenarios, \
        run_campaign

    if args.list:
        from .verify.paramspace import COMPOSITES, GRIDS
        for name in grid_names():
            if name in COMPOSITES:
                members = ", ".join(COMPOSITES[name])
                print(f"{name:<12} composite of: {members}")
            else:
                print(f"{name:<12} {GRIDS[name].description}")
        return 0
    if args.grid is None:
        raise SystemExit("campaign: --grid NAME required (or --list)")
    scenarios, checks = grid_scenarios(
        args.grid, mode=args.mode, seed=args.seed, samples=args.samples,
        limit=args.limit, horizon=args.horizon)
    if args.checks:
        checks = tuple(args.checks)
    print(f"campaign {args.grid!r}: {len(scenarios)} scenarios, "
          f"checks={','.join(checks) or '-'} "
          f"workers={max(1, args.workers)}", flush=True)
    config = CampaignConfig(checks=checks,
                            record_timeout=args.record_timeout)
    result = run_campaign(scenarios, workers=args.workers,
                          config=config, output=args.output)
    counts = " ".join(f"{verdict}={count}"
                      for verdict, count in sorted(result.counts.items()))
    print(f"verdicts: {counts}")
    print(f"throughput: {result.scenarios_per_sec:.2f} scenarios/s "
          f"({result.wall_s:.1f} s wall, {result.total_cycles} "
          f"simulated cycles)")
    print(f"digest: {result.digest}")
    if args.output is not None:
        print(f"results: {args.output}")
    if not result.ok:
        failing = [r for r in result.records if r["verdict"] != "pass"]
        for record in failing[:10]:
            print(f"  [{record['verdict']}] scenario {record['index']} "
                  f"({record['scenario_id']}): "
                  f"{record['oracle'] or ''} {record['detail']}")
        if len(failing) > 10:
            print(f"  ... and {len(failing) - 10} more")
        return 1
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """Library, model, and platform summary."""
    print(f"repro {__version__} — AXI HyperConnect reproduction "
          f"(DAC 2020)")
    hc = hyperconnect_propagation()
    sc = smartconnect_propagation()
    print(f"model latencies: HC {hc} / SC {sc}")
    for platform in PLATFORMS.values():
        print(f"platform {platform.name}: "
              f"{platform.pl_clock_hz / 1e6:.0f} MHz PL, "
              f"{platform.hp_data_bytes * 8}-bit port, "
              f"DRAM read latency {platform.dram.read_latency} cycles")
    return 0


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--platform", default="ZCU102",
                        help="platform model (default: ZCU102)")
    parser.add_argument("--tlm", action="store_true",
                        help="case-study in transaction-level "
                             "fast-forward mode: skip steady-state "
                             "epochs analytically, demote "
                             "to cycle-accurate at every unpredictable "
                             "edge")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "latency", help="Fig. 3(a): per-channel propagation latency"
    ).set_defaults(handler=cmd_latency)

    access = commands.add_parser(
        "access-time", help="Fig. 3(b): memory access time per size")
    access.add_argument("--size", type=int, nargs="+",
                        default=[16, 256, 16384],
                        help="transfer sizes in bytes")
    access.set_defaults(handler=cmd_access_time)

    case = commands.add_parser(
        "case-study", help="Fig. 4/5: CHaiDNN + DMA case study")
    case.add_argument("--interconnect", default="hyperconnect",
                      choices=["hyperconnect", "smartconnect"])
    case.add_argument("--share", type=int, default=None,
                      help="CHaiDNN bandwidth percentage (HC-X-Y)")
    case.add_argument("--window", type=int, default=400_000)
    case.add_argument("--scale", type=float, default=1 / 64)
    case.set_defaults(handler=cmd_case_study)

    resources = commands.add_parser(
        "resources", help="Table I: resource consumption")
    resources.add_argument("--ports", type=int, default=2)
    resources.add_argument("--width", type=int, default=128,
                           help="bus width in bits")
    resources.set_defaults(handler=cmd_resources)

    wcrt = commands.add_parser(
        "wcrt", help="analytic worst-case response-time bound")
    wcrt.add_argument("--bytes", type=int, required=True)
    wcrt.add_argument("--ports", type=int, default=2)
    wcrt.add_argument("--nominal", type=int, default=16)
    wcrt.add_argument("--budget", type=int, default=None)
    wcrt.add_argument("--period", type=int, default=None)
    wcrt.set_defaults(handler=cmd_wcrt)

    campaign = commands.add_parser(
        "campaign",
        help="stream a scenario grid through the multi-process "
             "verification campaign runner")
    campaign.add_argument("--grid", default=None,
                          help="grid name (see --list)")
    campaign.add_argument("--list", action="store_true",
                          help="list available grids and exit")
    campaign.add_argument("--mode", default=None,
                          choices=["full", "pairwise", "sample"],
                          help="coverage mode (default: per-grid)")
    campaign.add_argument("--workers", type=int, default=1, metavar="N",
                          help="worker processes (<=1 runs inline)")
    campaign.add_argument("--seed", type=int, default=0,
                          help="grid-generation seed")
    campaign.add_argument("--samples", type=int, default=64,
                          help="draws for --mode sample")
    campaign.add_argument("--limit", type=int, default=None,
                          help="cap the scenario count")
    campaign.add_argument("--horizon", type=int, default=None,
                          help="override every scenario's horizon")
    campaign.add_argument("--checks", nargs="+", default=None,
                          choices=["equivalence", "liveness", "protocol",
                                   "containment", "isolation", "tlm"],
                          help="oracle families (default: per-grid)")
    campaign.add_argument("--record-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="wall-clock budget per record; a hung "
                               "worker becomes an 'error' verdict "
                               "(needs --workers >= 2)")
    campaign.add_argument("--output", "-o", default=None, metavar="FILE",
                          help="write JSON-lines results here")
    campaign.set_defaults(handler=cmd_campaign)

    commands.add_parser(
        "info", help="library and platform summary"
    ).set_defaults(handler=cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    A bad argument value that only a handler can judge (a library
    :class:`ConfigurationError` or ``ValueError``) exits with
    ``"<command>: <message>"`` instead of a traceback.
    """
    args = build_parser().parse_args(argv)
    _platform(args.platform)   # validate once, before any work
    try:
        return args.handler(args)
    except (ConfigurationError, ValueError) as error:
        raise SystemExit(f"{args.command}: {error}") from None


if __name__ == "__main__":   # pragma: no cover - module execution path
    sys.exit(main())
