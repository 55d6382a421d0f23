"""Engine daemon CLI: ``python -m repro.engine <command>``.

Commands::

    serve      warm an engine once, answer campaigns on a Unix socket
    submit     run a driver campaign through a running daemon
    submit-spec  run a Devil spec campaign through a running daemon
    ping       check a daemon is up and warm
    shutdown   stop a running daemon

``serve`` holds the warm state (compiled baseline, enumerated mutants,
checkpoint plan, machine snapshots) resident for its whole lifetime;
every ``submit`` reuses it, so the Nth campaign pays only evaluation
time.  ``submit --wait S`` retries the connect for up to ``S`` seconds,
so a client started in the same breath as the daemon simply blocks
until the engine is warm.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.distributed.sharding import DRIVERS, MODES
from repro.kernel.checkpoint import GRANULARITIES
from repro.mutation.sampling import DEFAULT_SEED
from repro.engine.daemon import EngineClient, serve
from repro.engine.state import CampaignRequest, SpecRequest
from repro.engine.supervision import SupervisionPolicy


def _request_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--driver", choices=DRIVERS, default="c")
    parser.add_argument("--mode", choices=MODES, default="debug")
    parser.add_argument("--fraction", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--backend", default=None)
    parser.add_argument(
        "--no-compile-cache",
        dest="compile_cache",
        action="store_false",
        help="full per-mutant compiles (reference path)",
    )
    parser.add_argument(
        "--boot-checkpoint",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="resume mutants from boot checkpoints "
        "(default: REPRO_BOOT_CHECKPOINT)",
    )
    parser.add_argument(
        "--granularity",
        choices=GRANULARITIES,
        default=None,
        help="checkpoint granularity "
        "(default: REPRO_CHECKPOINT_GRANULARITY, else subcall)",
    )
    parser.add_argument("--step-budget", type=int, default=None)


def _request(args) -> CampaignRequest:
    return CampaignRequest(
        driver=args.driver,
        mode=args.mode,
        fraction=args.fraction,
        seed=args.seed,
        backend=args.backend,
        compile_cache=args.compile_cache,
        boot_checkpoint=args.boot_checkpoint,
        granularity=args.granularity,
        step_budget=args.step_budget,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    server = commands.add_parser(
        "serve", help="warm the engine, answer campaigns on a Unix socket"
    )
    server.add_argument("--socket", required=True, help="Unix socket path")
    server.add_argument("--workers", type=int, default=None)
    server.add_argument(
        "--start-method", default=None,
        help="multiprocessing start method (default: REPRO_MP_START_METHOD, "
        "else fork)",
    )
    server.add_argument(
        "--lease-timeout", type=float, default=None,
        help="kill and respawn a worker whose lease runs longer than this "
        "many seconds (default: REPRO_ENGINE_LEASE_TIMEOUT, else off)",
    )
    server.add_argument(
        "--no-supervise",
        dest="supervise",
        action="store_false",
        help="disable worker supervision: any worker death aborts the "
        "campaign (default: REPRO_ENGINE_SUPERVISE)",
    )
    _request_arguments(server)
    server.add_argument(
        "--no-warm",
        dest="warm",
        action="store_false",
        help="skip pre-warming; state builds on the first submission",
    )
    server.set_defaults(supervise=None)

    submit = commands.add_parser(
        "submit", help="run a driver campaign through a running daemon"
    )
    submit.add_argument("--socket", required=True)
    submit.add_argument(
        "--wait", type=float, default=0.0,
        help="retry the connect for up to this many seconds",
    )
    _request_arguments(submit)

    spec = commands.add_parser(
        "submit-spec", help="run a Devil spec campaign through the daemon"
    )
    spec.add_argument("--socket", required=True)
    spec.add_argument("--wait", type=float, default=0.0)
    spec.add_argument("--spec", required=True, dest="spec_name")
    spec.add_argument("--fraction", type=float, default=1.0)
    spec.add_argument("--seed", type=int, default=DEFAULT_SEED)

    ping = commands.add_parser("ping", help="check the daemon is up")
    ping.add_argument("--socket", required=True)
    ping.add_argument("--wait", type=float, default=0.0)

    stop = commands.add_parser("shutdown", help="stop a running daemon")
    stop.add_argument("--socket", required=True)
    stop.add_argument("--wait", type=float, default=0.0)

    args = parser.parse_args(argv)

    if args.command == "serve":
        warm = (_request(args),) if args.warm else ()
        if args.supervise is False:
            supervision = SupervisionPolicy.disabled()
        else:
            supervision = SupervisionPolicy.from_env()
        if args.lease_timeout is not None:
            supervision = dataclasses.replace(
                supervision, lease_timeout=args.lease_timeout
            )
        serve(
            args.socket,
            workers=args.workers,
            warm=warm,
            start_method=args.start_method,
            ready=lambda: print(f"engine ready on {args.socket}", flush=True),
            supervision=supervision,
        )
        return 0

    client = EngineClient(args.socket, wait=args.wait)

    if args.command == "submit":
        campaign = client.submit(_request(args))
        print(json.dumps({
            "driver": campaign.driver,
            "tested": campaign.tested,
            "enumerated": campaign.enumerated,
            "detected_fraction": round(campaign.detected_fraction(), 4),
            "checkpoint_stats": campaign.checkpoint_stats,
        }, indent=2))
        return 0

    if args.command == "submit-spec":
        campaign = client.submit(SpecRequest(
            spec_name=args.spec_name,
            fraction=args.fraction,
            seed=args.seed,
        ))
        print(json.dumps({
            "spec_name": campaign.spec_name,
            "tested": campaign.tested,
            "enumerated": campaign.enumerated,
            "detected": campaign.detected,
            "detected_fraction": round(campaign.detected_fraction, 4),
        }, indent=2))
        return 0

    if args.command == "ping":
        if client.ping():
            print("pong")
            return 0
        print("no answer", file=sys.stderr)  # pragma: no cover
        return 1  # pragma: no cover

    if args.command == "shutdown":
        client.shutdown()
        print("daemon stopped")
        return 0

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


def _run() -> int:
    from repro.engine.core import EngineError

    try:
        return main()
    except EngineError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ConnectionRefusedError) as error:
        print(f"error: cannot reach daemon: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # pragma: no cover
        return 130


if __name__ == "__main__":
    sys.exit(_run())
