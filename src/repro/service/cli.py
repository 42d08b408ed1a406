"""Service verbs of the ``drdesync``/``repro`` command line.

::

    repro serve  [--host H] [--port P] [--run-dir DIR] [--workers N]
                 [--max-pending N] [--cache-max-mb MB]
                 [--max-trace-spans N] [--log-level LEVEL]
    repro submit DESIGN [--url URL] [--param k=v ...] [--option k=v ...]
                 [--library hs|ll] [--top NAME] [--priority N]
                 [--profile] [--no-reuse] [--wait] [--verilog-out F]
    repro status [JOB_ID] [--url URL]
    repro trace  JOB_ID [--url URL] [--out FILE]
    repro profile JOB_ID [--url URL] [--out FILE]
    repro cancel JOB_ID [--url URL]
    repro shutdown [--url URL]

``submit DESIGN`` takes either a known generator name (``dlx``,
``pipeline3``, ...) or a path to a gate-level Verilog file.  Exit
codes match the main CLI: 0 ok, 1 usage, 2 flow/transport error.
``serve`` drains in-flight jobs and exits 0 on SIGTERM/SIGINT or a
``shutdown`` request.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import sys
import threading
from typing import Any, Dict, List, Optional

from ..obs import configure_logging

DEFAULT_URL = "http://127.0.0.1:8642"

log = logging.getLogger("repro.service.cli")

SERVICE_COMMANDS = (
    "serve", "submit", "status", "trace", "profile", "cancel", "shutdown"
)


def _parse_kv(pairs: List[str], label: str) -> Dict[str, Any]:
    """``k=v`` option lists with JSON-ish value coercion."""
    out: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"bad --{label} {pair!r}: expected key=value")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def build_service_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="desync-as-a-service daemon and client verbs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the job daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument("--run-dir", default=".repro_service")
    serve.add_argument(
        "--workers", type=int, default=2,
        help="concurrent flow jobs (default 2)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=256,
        help="queued-job backpressure bound (default 256)",
    )
    serve.add_argument(
        "--cache-max-mb", type=float, default=None,
        help="LRU-evict the shared artifact cache above this size",
    )
    serve.add_argument(
        "--max-trace-spans", type=int, default=5000,
        help="spans retained per job trace before dropping (default 5000)",
    )
    serve.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default="info",
    )

    def add_url(p):
        p.add_argument("--url", default=DEFAULT_URL)

    submit = sub.add_parser("submit", help="submit one job")
    add_url(submit)
    submit.add_argument(
        "design", nargs="?",
        help="generator name (dlx, pipeline3, ...) or Verilog path; "
        "omit for an eco job (--parent)",
    )
    submit.add_argument(
        "--parent", metavar="JOB_ID",
        help="eco job: patch this completed job's result incrementally",
    )
    submit.add_argument(
        "--edits", metavar="FILE",
        help="eco job: edits.json with the netlist edits to apply",
    )
    submit.add_argument(
        "--param", action="append", default=[], metavar="K=V",
        help="design generator parameter (repeatable)",
    )
    submit.add_argument(
        "--option", action="append", default=[], metavar="K=V",
        help="DesyncOptions field (repeatable), e.g. grouping=single",
    )
    submit.add_argument("--library", choices=["hs", "ll"], default="hs")
    submit.add_argument("--top", help="top module for Verilog submissions")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument(
        "--profile", action="store_true",
        help="capture a per-stage profile (fetch with 'repro profile')",
    )
    submit.add_argument(
        "--no-reuse", action="store_true",
        help="force a fresh run even when an identical job exists",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job settles and print its result",
    )
    submit.add_argument(
        "--verilog-out", metavar="FILE",
        help="with --wait: write the converted netlist here",
    )

    status = sub.add_parser("status", help="job status / job list")
    add_url(status)
    status.add_argument("job_id", nargs="?", help="omit to list all jobs")

    trace = sub.add_parser(
        "trace", help="fetch a job's Perfetto trace file"
    )
    add_url(trace)
    trace.add_argument("job_id")
    trace.add_argument(
        "--out", metavar="FILE",
        help="write the trace JSON here instead of stdout",
    )

    profile = sub.add_parser(
        "profile", help="fetch a job's per-stage profile document"
    )
    add_url(profile)
    profile.add_argument("job_id")
    profile.add_argument(
        "--out", metavar="FILE",
        help="write the profile JSON here instead of stdout",
    )

    cancel = sub.add_parser("cancel", help="cancel a queued job")
    add_url(cancel)
    cancel.add_argument("job_id")

    shutdown = sub.add_parser("shutdown", help="drain and stop the daemon")
    add_url(shutdown)
    return parser


def _cmd_serve(args) -> int:
    from .daemon import ServiceDaemon
    from .server import make_server

    configure_logging(args.log_level, stream=sys.stdout)
    cache_max_bytes = (
        int(args.cache_max_mb * 1024 * 1024)
        if args.cache_max_mb is not None
        else None
    )
    daemon = ServiceDaemon(
        run_dir=args.run_dir,
        workers=args.workers,
        max_pending=args.max_pending,
        cache_max_bytes=cache_max_bytes,
        max_trace_spans=args.max_trace_spans,
    )
    server = make_server(daemon, host=args.host, port=args.port)

    def drain_on_signal(signum, _frame):
        # serve_forever() runs on this thread, and server.shutdown()
        # blocks until it returns: drain from a helper thread
        log.info("signal %d: graceful drain", signum)
        threading.Thread(
            target=server.initiate_shutdown, daemon=True
        ).start()

    signal.signal(signal.SIGTERM, drain_on_signal)
    signal.signal(signal.SIGINT, drain_on_signal)
    log.info(
        "serving on %s (run dir %s, %d workers); SIGTERM drains",
        server.url,
        daemon.run_dir,
        args.workers,
    )
    try:
        server.serve_forever()
    finally:
        server.server_close()
        daemon.close(timeout=30.0)
    return 0


def _cmd_submit(args) -> int:
    from .client import ServiceClient
    from .jobs import JobSpec, known_designs, options_from_dict

    spec_kwargs: Dict[str, Any] = {
        "library": args.library,
        "priority": args.priority,
        "profile": args.profile,
        "options": options_from_dict(_parse_kv(args.option, "option")),
    }
    if args.parent or args.edits:
        if not (args.parent and args.edits):
            print(
                "repro submit: an eco job needs both --parent and --edits",
                file=sys.stderr,
            )
            return 1
        if args.design is not None:
            print(
                "repro submit: an eco job inherits its design from "
                "--parent; drop the design argument",
                file=sys.stderr,
            )
            return 1
        from ..flow.incremental import load_edits

        spec_kwargs["parent"] = args.parent
        spec_kwargs["edits"] = [
            edit.to_dict() for edit in load_edits(args.edits)
        ]
    elif args.design is None:
        print(
            "repro submit: a design (or --parent for an eco job) is "
            "required",
            file=sys.stderr,
        )
        return 1
    elif args.design in known_designs():
        spec_kwargs["design"] = args.design
        spec_kwargs["params"] = _parse_kv(args.param, "param")
    elif os.path.isfile(args.design):
        with open(args.design) as handle:
            spec_kwargs["verilog"] = handle.read()
        spec_kwargs["top"] = args.top
    else:
        print(
            f"repro submit: {args.design!r} is neither a known design "
            f"({', '.join(known_designs())}) nor a Verilog file",
            file=sys.stderr,
        )
        return 1

    client = ServiceClient(args.url)
    ticket = client.submit(JobSpec(**spec_kwargs), reuse=not args.no_reuse)
    print(json.dumps(ticket, indent=2, sort_keys=True))
    if not args.wait:
        return 0
    status = client.wait(ticket["id"], timeout=None)
    print(json.dumps(status, indent=2, sort_keys=True))
    if status["state"] != "done":
        return 2
    result = client.result(
        ticket["id"], include_verilog=bool(args.verilog_out)
    )
    if args.verilog_out:
        with open(args.verilog_out, "w") as handle:
            handle.write(result.pop("verilog", ""))
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _cmd_status(args) -> int:
    from .client import ServiceClient

    client = ServiceClient(args.url)
    if args.job_id:
        payload = client.status(args.job_id)
    else:
        payload = {
            "health": client.health(),
            "jobs": client.jobs()["jobs"],
        }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_trace(args) -> int:
    from .client import ServiceClient

    document = ServiceClient(args.url).trace(args.job_id)
    text = json.dumps(document, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(
            f"wrote {len(document.get('traceEvents', []))} trace events "
            f"to {args.out} (load in https://ui.perfetto.dev)"
        )
    else:
        print(text)
    return 0


def _cmd_profile(args) -> int:
    from .client import ServiceClient

    document = ServiceClient(args.url).profile(args.job_id)
    text = json.dumps(document, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(
            f"wrote {document.get('stage_count', 0)} stage profile(s) "
            f"to {args.out} (speedscope doc inside; "
            "load at https://www.speedscope.app)"
        )
    else:
        print(text)
    return 0


def _cmd_cancel(args) -> int:
    from .client import ServiceClient

    print(
        json.dumps(
            ServiceClient(args.url).cancel(args.job_id),
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def _cmd_shutdown(args) -> int:
    from .client import ServiceClient

    print(json.dumps(ServiceClient(args.url).shutdown(), sort_keys=True))
    return 0


def service_main(argv: Optional[List[str]] = None) -> int:
    parser = build_service_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return 0 if not exit_.code else 1
    handlers = {
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "trace": _cmd_trace,
        "profile": _cmd_profile,
        "cancel": _cmd_cancel,
        "shutdown": _cmd_shutdown,
    }
    try:
        return handlers[args.command](args)
    except Exception as error:
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 2
