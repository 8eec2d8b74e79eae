"""Command-line interface.

Usage (also via ``python -m repro``)::

    repro compile PROGRAM.hpf [--procs 16] [--strategy selected] [--spmd]
    repro estimate PROGRAM.hpf [--procs 1 2 4 8 16] [...]
    repro run PROGRAM.hpf [--procs N] [--seed 0] [--trace out.json]
              [--tier auto|lowered|slab]
              [--metrics] [--json out.json]
    repro sweep PROGRAM.hpf [--procs 2 4] [--axis FIELD=V1,V2]
              [--measure simulate] [--exec auto] [--json]
    repro tables [--table 1 2 3] [--fast]
    repro cache stats|clear [--cache-dir DIR]
    repro serve [--service-dir DIR] [--workers N] [--once]
    repro jobs submit|status|watch|cancel [...]
    repro catalog ls|show|gc [...]

``compile`` prints the mapping report (and optionally the SPMD
pseudo-code); ``estimate`` sweeps processor counts with the analytic
SP2-class model; ``run`` executes the program on the simulated machine
with random inputs and cross-checks the sequential interpreter;
``tables`` regenerates the paper's evaluation tables; ``cache``
manages the persistent compile cache (opt in per command with
``--disk-cache`` or ``--cache-dir DIR``).  ``serve``/``jobs``/
``catalog`` drive the persistent sweep service (durable queue +
artifact catalog under ``--service-dir``): submit an experiment grid
once, run any number of ``repro serve`` workers against it, watch it
finish, and query what was measured.

Flag conventions:

* ``--json [OUT]`` — machine-readable output everywhere: bare
  ``--json`` prints to stdout, ``--json OUT`` writes the file.
* ``--measure`` — *what* each sweep point measures
  (estimate/simulate/compile).
* ``--exec`` — *how* ``sweep`` runs the grid (auto/pool).

Every subcommand is a thin shell over :class:`repro.api.Session` —
the CLI parses flags into session configuration and formats what the
facade returns.
"""

from __future__ import annotations

import argparse
import math
import sys

from .api import Session
from .codegen.spmd import print_spmd
from .core.driver import CompilerOptions
from .core.scalar_mapping import STRATEGIES
from .errors import ReproError
from .machine import TIERS
from .sweep import SweepSpec


class _Parser(argparse.ArgumentParser):
    """argparse's parser with every error on one line (``-h`` prints
    the usage)."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _checked(parse, ok, what: str):
    """An argparse type: ``parse(value)`` when ``ok`` of it, else an
    error saying ``what`` was expected."""

    def convert(value: str):
        try:
            number = parse(value)
        except ValueError:
            number = None
        if number is None or not ok(number):
            raise argparse.ArgumentTypeError(f"expected {what}, got {value!r}")
        return number

    return convert


_PROCS = _checked(int, lambda n: n >= 1, "an integer >= 1")
_COUNT = _checked(int, lambda n: n >= 0, "an integer >= 0")
_SCALE = _checked(float, lambda x: 0 < x < math.inf, "a finite number > 0")
_AGE = _checked(float, lambda x: 0 <= x < math.inf, "a finite number >= 0")


def _compiler_options(args, num_procs: int | None = None) -> CompilerOptions:
    """Fresh options from the parsed flags; ``num_procs`` is explicit so
    sweeps build one options object per processor count instead of
    mutating the shared argparse namespace."""
    return CompilerOptions.from_overrides(
        strategy=args.strategy,
        align_reductions=not args.no_reduction_alignment,
        privatize_arrays=not args.no_array_privatization,
        partial_privatization=not args.no_partial_privatization,
        privatize_control_flow=not args.no_control_flow_privatization,
        message_vectorization=not args.no_message_vectorization,
        combine_messages=args.combine_messages,
        auto_privatize_arrays=args.auto_privatize_arrays,
        num_procs=num_procs,
    )


def _cache_arg(args):
    """The persistent compile cache is strictly opt-in on the CLI:
    ``--cache-dir DIR`` roots it at DIR, ``--disk-cache`` at the
    default root; otherwise disabled."""
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        return cache_dir
    return True if getattr(args, "disk_cache", False) else None


def _session(args, num_procs: int | None = None, **kwargs) -> Session:
    return Session(
        _compiler_options(args, num_procs=num_procs),
        cache=_cache_arg(args),
        **kwargs,
    )


def _add_compile_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("program", help="mini-HPF source file")
    _add_option_flags(parser)


def _add_option_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="selected",
        help="scalar mapping strategy (default: the paper's algorithm)",
    )
    parser.add_argument("--no-reduction-alignment", action="store_true")
    parser.add_argument("--no-array-privatization", action="store_true")
    parser.add_argument("--no-partial-privatization", action="store_true")
    parser.add_argument("--no-control-flow-privatization", action="store_true")
    parser.add_argument("--no-message-vectorization", action="store_true")
    parser.add_argument(
        "--combine-messages",
        action="store_true",
        help="enable global message combining (paper future work)",
    )
    parser.add_argument(
        "--auto-privatize-arrays",
        action="store_true",
        help="infer array privatizability without NEW clauses (paper future work)",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="print the per-pass pipeline timings table",
    )
    _add_cache_flags(parser)


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--disk-cache",
        action="store_true",
        help="reuse compiles via the persistent cache at its default "
        "root (~/.cache/repro or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="root the persistent compile cache at DIR (implies "
        "--disk-cache)",
    )


def _add_json_flag(
    parser: argparse.ArgumentParser,
    help: str = "emit machine-readable JSON: bare --json prints to "
    "stdout, --json OUT writes the file",
) -> None:
    """The one ``--json [OUT]`` convention: absent → human output,
    bare → JSON on stdout, with a path → JSON written to OUT."""
    parser.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="OUT",
        help=help,
    )


def _emit_json(args, payload) -> None:
    import json

    text = json.dumps(payload, indent=1, sort_keys=True, default=str)
    if args.json == "-":
        print(text)
    else:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _add_service_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--service-dir", metavar="DIR", default=None,
        help="service root holding queue.sqlite (the job queue and the "
        "artifact catalog) and the compile cache (default: "
        "$REPRO_SERVICE_DIR or <cache root>/service)",
    )


def _service(args, **kwargs):
    from .service import SweepService

    return SweepService(getattr(args, "service_dir", None), **kwargs)


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as error:
        raise ReproError(f"cannot read {path}: {error.strerror}") from None


def cmd_compile(args) -> int:
    source = _read_source(args.program)
    compiled = _session(args, num_procs=args.procs).compile(source)
    print(compiled.report())
    if getattr(args, "timings", False):
        print()
        print("pipeline timings:")
        print(compiled.timings.render())
    if getattr(args, "explain", False):
        from .core.diagnostics import diagnose, render_diagnostics

        print()
        print("diagnostics:")
        print(render_diagnostics(diagnose(compiled)))
    if args.spmd:
        print()
        print(print_spmd(compiled))
    return 0


def cmd_profile(args) -> int:
    source = _read_source(args.program)
    estimate = _session(args, num_procs=args.procs).estimate(source)
    print(estimate.summary())
    print()
    print(f"top {args.top} statements by compute time:")
    for cost in sorted(estimate.stmt_costs, key=lambda c: -c.time)[: args.top]:
        print(
            f"  {cost.time:10.4f}s  x{cost.instances:>10.0f} "
            f"(P-factor {cost.parallel_factor:4.1f})  {cost.stmt}"
        )
    if estimate.event_costs:
        print()
        print(f"top {args.top} transfers by time:")
        for cost in sorted(estimate.event_costs, key=lambda c: -c.time)[: args.top]:
            print(f"  {cost.time:10.4f}s  x{cost.instances:>8.0f}  {cost.event}")
    return 0


def cmd_estimate(args) -> int:
    import os

    source = _read_source(args.program)
    # One session for the whole sweep: its shared pass manager means
    # every procs value reuses the cached front-end analyses, and
    # --timings sees consistent option closures.
    session = _session(args)
    name = os.path.basename(args.program) if args.program != "-" else "stdin"
    spec = SweepSpec(
        programs={name: source},
        procs=tuple(args.procs),
        base=session.options,
        mode="estimate",
    )
    print(f"{'P':>6} {'total':>12} {'compute':>12} {'comm':>12}")
    failed = False
    for result in session.sweep(spec, workers=0):
        if not result.ok:
            failed = True
            print(f"{result.procs:>6} failed: {result.error.strip().splitlines()[-1]}",
                  file=sys.stderr)
            continue
        print(
            f"{result.procs:>6} {result.total_time:>11.4f}s "
            f"{result.compute_time:>11.4f}s {result.comm_time:>11.4f}s"
        )
    if getattr(args, "timings", False):
        print()
        print("pipeline timings (whole sweep):")
        print(session.manager.metrics.render())
    return 1 if failed else 0


def _trace_path(value: str) -> str:
    """``--trace`` takes the output path of a Chrome trace_event file;
    the event-count form of older releases is refused by name."""
    if value.lstrip("+-").isdigit():
        raise argparse.ArgumentTypeError(
            f"{value!r} is not a file path: the event-count form is "
            f"gone, use --trace OUT.json"
        )
    return value


def cmd_run(args) -> int:
    import json

    from .obs import Metrics, Tracer

    source = _read_source(args.program)

    trace_path = getattr(args, "trace", None)
    want_metrics = bool(
        getattr(args, "metrics", False) or getattr(args, "metrics_json", None)
    )
    tracer = Tracer() if trace_path else None
    metrics = Metrics() if want_metrics else None

    session = _session(
        args, num_procs=args.procs, tracer=tracer, metrics=metrics
    )
    result = session.run(
        source,
        seed=args.seed,
        tier=getattr(args, "tier", "auto"),
    )

    for name, match in result.matches.items():
        print(f"  {name:8s} matches sequential: {match}")
    print(
        f"virtual time {result.elapsed * 1e3:.3f} ms on "
        f"{result.compiled.grid.size} processors; "
        f"{result.messages} messages, {result.fetches} fetches "
        f"({result.unexpected_fetches} unexpected)"
    )
    if tracer is not None:
        tracer.write(trace_path)
        print(f"wrote {len(tracer)} trace event(s) to {trace_path}")
    if metrics is not None:
        session.collect_metrics(metrics)
        metrics_path = getattr(args, "metrics_json", None)
        if metrics_path:
            metrics.write(metrics_path)
            print(f"wrote metrics to {metrics_path}")
        if getattr(args, "metrics", False):
            print()
            print("metrics:")
            print(metrics.render())
    stats_path = getattr(args, "stats_json", None)
    if stats_path:
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump(result.canonical_stats(), handle, indent=1, sort_keys=True)
            handle.write("\n")
    if getattr(args, "json", None):
        _emit_json(args, result.as_dict())
    return 0 if result.ok else 1


def cmd_tables(args) -> int:
    from .report.tables import table1_tomcatv, table2_dgefa, table3_appsp

    # One session for every table: its manager is shared across the
    # compiler variants of each cell row, so front-end analyses are
    # computed once per (program, procs).
    session = Session()
    manager = session.manager
    builders = {
        1: (lambda: table1_tomcatv(n=129, niter=3, procs=(1, 4, 16), manager=manager))
        if args.fast
        else (lambda: table1_tomcatv(manager=manager)),
        2: (lambda: table2_dgefa(n=300, procs=(4, 16), manager=manager))
        if args.fast
        else (lambda: table2_dgefa(manager=manager)),
        3: (lambda: table3_appsp(n=32, niter=2, procs=(4, 16), manager=manager))
        if args.fast
        else (lambda: table3_appsp(manager=manager)),
    }
    for number in args.table:
        print(builders[number]().render())
        print()
    if getattr(args, "timings", False):
        print("pipeline timings (all tables):")
        print(session.manager.metrics.render())
    return 0


def _parse_axis(spec: str):
    """``--axis FIELD=V1,V2,...`` -> (field, values) with values
    coerced to the CompilerOptions field's type (which validates the
    name and the values)."""
    field_name, sep, raw = spec.partition("=")
    field_name = field_name.strip()
    if not sep or not raw:
        raise ReproError(
            f"--axis expects FIELD=V1,V2,... got {spec!r}"
        )
    if field_name == "machine":
        raise ReproError(
            "--axis machine=... is not supported on the CLI; build a "
            "SweepSpec with MachineModel variants through repro.Session"
        )
    values = []
    for token in raw.split(","):
        token = token.strip()
        low = token.lower()
        if low in ("true", "false"):
            values.append(low == "true")
        else:
            try:
                values.append(int(token))
            except ValueError:
                values.append(token)
    return field_name, tuple(values)


def _build_spec(args, session) -> SweepSpec:
    """The sweep/jobs-submit grid from the parsed flags."""
    import os

    programs = {}
    for path in args.programs:
        name = os.path.basename(path) if path != "-" else "stdin"
        programs[name] = _read_source(path)
    axes = dict(_parse_axis(spec) for spec in (args.axis or []))
    try:
        for name, values in axes.items():
            for value in values:
                CompilerOptions.from_overrides(session.options, **{name: value})
        return SweepSpec(
            programs=programs,
            procs=tuple(args.procs) if args.procs else (None,),
            axes=axes,
            base=session.options,
            mode=args.measure,
            seed=args.seed,
        )
    except ValueError as error:  # an option value CompilerOptions refuses
        raise ReproError(str(error)) from None


def cmd_sweep(args) -> int:
    session = _session(args)
    spec = _build_spec(args, session)
    results = session.sweep(spec, workers=args.workers, mode=args.exec)
    return _render_sweep_results(args, results)


def _render_sweep_results(args, results) -> int:
    failed = [r for r in results if not r.ok]
    if args.json:
        _emit_json(args, [r.as_dict() for r in results])
        return 1 if failed else 0
    if args.measure == "estimate":
        print(f"{'label':40s} {'total':>12} {'compute':>12} {'comm':>12}")
        for r in results:
            if r.ok:
                print(f"{r.label:40s} {r.total_time:>11.4f}s "
                      f"{r.compute_time:>11.4f}s {r.comm_time:>11.4f}s")
    elif args.measure == "simulate":
        print(f"{'label':40s} {'elapsed':>12} {'msgs':>8} {'fetches':>9} "
              f"{'slab':>6} {'via':>18}")
        for r in results:
            if r.ok:
                print(f"{r.label:40s} {r.elapsed * 1e3:>9.3f} ms "
                      f"{r.messages:>8} {r.fetches:>9} "
                      f"{r.slab_coverage:>6.2f} {r.worker:>18}")
    else:
        for r in results:
            if r.ok:
                print(f"{r.label}: compiled ok "
                      f"(grid {r.grid_size}, via {r.worker})")
    for r in failed:
        last = r.error.strip().splitlines()[-1] if r.error else "unknown"
        print(f"{r.label}: FAILED: {last}", file=sys.stderr)
    dedups = sum(r.compile_dedup for r in results)
    batched = sum(r.worker == "batched" for r in results)
    fused = sum(r.procs_lanes > 1 for r in results)
    print(f"{len(results)} points ({batched} batched, {fused} procs-fused, "
          f"{dedups} compiles deduped), {len(failed)} failed")
    return 1 if failed else 0


def cmd_cache(args) -> int:
    import json

    from .core.diskcache import CompileCache

    cache = CompileCache(getattr(args, "cache_dir", None))
    if args.action == "stats":
        stats = cache.stats_dict()
        del stats["session"]  # a fresh process has no activity yet
        if getattr(args, "json", None) and args.json != "-":
            _emit_json(args, stats)
        else:
            print(json.dumps(stats, indent=1, sort_keys=True))
    else:  # clear
        removed = cache.clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.root}")
    return 0


def cmd_fuzz(args) -> int:
    from .fuzz import GenConfig, run_campaign

    config = GenConfig().scaled(args.scale) if args.scale != 1.0 else None
    report = run_campaign(
        seed=args.seed,
        count=args.count,
        config=config,
        sweep_every=args.sweep_every,
        artifact_dir=args.artifacts,
        shrink_steps=args.shrink_steps,
        verbose=args.verbose,
    )
    print(report.summary())
    if report.findings and args.artifacts:
        print(f"minimized reproducers written to {args.artifacts}/")
    return 0 if report.ok else 1


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    """The shared grid-definition surface of ``sweep`` and ``jobs
    submit``: programs, procs, option axes and what to measure."""
    parser.add_argument(
        "programs", nargs="+", help="mini-HPF source file(s)"
    )
    _add_option_flags(parser)
    parser.add_argument(
        "--procs", type=_PROCS, nargs="+", default=None,
        help="processor counts to sweep (default: each source's "
        "PROCESSORS directive)",
    )
    parser.add_argument(
        "--axis", action="append", metavar="FIELD=V1,V2",
        help="sweep a CompilerOptions field (repeatable), e.g. "
        "--axis strategy=selected,producer",
    )
    parser.add_argument(
        "--measure", choices=["estimate", "simulate", "compile"],
        default="simulate", dest="measure",
        help="what each grid point measures (default: simulate)",
    )
    parser.add_argument("--seed", type=_COUNT, default=0)
    _add_json_flag(
        parser,
        help="emit the full result records (shared repro.records "
        "schema); bare --json prints to stdout, --json OUT writes it",
    )


def cmd_serve(args) -> int:
    service = _service(args, lease_ttl=args.lease_ttl)
    try:
        processed = service.serve_forever(
            poll=args.poll,
            once=args.once,
            max_shards=args.max_shards,
            idle_timeout=args.idle_timeout,
            workers=args.workers,
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("interrupted; leases will expire", file=sys.stderr)
        return 130
    finally:
        service.close()
    print(f"served {processed} shard(s) from {service.root}")
    return 0


def cmd_jobs_submit(args) -> int:
    session = _session(args)
    spec = _build_spec(args, session)
    service = _service(args, cache=session.cache or None)
    handle = service.submit(spec, name=args.name or "", shards=args.shards)
    status = handle.poll()
    if not args.wait:
        if args.json:
            _emit_json(args, status.as_dict())
        else:
            print(
                f"submitted job {handle.job_id} ({status.n_points} points, "
                f"{status.n_shards} shards) to {service.root}; run 'repro "
                f"serve --service-dir {service.root}' to evaluate it"
            )
        service.close()
        return 0
    # --wait drains the queue from this process (inline worker) while
    # blocking for the result — handy for scripts and tests
    service.serve_forever(once=True)
    try:
        results = handle.result(timeout=args.timeout)
    except Exception as error:
        print(f"job {handle.job_id}: {error}", file=sys.stderr)
        service.close()
        return 1
    code = _render_sweep_results(args, results)
    service.close()
    return code


def cmd_jobs_status(args) -> int:
    service = _service(args)
    try:
        if args.job_id is not None:
            payload = [service.queue.status(args.job_id)]
        else:
            payload = service.queue.list_jobs()
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        service.close()
        return 1
    if args.json:
        records = [status.as_dict() for status in payload]
        _emit_json(args, records[0] if args.job_id is not None else records)
    else:
        print(f"{'id':>4} {'state':>10} {'points':>12} {'reused':>7} "
              f"{'shards':>8} name")
        for status in payload:
            print(
                f"{status.job_id:>4} {status.state:>10} "
                f"{status.done:>5}/{status.n_points:<6} "
                f"{status.reused:>7} "
                f"{status.shards_done:>3}/{status.n_shards:<4} "
                f"{status.name}"
            )
    service.close()
    return 0


def cmd_jobs_watch(args) -> int:
    service = _service(args)
    try:
        handle = service.handle(args.job_id)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        service.close()
        return 1
    last_kind = None
    for event in handle.stream_events(timeout=args.timeout):
        print(event.render())
        last_kind = event.kind
    service.close()
    if last_kind == "done":
        return 0
    if last_kind in ("failed", "cancelled"):
        return 1
    print(f"job {args.job_id} still running after {args.timeout}s",
          file=sys.stderr)
    return 2


def cmd_jobs_cancel(args) -> int:
    service = _service(args)
    cancelled = service.queue.cancel(args.job_id)
    if cancelled:
        print(f"cancelled job {args.job_id}")
    else:
        print(f"job {args.job_id} is already terminal (or unknown)",
              file=sys.stderr)
    service.close()
    return 0 if cancelled else 1


def cmd_catalog(args) -> int:
    service = _service(args)
    catalog = service.catalog
    code = 0
    if args.action == "ls":
        rows = catalog.ls(args.kind)
        if args.json:
            _emit_json(args, {"stats": catalog.stats_dict(), "rows": rows})
        else:
            for row in rows:
                key = row.get("key") or row.get("point_key")
                tag = row["table"]
                use = row.get("uses", row.get("reuses", ""))
                print(f"{tag:>12}  {str(key)[:20]:20s}  "
                      f"{row.get('program', ''):12s}  uses={use}")
            stats = catalog.stats_dict()
            print(f"{stats['artifacts']['entries']} artifact(s), "
                  f"{stats['results']['entries']} result(s)")
    elif args.action == "show":
        try:
            record = catalog.show(args.key)
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            service.close()
            return 1
        if args.json:
            _emit_json(args, record)
        else:
            for name, value in record.items():
                if name == "record":
                    continue
                print(f"{name:20s} {value}")
            if "record" in record:
                print("record:")
                import json as _json

                print(_json.dumps(record["record"], indent=1, sort_keys=True))
    else:  # gc
        removed = catalog.gc(
            max_age_days=args.max_age_days, dry_run=args.dry_run
        )
        verb = "would remove" if args.dry_run else "removed"
        if args.json:
            _emit_json(args, {"dry_run": args.dry_run, **removed})
        else:
            print(f"{verb} {removed['orphans']} orphan(s), "
                  f"{removed['aged_artifacts']} aged artifact(s), "
                  f"{removed['aged_results']} aged result(s), "
                  f"{removed['jobs']} finished job(s)")
    service.close()
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description=(
            "Reproduction of Gupta, 'On Privatization of Variables for "
            "Data-Parallel Execution' (IPPS 1997)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile and print the mapping report")
    _add_compile_flags(p_compile)
    p_compile.add_argument("--procs", type=_PROCS, default=None)
    p_compile.add_argument(
        "--spmd", action="store_true", help="also print SPMD pseudo-code"
    )
    p_compile.add_argument(
        "--explain", action="store_true", help="print compiler diagnostics"
    )
    p_compile.set_defaults(func=cmd_compile)

    p_profile = sub.add_parser(
        "profile", help="per-statement cost breakdown (analytic model)"
    )
    _add_compile_flags(p_profile)
    p_profile.add_argument("--procs", type=_PROCS, default=16)
    p_profile.add_argument("--top", type=_COUNT, default=10)
    p_profile.set_defaults(func=cmd_profile)

    p_estimate = sub.add_parser("estimate", help="analytic performance sweep")
    _add_compile_flags(p_estimate)
    p_estimate.add_argument(
        "--procs", type=_PROCS, nargs="+", default=[1, 2, 4, 8, 16]
    )
    p_estimate.set_defaults(func=cmd_estimate)

    p_run = sub.add_parser("run", help="simulate and validate against sequential")
    _add_compile_flags(p_run)
    p_run.add_argument("--procs", type=_PROCS, default=None)
    p_run.add_argument("--seed", type=_COUNT, default=0)
    p_run.add_argument(
        "--tier",
        choices=TIERS,
        default="auto",
        help="execution engine: 'auto' picks slab per nest from its "
        "priced slab plan; the others force one tier everywhere",
    )
    p_run.add_argument(
        "--trace", type=_trace_path, default=None, metavar="OUT.json",
        help="write a Chrome trace_event JSON file of the run",
    )
    p_run.add_argument(
        "--metrics", action="store_true",
        help="collect and print the repro.obs metrics registry",
    )
    p_run.add_argument(
        "--metrics-json", metavar="OUT.json", default=None,
        help="write the collected metrics as flat JSON",
    )
    p_run.add_argument(
        "--stats-json", metavar="OUT.json", default=None,
        help="write canonical clocks + traffic stats JSON "
        "(the CI determinism gate diffs two of these)",
    )
    _add_json_flag(
        p_run,
        help="write the full run record (shared repro.records schema); "
        "bare --json prints to stdout",
    )
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep",
        help="run an experiment grid (programs x procs x option axes)",
    )
    _add_grid_flags(p_sweep)
    p_sweep.add_argument(
        "--exec", choices=["auto", "pool"], default="auto",
        help="execution strategy: auto fuses points differing only in "
        "machine parameters or processor count into one vectorized "
        "evaluation, pool runs every point on its own (default: auto)",
    )
    p_sweep.add_argument(
        "--workers", type=_COUNT, default=None,
        help="pool size for points run on their own (0: serial "
        "in-process)",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_cache = sub.add_parser(
        "cache", help="manage the persistent compile cache"
    )
    p_cache.add_argument("action", choices=["stats", "clear"])
    p_cache.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="cache root (default: ~/.cache/repro or $REPRO_CACHE_DIR)",
    )
    _add_json_flag(p_cache)
    p_cache.set_defaults(func=cmd_cache)

    p_tables = sub.add_parser("tables", help="regenerate the paper's tables")
    p_tables.add_argument("--table", type=int, nargs="+", default=[1, 2, 3],
                          choices=[1, 2, 3])
    p_tables.add_argument("--fast", action="store_true")
    p_tables.add_argument(
        "--timings",
        action="store_true",
        help="print the aggregated per-pass pipeline timings table",
    )
    p_tables.set_defaults(func=cmd_tables)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential tier-parity fuzzing over random programs",
    )
    p_fuzz.add_argument("--seed", type=_COUNT, default=0,
                        help="campaign seed (program k draws seed*1e6+k)")
    p_fuzz.add_argument("--count", type=_COUNT, default=150,
                        help="programs to generate and check")
    p_fuzz.add_argument(
        "--sweep-every", type=int, default=25, metavar="K",
        help="add the pool-vs-batched sweep lens to every Kth "
             "program (0 disables the sweep lens)",
    )
    p_fuzz.add_argument(
        "--scale", type=_SCALE, default=1.0,
        help="scale generated program size (nests, bodies) by this factor",
    )
    p_fuzz.add_argument(
        "--shrink-steps", type=int, default=400,
        help="predicate-call budget per minimization",
    )
    p_fuzz.add_argument(
        "--artifacts", metavar="DIR", default=None,
        help="write minimized reproducers + findings.json here on failure",
    )
    p_fuzz.add_argument("--verbose", action="store_true")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_serve = sub.add_parser(
        "serve",
        help="run a sweep-service worker loop against the durable queue",
    )
    _add_service_flags(p_serve)
    p_serve.add_argument(
        "--workers", type=_PROCS, default=1, metavar="N",
        help="claim loops to run: 1 (default) serves in this process, "
        "N > 1 supervises N child processes serving the same directory",
    )
    p_serve.add_argument(
        "--once", action="store_true",
        help="drain the queue and exit instead of waiting for new work",
    )
    p_serve.add_argument(
        "--poll", type=_SCALE, default=0.2,
        help="idle polling interval in seconds (default: 0.2)",
    )
    p_serve.add_argument(
        "--idle-timeout", type=_SCALE, default=None, metavar="S",
        help="exit after S seconds with nothing claimable",
    )
    p_serve.add_argument(
        "--max-shards", type=_COUNT, default=None, metavar="N",
        help="exit after processing N shards",
    )
    p_serve.add_argument(
        "--lease-ttl", type=_SCALE, default=60.0, metavar="S",
        help="shard lease duration in seconds (default: 60)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_jobs = sub.add_parser(
        "jobs", help="submit and track durable sweep jobs"
    )
    jobs_sub = p_jobs.add_subparsers(dest="jobs_command", required=True)

    p_submit = jobs_sub.add_parser(
        "submit", help="persist an experiment grid as a durable job"
    )
    _add_grid_flags(p_submit)
    _add_service_flags(p_submit)
    p_submit.add_argument(
        "--name", default=None, help="human-readable job name"
    )
    p_submit.add_argument(
        "--shards", type=_PROCS, default=None, metavar="N",
        help="partition the grid into N shards (default: one per "
        "fusion group)",
    )
    p_submit.add_argument(
        "--wait", action="store_true",
        help="evaluate the job in this process and print the results "
        "(like 'repro sweep', but through the durable queue + catalog)",
    )
    p_submit.add_argument(
        "--timeout", type=_SCALE, default=None, metavar="S",
        help="with --wait: give up after S seconds",
    )
    p_submit.set_defaults(func=cmd_jobs_submit)

    p_status = jobs_sub.add_parser(
        "status", help="one job's progress, or every job in the queue"
    )
    p_status.add_argument("job_id", type=int, nargs="?", default=None)
    _add_service_flags(p_status)
    _add_json_flag(p_status)
    p_status.set_defaults(func=cmd_jobs_status)

    p_watch = jobs_sub.add_parser(
        "watch", help="tail a job's event log until it finishes"
    )
    p_watch.add_argument("job_id", type=int)
    p_watch.add_argument(
        "--timeout", type=_SCALE, default=None, metavar="S",
        help="stop tailing after S seconds (exit code 2)",
    )
    _add_service_flags(p_watch)
    p_watch.set_defaults(func=cmd_jobs_watch)

    p_cancel = jobs_sub.add_parser("cancel", help="cancel a job")
    p_cancel.add_argument("job_id", type=int)
    _add_service_flags(p_cancel)
    p_cancel.set_defaults(func=cmd_jobs_cancel)

    p_catalog = sub.add_parser(
        "catalog", help="inspect the service's artifact catalog"
    )
    catalog_sub = p_catalog.add_subparsers(
        dest="catalog_command", required=True
    )

    p_ls = catalog_sub.add_parser(
        "ls", help="list catalogued artifacts and results"
    )
    p_ls.add_argument(
        "--kind", choices=["all", "artifacts", "results"], default="all",
    )
    _add_service_flags(p_ls)
    _add_json_flag(p_ls)
    p_ls.set_defaults(func=cmd_catalog, action="ls")

    p_show = catalog_sub.add_parser(
        "show", help="full detail of one entry (key prefix match)"
    )
    p_show.add_argument("key")
    _add_service_flags(p_show)
    _add_json_flag(p_show)
    p_show.set_defaults(func=cmd_catalog, action="show")

    p_gc = catalog_sub.add_parser(
        "gc", help="drop orphaned and aged catalog entries and old jobs"
    )
    p_gc.add_argument(
        "--max-age-days", type=_AGE, default=None, metavar="DAYS",
        help="also drop entries unused for DAYS (and their cache files) "
        "and queue jobs that finished more than DAYS ago",
    )
    p_gc.add_argument("--dry-run", action="store_true")
    _add_service_flags(p_gc)
    _add_json_flag(p_gc)
    p_gc.set_defaults(func=cmd_catalog, action="gc")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        # a user error — an option value, an unreadable or invalid
        # program — is argparse's one line, not a traceback
        words = [args.command, getattr(args, f"{args.command}_command", None)]
        prog = " ".join(["repro", *filter(None, words)])
        parser.exit(2, f"{prog}: error: {error}\n")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
