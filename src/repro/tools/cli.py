"""Argument parsing and dispatch for ``python -m repro.tools``."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

__all__ = ["main"]


def _host_metadata() -> dict:
    """Host facts a recorded speed carries (``calibrate --out``).

    A nodes/s number is meaningless without knowing what produced it —
    core count and library versions.
    """
    import platform

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _took(seconds: float, simulated: bool) -> str:
    """A run's elapsed time; a simulated run's is modelled cluster time."""
    return f"{seconds:.1f} s{' simulated' if simulated else ''}"


def _simulate_spec(args: argparse.Namespace):
    """The :class:`~repro.distrib.ProblemSpec` of ``repro simulate`` and
    ``repro submit``."""
    from ..distrib.spec import ProblemSpec

    shape = tuple(args.shape)
    ndim = len(shape)
    if args.problem == "flue_pipe":
        # the jet drives the flow: no body force, no periodic axis
        geometry = {"kind": "flue_pipe", "jet_speed": args.jet}
        periodic = (False,) * ndim
        gravity = (0.0,) * ndim
    else:  # channel / cylinder: periodic along x, driven by a body force
        geometry = {"kind": args.problem}
        periodic = (True,) + (False,) * (ndim - 1)
        gravity = (args.force,) + (0.0,) * (ndim - 1)
    return ProblemSpec(
        method=args.method,
        grid_shape=shape,
        blocks=tuple(args.blocks),
        periodic=periodic,
        params={"nu": args.nu, "gravity": gravity,
                "filter_eps": args.filter_eps},
        geometry=geometry,
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = _simulate_spec(args)
    solid, _, _ = spec.build_geometry()
    sim = spec.build_simulation()
    print(
        f"{args.problem} {spec.grid_shape}, {args.method.upper()}, "
        f"decomposition {'x'.join(map(str, args.blocks))} "
        f"({sim.decomp.n_active} active)"
    )
    chunk = max(args.steps // 10, 1)
    done = 0
    while done < args.steps:
        n = min(chunk, args.steps - done)
        sim.step(n)
        done += n
        u = sim.global_field("u")
        print(f"  step {sim.step_count:6d}   max|u| = {np.abs(u).max():.5f}")
    out = Path(args.out)
    np.savez_compressed(out, solid=solid, **sim.global_state())
    print(f"fields written to {out}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from ..cluster import ClusterSimulation, NetworkParams
    from ..harness import format_table

    blocks = tuple(args.blocks)
    sim = ClusterSimulation(
        args.method,
        len(blocks),
        blocks,
        args.side,
        network=NetworkParams(preset=args.network)
        if args.network
        else NetworkParams(),
        sync_mode=args.sync,
    )
    res = sim.run(steps=args.steps, monitor_poll=args.monitor_poll)
    rows = [
        ["processors", res.processors],
        ["nodes/processor", res.nodes_per_proc],
        ["time/step (simulated)", f"{res.time_per_step:.4f} s"],
        ["T_1 (one 715/50)", f"{res.serial_time_per_step:.4f} s"],
        ["speedup", f"{res.speedup:.2f}"],
        ["efficiency", f"{res.efficiency:.3f}"],
        ["bus utilization", f"{res.bus.utilization(res.elapsed):.3f}"],
        ["network errors", res.bus.network_errors],
        ["migrations", len(res.migrations)],
    ]
    print(format_table(["quantity", "value"], rows,
                       title="simulated distributed run (§7 protocol)"))
    return 0


def _cmd_image(args: argparse.Namespace) -> int:
    from ..fluids import vorticity_2d
    from ..viz import field_to_ppm

    data = np.load(args.npz)
    solid = data["solid"].astype(bool) if "solid" in data.files else None
    if args.field == "vorticity" and "vorticity" not in data.files:
        field = vorticity_2d(data["u"], data["v"])
    else:
        field = data[args.field]
    if field.ndim == 3:  # 3D run: take the requested x-slice
        field = field[args.slice]
        solid = solid[args.slice] if solid is not None else None
    out = args.out or f"{Path(args.npz).stem}_{args.field}.ppm"
    field_to_ppm(field, out, solid=solid)
    print(f"wrote {out} ({field.shape[0]}x{field.shape[1]})")
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    from ..fluids import dominant_frequency, spectrum

    data = np.load(args.npz)
    if args.key not in data.files:
        print(f"no array {args.key!r} in {args.npz}; "
              f"available: {', '.join(data.files)}")
        return 1
    signal = data[args.key]
    f = dominant_frequency(signal, dt=args.dt)
    freqs, amp = spectrum(signal, dt=args.dt)
    order = np.argsort(amp[1:])[::-1][:5] + 1
    print(f"samples: {len(signal)}, swing: "
          f"{signal.max() - signal.min():.3e}")
    print(f"dominant frequency: {f:.6f} cycles per time unit")
    print("strongest lines:")
    for k in order:
        print(f"  f = {freqs[k]:.6f}   amplitude = {amp[k]:.3e}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Print the §7 T_comp/T_comm table for a traced run."""
    from ..trace import format_breakdown_table, summarize, write_chrome_trace

    where = args.run[0] if len(args.run) == 1 else args.run
    try:
        summary = summarize(where)
    except FileNotFoundError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 1
    print(format_breakdown_table(summary))
    dropped = sum(r.dropped_spans for r in summary.ranks)
    if dropped:
        print(f"warning: {dropped} spans dropped (trace buffer full); "
              f"the table underestimates the traced time")
    if args.chrome:
        path = write_chrome_trace(where, args.chrome)
        print(f"chrome trace written to {path} "
              f"(load in Perfetto / chrome://tracing)")
    return 0


def _chaos_rows(outcomes) -> list[list]:
    """Result-table rows of ``repro chaos``."""
    rows = []
    for o in outcomes:
        rows.append([
            o.scenario, o.seed,
            o.outcome + ("" if o.passed else " <- FAIL"),
            o.restarts, o.migrations,
            f"{o.elapsed:.1f} s",
            f"{o.steps_per_second:.1f}",
        ])
    return rows


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Build, inspect, or execute one seeded fault plan."""
    import json
    from dataclasses import asdict

    from ..chaos import SCENARIOS, FaultPlan, run_scenario
    from ..harness import format_table

    if args.list:
        for name in sorted(SCENARIOS + ("random",)):
            print(name)
        return 0
    if args.scenario is None:
        print("chaos: a scenario is required (or --list)", file=sys.stderr)
        return 2

    plan = None
    if args.plan:
        plan = FaultPlan.from_json(Path(args.plan).read_text())
    elif args.scenario == "random":
        # a seeded mixed plan off the full fault menu (the nightly
        # chaos soak runs several of these)
        plan = FaultPlan.generate(
            args.seed, args.ranks, args.steps, args.save_every,
            n_faults=args.faults,
        )
    elif args.scenario != "none":
        plan = FaultPlan.scenario(
            args.scenario, args.seed, args.ranks, args.steps,
            args.save_every,
        )
    if args.print_plan:
        print(plan.to_json() if plan else "{}")
        return 0

    workdir = Path(args.workdir or f"chaos_{args.scenario}_s{args.seed}")
    outcome = run_scenario(
        args.scenario, args.seed, workdir,
        steps=args.steps, save_every=args.save_every, plan=plan,
    )
    print(format_table(
        ["scenario", "seed", "outcome", "restarts", "migrations",
         "elapsed", "steps/s"],
        _chaos_rows([outcome]),
        title=f"chaos run in {workdir}",
    ))
    if outcome.detail:
        print(f"detail: {outcome.detail}")
    if args.json:
        Path(args.json).write_text(
            json.dumps(asdict(outcome), indent=1) + "\n"
        )
        print(f"outcome written to {args.json}")
    return 0 if outcome.passed else 1


def _cmd_scenarios(args: argparse.Namespace) -> int:
    """Browse the scenario registry, or run + score one case."""
    import json

    from .. import scenarios as sc
    from ..harness import format_table

    if args.action == "list":
        rows = [
            [s.name, s.version, " ".join(s.params), s.title]
            for s in sc.all_scenarios()
        ]
        print(format_table(
            ["scenario", "ver", "params", "title"], rows,
            title=f"{len(rows)} registered scenarios",
        ))
        return 0
    if not args.name:
        print(f"scenarios: {args.action} needs a scenario name",
              file=sys.stderr)
        return 2
    try:
        scenario = sc.get(args.name)
    except KeyError as exc:
        print(f"scenarios: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.action == "show":
        print(json.dumps(scenario.describe(), indent=2))
        return 0

    # run: one case on a local backend, scored
    try:
        overrides = {}
        for name, values in sc.parse_grid(args.set).items():
            if len(values) != 1:
                raise ValueError(
                    f"--set {name} takes one value (use `repro sweep` "
                    f"for grids)"
                )
            overrides[name] = values[0]
        params = scenario.resolve(**overrides)
        case = scenario.case(**overrides)
    except ValueError as exc:
        print(f"scenarios: {exc}", file=sys.stderr)
        return 2
    print(f"running {scenario.name} {params} "
          f"({'x'.join(map(str, case.spec.grid_shape))}, "
          f"{case.settings.get('steps')} steps, {args.backend})")
    result = sc.run_case(case, backend=args.backend)
    score = scenario.score(result, **overrides)
    rows = [
        [name, f"{value:.4g}",
         f"<= {score.bounds[name]:g}" if name in score.bounds else "",
         "" if name not in score.bounds
         else ("ok" if not any(f.startswith(f"{name}:")
                               for f in score.failures) else "FAIL")]
        for name, value in score.residuals.items()
    ]
    print(format_table(
        ["residual", "value", "bound", ""], rows,
        title=f"{scenario.name}: "
              f"{'pass' if score.passed else 'FAIL'} "
              f"({_took(result.elapsed, result.sim is not None)})",
    ))
    for failure in score.failures:
        print(f"  failed: {failure}")
    if score.details:
        print(f"details: {json.dumps(score.details, default=str)}")
    if args.out:
        if result.fields is None:
            print(f"scenarios: the {result.backend} backend returns no "
                  f"fields to write to {args.out}", file=sys.stderr)
            return 2
        np.savez_compressed(args.out, **result.fields)
        print(f"fields written to {args.out}")
    return 0 if score.passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Expand a parameter grid over one scenario and score every point."""
    from .. import scenarios as sc
    from ..harness import format_table

    try:
        scenario = sc.get(args.scenario)
        grid = sc.parse_grid(args.grid)
    except (KeyError, ValueError) as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"sweep: {msg}", file=sys.stderr)
        return 2
    client = None
    if args.address or args.serve_dir:
        client = _serve_client("sweep", args.address or args.serve_dir)
        if client is None:
            return 2
    out_dir = Path(args.out or Path("sweeps") / scenario.name)
    try:
        points = sc.run_sweep(
            scenario, grid,
            backend=args.backend,
            server=client,
            out_dir=out_dir,
            resume=not args.no_resume,
            timeout=args.timeout,
            log=print,
        )
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    md = sc.write_report(points, out_dir, scenario)
    # the service refuses simulated runs, so only a local sweep has them
    simulated = client is None and args.backend == "simulated"
    rows = [
        [", ".join(f"{k}={v}" for k, v in p.params.items()) or "-",
         ("pass" if p.passed else "FAIL") if p.state == "done"
         else p.state,
         "cached" if p.cached else _took(p.elapsed, simulated),
         f"{p.nodes_per_sec:.3g}" if p.nodes_per_sec else "-"]
        for p in points
    ]
    n_pass = sum(1 for p in points if p.passed)
    print(format_table(
        ["params", "score", "elapsed", "nodes/s"], rows,
        title=f"sweep {scenario.name}: {n_pass}/{len(points)} passed"
              f"{f' (via {client.host}:{client.port})' if client else ''}",
    ))
    print(f"report written to {md}")
    return 0 if n_pass == len(points) else 1


def _cmd_calibrate(args: argparse.Namespace) -> int:
    """Measure this host's kernel speed in fluid nodes/s (§7)."""
    import json

    from ..cluster.calibration import host_node_speed

    speed = host_node_speed(
        method=args.method, ndim=args.ndim, side=args.side,
        steps=args.steps, repeats=args.repeats,
    )
    print(f"{args.method.upper()} {args.ndim}D, {args.side}^{args.ndim}, "
          f"{args.steps}-step windows, best of {args.repeats}: "
          f"{speed:,.0f} fluid nodes/s")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"host": _host_metadata(), "method": args.method,
             "ndim": args.ndim, "side": args.side,
             "nodes_per_second": speed}, indent=1) + "\n")
        print(f"calibration written to {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the simulation-as-a-service gateway and serve until ^C."""
    import asyncio

    from ..serve import Gateway

    gw = Gateway(
        args.dir, host=args.host, port=args.port, workers=args.workers,
    )

    async def _serve() -> None:
        import signal

        await gw.start()
        print(f"gateway listening on {gw.address} "
              f"(serve dir {gw.serve_dir}, {gw.pool.n_workers} workers)")
        stop = asyncio.Event()
        # a SIGTERM'd gateway drains its worker pool: each worker
        # commits its current job before it exits
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, stop.set
        )
        try:
            await stop.wait()
        finally:
            await gw.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\ngateway stopped")
    return 0


def _serve_client(command: str, address: str, **kwargs):
    """A client of the gateway at ``address`` (``host:port`` or a serve
    directory), or ``None`` once the command has printed discover's
    one-line message because no gateway is running there (exit 2)."""
    from ..serve import ServeClient

    try:
        return ServeClient(address, **kwargs)
    except RuntimeError as exc:  # no running gateway to discover
        print(f"{command}: {exc}", file=sys.stderr)
        return None


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit one spec to a running gateway (optionally wait/stream)."""
    from ..distrib.spec import ProblemSpec

    client = _serve_client("submit", args.address or args.dir,
                           timeout=args.timeout)
    if client is None:
        return 2
    spec = ProblemSpec.load(args.spec) if args.spec else _simulate_spec(args)
    rec = client.submit(
        spec,
        settings={"steps": args.steps, "diag_every": args.diag_every},
        seed=args.seed,
        priority=args.priority,
        backend=args.backend,
    )
    print(f"job {rec['job_id']}  state={rec['state']}"
          f"{'  (cache hit)' if rec.get('cached') else ''}")
    if args.stream:
        for event in client.stream(rec["job_id"]):
            if event.get("event") == "diagnostics":
                d = event["record"]
                print(f"  step {d.get('step', '?'):>6}  "
                      f"max|V| = {d.get('max_speed', 0.0):.5f}")
            else:
                print(f"  end: state={event.get('state')} "
                      f"cached={event.get('cached')} "
                      f"elapsed={event.get('elapsed', 0.0):.2f}s")
        rec = client.job(rec["job_id"])
    elif args.wait:
        rec = client.wait(rec["job_id"], timeout=args.timeout)
        print(f"job {rec['job_id']}  state={rec['state']}  "
              f"elapsed={rec.get('elapsed') or 0.0:.2f}s"
              f"{'  (cache hit)' if rec.get('cached') else ''}")
    if rec["state"] == "failed":
        print(f"error: {rec.get('error')}", file=sys.stderr)
        return 1
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    """List every job the gateway knows, newest first."""
    from ..harness import format_table

    client = _serve_client("jobs", args.address or args.dir)
    if client is None:
        return 2
    if args.gc:
        stats = client.gc()
        print(f"history compacted: {stats['events_before']} -> "
              f"{stats['events_after']} events, "
              f"{stats['bytes_before']} -> {stats['bytes_after']} bytes")
        return 0
    rows = [
        [j["job_id"], j["state"], j["backend"], j["priority"],
         "yes" if j.get("cached") else "",
         f"{j.get('elapsed') or 0.0:.2f} s",
         j.get("error") or ""]
        for j in client.jobs()
    ]
    print(format_table(
        ["job", "state", "backend", "pri", "cached", "elapsed", "error"],
        rows, title=f"jobs at {client.host}:{client.port}",
    ))
    return 0


def _cmd_result(args: argparse.Namespace) -> int:
    """Print one job's result payload (and optionally save its fields)."""
    import json

    client = _serve_client("result", args.address or args.dir)
    if client is None:
        return 2
    payload = client.result(args.job_id)
    print(json.dumps(payload, indent=2, default=str))
    if args.fields_out:
        fields = client.fields(args.job_id)
        np.savez_compressed(args.fields_out, **fields)
        print(f"fields written to {args.fields_out}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """The live cluster view (workers, queue, cache, recent jobs)."""
    from ..serve import watch

    client = _serve_client("top", args.address or args.dir)
    if client is None:
        return 2
    watch(client, interval=args.interval, iterations=args.iterations)
    return 0


def _problem_args(p: argparse.ArgumentParser, *, shape, blocks,
                  steps) -> None:
    """The problem options ``simulate`` and ``submit`` share; each
    command keeps its own grid, decomposition and step defaults."""
    p.add_argument("--method", choices=("lb", "fd"), default="lb")
    p.add_argument("--shape", type=int, nargs="+", default=shape)
    p.add_argument("--blocks", type=int, nargs="+", default=blocks)
    p.add_argument("--steps", type=int, default=steps)
    p.add_argument("--nu", type=float, default=0.05)
    p.add_argument("--force", type=float, default=1e-5)
    p.add_argument("--jet", type=float, default=0.08)
    p.add_argument("--filter-eps", type=float, default=0.02)


def _parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools",
        description=__doc__,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a named flow problem")
    p.add_argument("problem", choices=("channel", "flue_pipe", "cylinder"))
    _problem_args(p, shape=(96, 64), blocks=(2, 2), steps=200)
    p.add_argument("--out", default="simulation.npz")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("cluster", help="simulated 1994-cluster run")
    p.add_argument("--method", choices=("lb", "fd"), default="lb")
    p.add_argument("--blocks", type=int, nargs="+", default=(5, 4))
    p.add_argument("--side", type=int, default=150)
    p.add_argument("--steps", type=int, default=30)
    p.add_argument("--network",
                   choices=("ethernet10", "switched10", "fddi100",
                            "atm155"),
                   default=None)
    p.add_argument("--sync", choices=("bsp", "loose"), default="bsp")
    p.add_argument("--monitor-poll", type=float, default=0.0)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("image", help="render a saved field as PPM")
    p.add_argument("npz", help="npz file from simulate / an example")
    p.add_argument("--field", default="vorticity")
    p.add_argument("--slice", type=int, default=0,
                   help="x-slice for 3D fields")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_image)

    p = sub.add_parser("probe", help="spectrum of a saved probe signal")
    p.add_argument("npz")
    p.add_argument("--key", default="mouth_probe")
    p.add_argument("--dt", type=float, default=1.0,
                   help="steps between samples")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("calibrate",
                       help="measure this host's kernel speed "
                            "(fluid nodes/s)")
    p.add_argument("--method", choices=("lb", "fd"), default="lb")
    p.add_argument("--ndim", type=int, default=2, choices=(2, 3))
    p.add_argument("--side", type=int, default=48,
                   help="periodic problem side (default: 48)")
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--repeats", type=int, default=2)
    p.add_argument("--out", default=None,
                   help="write the measured speed as JSON here")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("chaos",
                       help="run one seeded fault-injection scenario")
    p.add_argument("scenario", nargs="?", default=None,
                   help="scenario name (see --list), 'random' for a "
                        "seeded mixed plan off the full fault menu, or "
                        "'none' for a fault-free run")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--faults", type=int, default=2,
                   help="fault count for the 'random' scenario "
                        "(default: 2)")
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--save-every", type=int, default=10)
    p.add_argument("--ranks", type=int, default=2,
                   help="rank count the generated plan targets "
                        "(default: 2, the runner's 2x1 decomposition)")
    p.add_argument("--plan", default=None,
                   help="run this fault-plan JSON file instead of the "
                        "scenario's generated plan")
    p.add_argument("--print-plan", action="store_true",
                   help="print the plan JSON and exit without running")
    p.add_argument("--list", action="store_true",
                   help="list the known scenarios and exit")
    p.add_argument("--workdir", default=None,
                   help="run directory (default: chaos_<scenario>_s<seed>)")
    p.add_argument("--json", default=None,
                   help="also write the classified outcome as JSON here")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("scenarios",
                       help="browse the scenario registry or run one "
                            "scored case")
    p.add_argument("action", choices=("list", "show", "run"),
                   nargs="?", default="list")
    p.add_argument("name", nargs="?", default=None,
                   help="scenario name (for show/run)")
    p.add_argument("--set", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="parameter override, repeatable (run only)")
    p.add_argument("--backend", default="serial",
                   help="local executor: serial, threaded, "
                        "distributed or simulated (default: serial)")
    p.add_argument("--out", default=None,
                   help="save the final fields as .npz here (run only)")
    p.set_defaults(func=_cmd_scenarios)

    p = sub.add_parser("sweep",
                       help="march a scenario over a parameter grid "
                            "and score every point")
    p.add_argument("--scenario", required=True,
                   help="registry name (see `repro scenarios list`)")
    p.add_argument("--grid", action="append", default=[],
                   metavar="NAME=V1,V2,...",
                   help="one grid axis, repeatable; omitted parameters "
                        "take their defaults")
    p.add_argument("--backend", default="serial",
                   help="local executor: serial, threaded, "
                        "distributed or simulated (default: serial)")
    p.add_argument("--address", default=None,
                   help="gateway host:port — fan the grid through the "
                        "cluster service instead of running locally")
    p.add_argument("--serve-dir", default=None,
                   help="discover the gateway from this serve "
                        "directory (overridden by --address); exits 2 "
                        "if no gateway is running there")
    p.add_argument("--out", default=None,
                   help="sweep directory: manifest, summary.json, "
                        "summary.md (default: sweeps/<scenario>)")
    p.add_argument("--no-resume", action="store_true",
                   help="recompute points the manifest already settles")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="per-job wait limit on the service executor "
                        "(default: 600 s)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("trace",
                       help="§7 T_comp/T_comm breakdown of a traced run")
    p.add_argument("run", nargs="+",
                   help="run workdir, trace/ directory, or "
                        "trace-*.jsonl files")
    p.add_argument("--chrome", default=None,
                   help="also write the merged Chrome trace-event JSON "
                        "here (loads in Perfetto)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("serve",
                       help="run the simulation-as-a-service gateway")
    p.add_argument("--dir", default="serve",
                   help="serve directory: queue, cache, history, "
                        "artifacts (default: serve/)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: loopback; the gateway "
                        "is unauthenticated — widen it only behind an "
                        "authenticating proxy)")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default: 0 = pick a free one; "
                        "clients discover the bound address from "
                        "--dir)")
    p.add_argument("--workers", type=int, default=2,
                   help="pool worker processes (default: 2)")
    p.set_defaults(func=_cmd_serve)

    def _client_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dir", default="serve",
                       help="serve directory to discover the gateway "
                            "from (default: serve/)")
        p.add_argument("--address", default=None,
                       help="gateway host:port (overrides --dir)")

    p = sub.add_parser("submit",
                       help="submit a problem to a running gateway")
    _client_args(p)
    p.add_argument("--spec", default=None,
                   help="ProblemSpec JSON file (overrides --problem)")
    p.add_argument("--problem", choices=("channel", "flue_pipe"),
                   default="channel")
    _problem_args(p, shape=(64, 64), blocks=(1, 1), steps=100)
    p.add_argument("--diag-every", type=int, default=10,
                   help="diagnostics period (streamed live; default: 10)")
    p.add_argument("--seed", type=int, default=0,
                   help="initial-condition seed: 0 starts from rest, a "
                        "nonzero seed adds a reproducible random "
                        "density perturbation (each seed is its own "
                        "cache key)")
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs first (default: 0)")
    p.add_argument("--backend", default=None,
                   help="force serial/threaded/distributed (default: "
                        "the scheduler picks by problem size)")
    p.add_argument("--wait", action="store_true",
                   help="block until the job is terminal")
    p.add_argument("--stream", action="store_true",
                   help="follow the live diagnostics stream")
    p.add_argument("--timeout", type=float, default=600.0)
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("jobs", help="list a gateway's jobs")
    _client_args(p)
    p.add_argument("--gc", action="store_true",
                   help="compact the gateway's job history instead of "
                        "listing (keeps the last event per job)")
    p.set_defaults(func=_cmd_jobs)

    p = sub.add_parser("result",
                       help="fetch one job's result payload")
    _client_args(p)
    p.add_argument("job_id")
    p.add_argument("--fields-out", default=None,
                   help="also download the final fields as .npz here")
    p.set_defaults(func=_cmd_result)

    p = sub.add_parser("top",
                       help="live cluster view of a running gateway")
    _client_args(p)
    p.add_argument("--interval", type=float, default=1.0)
    p.add_argument("--iterations", type=int, default=None,
                   help="refresh this many times then exit "
                        "(default: until ^C)")
    p.set_defaults(func=_cmd_top)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to a subcommand; returns the exit code."""
    args = _parser().parse_args(argv)
    return args.func(args)
