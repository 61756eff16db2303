"""Run the benchmark.

One measured run of one workload (what ``BENCHMARK.json``'s command does)::

    python3 bench/run.py --workload fd2d_serial --seed 1 --seconds 10 --trace 0

prints, as the last line of stdout, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.

Without ``--trace`` it runs every workload (or the one named), untraced
then traced, each in a fresh interpreter, prints every metric by name
with its unit, and writes the result set with its manifest to ``--out``::

    PYTHONPATH=src python -m bench.run --seed 1 --out bench/results/run-a.json
    PYTHONPATH=src python -m bench.run --seed 1 --quick        # smoke, < 40 s
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import ROOT  # noqa: E402  (also makes src/ importable)

OUT = ROOT / "bench" / "out"
#: Workloads whose wall-clock needs two cores to mean anything.
TWO_PROCESS = ("fd2d_tcp_2rank", "serve_mix")
#: End-to-end metrics that are not wall-clock times.
NOT_WALL_CLOCK = ("peak_rss_mb",)


#: glibc settings every measured process runs under (``main`` re-executes
#: with them, children inherit them): no mmap for large blocks and no
#: trimming, so memory a process frees stays in its heap and a call does
#: not fault its arrays in again.  On this VM a fresh page costs whatever
#: the host makes it cost, 3 us or 3 ms (README, "Run-to-run noise").
ALLOCATOR_ENV = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
}


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# one workload, one mode, this interpreter
# ----------------------------------------------------------------------
def run_one(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        # measure this checkout's source, never an installed copy
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    from bench import layers, workloads
    spec = contract()
    wl = workloads.WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)   # keep stray temp files in the checkout
    ops = workloads.Ops()
    t0 = time.perf_counter()
    try:
        if args.trace:
            declared = spec["per_layer"]
            names = [m["name"] for m in declared]
            got = layers.measure_layers(
                wl, args.seed, args.seconds, args.quick, work, ops, names
            )
            ops.record("per-layer names declared", [
                f"not in BENCHMARK.json: {name}"
                for name in got["emitted"] if name not in names
            ])
        else:
            declared = spec["end_to_end"]
            got = workloads.measure(
                wl, args.seed, args.seconds, args.quick, work, ops
            )
            got["metrics"]["peak_rss_mb"] = workloads.peak_rss_mb()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in ops.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print("detail: " + json.dumps({
        **got["detail"],
        "samples": got.get("samples", {}),
        "problems": ops.problems,
        "wall_s": time.perf_counter() - t0,
    }))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            m["name"]: {"value": got["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


# ----------------------------------------------------------------------
# every workload, both modes, fresh interpreters
# ----------------------------------------------------------------------
def _git(*argv: str) -> str | None:
    try:
        return subprocess.run(
            ["git", *argv], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _cpu() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {"model": model, "caches": caches, "nproc": os.cpu_count() or 1}


def manifest(args, seconds: float) -> dict:
    import numpy

    from bench.workloads import WORKLOADS

    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    status = _git("status", "--porcelain")
    return {
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": args.seed,
        "quick": args.quick,
        "seconds": seconds,
        "cpu": _cpu(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_version,
        "allocator_env": ALLOCATOR_ENV,
        "kernel_backend": {
            name: sorted({m.backend.name for m in wl.spec.build_methods()})
            for name, wl in WORKLOADS.items()
        },
        "workloads": {name: wl.manifest() for name, wl in WORKLOADS.items()},
        "src_lines": sum(
            len(p.read_text().splitlines())
            for p in (ROOT / "src").rglob("*.py")
        ),
    }


def _child(name: str, trace: int, args, seconds: float):
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", name, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2].split("detail: ", 1)[1])


def run_all(args) -> int:
    from bench.workloads import WORKLOADS, sample_spread

    spec = contract()
    seconds = args.seconds if args.seconds is not None else (
        spec["run_seconds"] / 10 if args.quick else spec["run_seconds"]
    )
    names = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]
    ]
    t0 = time.perf_counter()
    out = {"manifest": manifest(args, seconds), "workloads": {}}
    two_cores = out["manifest"]["cpu"]["nproc"] >= 2
    failed = 0
    for name in names:
        e2e, e2e_detail = _child(name, 0, args, seconds)
        layer, layer_detail = _child(name, 1, args, seconds)
        samples = e2e_detail.pop("samples")
        layer_detail.pop("samples")
        row = {
            "ops_attempted": e2e["attempted"] + layer["attempted"],
            "ops_failed": e2e["failed"] + layer["failed"],
            "problems": e2e_detail.pop("problems")
            + layer_detail.pop("problems"),
            "digest": e2e_detail.get("digest"),
            "untraced": e2e_detail,
            "traced": layer_detail,
            "end_to_end": {},
            "per_layer": layer["metrics"],
        }
        for metric, got in e2e["metrics"].items():
            xs = samples.get(metric, [])
            if (not two_cores and name in TWO_PROCESS
                    and metric not in NOT_WALL_CLOCK):
                # one core cannot run two busy processes side by side
                got = {"value": "not_measured", "unit": got["unit"]}
                xs = []
            row["end_to_end"][metric] = {
                **got, "n": len(xs), "samples": xs,
                "spread": sample_spread(WORKLOADS[name], metric, xs),
            }
        out["workloads"][name] = row
        failed += row["ops_failed"]
        print(f"\n{name}: ops_attempted={row['ops_attempted']} "
              f"ops_failed={row['ops_failed']} digest={row['digest']}")
        for metric, got in row["end_to_end"].items():
            print(f"  {metric:<34} {_fmt(got['value']):>14} {got['unit']:<6}"
                  f" n={got['n']} spread={got['spread']:.3f}")
        idle = [k for k, got in row["per_layer"].items() if not got["value"]]
        for metric, got in row["per_layer"].items():
            if metric not in idle:
                print(f"  {metric:<34} {_fmt(got['value']):>14} {got['unit']}")
        print("  0 (layer idle here): " + " ".join(idle))
    out["manifest"]["wall_clock_total_s"] = time.perf_counter() - t0
    print(f"\ntotal {out['manifest']['wall_clock_total_s']:.1f} s, "
          f"ops_failed={failed}")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
        print(f"results written to {args.out}")
    return 1 if failed else 0


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run only this workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of "
                        "BENCHMARK.json, a tenth of it with --quick)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="one run of --workload: 0 end-to-end, 1 per-layer")
    p.add_argument("--quick", action="store_true",
                   help="smoke mode: a tenth of the steps and samples; "
                        "never a recorded number")
    p.add_argument("--out", help="write the result set here (all-runs mode)")
    args = p.parse_args(argv)
    if args.trace is None:
        return run_all(args)
    if not args.workload:
        p.error("--trace needs --workload")
    if args.seconds is None:
        args.seconds = contract()["run_seconds"] / (10 if args.quick else 1)
    if any(os.environ.get(k) != v for k, v in ALLOCATOR_ENV.items()):
        os.environ.update(ALLOCATOR_ENV)
        argv = sys.argv[1:] if argv is None else argv
        os.execv(sys.executable,
                 [sys.executable, str(Path(__file__).resolve()), *argv])
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
