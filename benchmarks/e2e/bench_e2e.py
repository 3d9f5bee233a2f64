#!/usr/bin/env python3
"""End-to-end benchmark: socket to alarm, four workloads, per layer.

The contract form, one workload per call (what ``BENCHMARK.json``
runs; the last stdout line is the result JSON)::

    python3 benchmarks/e2e/bench_e2e.py \\
        --workload udp_mixed_saturate --seed 7 --seconds 10 --trace 0

Without ``--workload`` all four run in turn; ``--quick`` is a ~5 %
smoke of everything; ``--check-noise K`` runs every workload K times
in two interleaved sets and compares the spread of each end-to-end
metric with its bound. See README.md beside this file.

Every workload runs in its own child process (clean ``ru_maxrss``,
clean imports, clean set-up time) under a hard deadline. ``setup_s``
is the median of three child starts: two stop at *ready*.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CACHE_DIR = HERE / ".cache"
OUT_DIR = HERE / "out"

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import repro  # noqa: E402

if Path(repro.__file__).resolve().parent.parent != ROOT / "src":
    # Only the checkout's own sources are the program under test.
    sys.exit(f"bench_e2e: repro imported from {repro.__file__}, not "
             f"{ROOT / 'src'}")

import fixtures  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SECONDS = 10.0
QUICK_SECONDS = 0.75
DRY_STARTS = 2


# -- child side ---------------------------------------------------------------


def child_main(spec: dict) -> int:
    """Run one workload in this process; print its result as JSON."""
    workdir = Path(spec["workdir"])
    witness = workloads.Witness()
    witness.start()
    run = workloads.Run(
        workload=spec["workload"],
        seed=spec["seed"],
        seconds=spec["seconds"],
        workers=spec["workers"],
        dry=spec["dry"],
        workdir=workdir,
        cache_dir=CACHE_DIR,
        started=spec["spawned"],
        witness=witness,
        recorder=(
            spans.Recorder(f"{spec['workload']}-seed{spec['seed']}")
            if spec["trace"] else None
        ),
    )
    try:
        workloads.execute(run)
    except workloads.DryRun:
        pass
    finally:
        witness.stop()
    if run.dry:
        print(json.dumps({"setup_s": run.setup_seconds()[0]}))
        return 0
    wall = run.t1 - run.t0
    setup_s, setup_raw_s = run.setup_seconds()
    result = {
        "setup_s": setup_s,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "metrics": run.end_to_end(),
        "info": {
            "flows": run.flows,
            "windows": len(run.plan),
            "wall_s": wall,
            "machine_speed":
                float(witness.reference_seconds(run.t0, run.t1)) / wall,
            "spin_ms": witness.spin_ms(run.t0, run.t1),
            "setup_raw_s": setup_raw_s,
            "latency_samples": len(run.latencies),
            "fixture_sha256": run.fixture.sha256,
            "alarm_ids": run.facts.get("alarm_ids", []),
            "window_flows": run.facts.get("window_flows", []),
        },
    }
    if run.recorder is not None:
        from repro.obs import metrics as obs_metrics

        result["layers"] = layers.layer_metrics(
            run, run.recorder, obs_metrics.snapshot()
        )
        OUT_DIR.mkdir(exist_ok=True)
        run.recorder.write_chrome_trace(
            OUT_DIR / f"trace-{run.workload}.json"
        )
    print(json.dumps(result))
    return 0


# -- parent side --------------------------------------------------------------


class ChildFailed(Exception):
    """A workload child timed out, crashed or printed no result."""


def spawn(spec: dict, deadline: float) -> dict:
    """Run one child to completion under a hard deadline.

    The child gets its own session so that a kill reaps its worker
    pool too; its scratch directory is removed whatever happens.
    """
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"run-{spec['workload']}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    spec = dict(spec, workdir=str(workdir), spawned=time.time())
    process = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()),
         "--child", json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        raise ChildFailed(
            f"{spec['workload']}: deadline of {deadline:.0f}s exceeded"
        ) from None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if process.returncode != 0:
        raise ChildFailed(
            f"{spec['workload']}: child exited {process.returncode}"
        )
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed(
            f"{spec['workload']}: child printed no result"
        ) from None


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    workers: int,
    dry_starts: int = DRY_STARTS,
) -> dict:
    """One full measurement of one workload.

    Untraced: ``dry_starts`` starts that stop at ready, then the real
    run; ``setup_s`` is the median over all of them. Traced: the
    untraced twin runs first, so that the per-layer block can state
    what the tracing cost.
    """
    fixtures.ensure(seed, CACHE_DIR)
    spec = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "workers": workers, "trace": False, "dry": False,
    }
    deadline = 30.0 + 5.0 * seconds
    if trace:
        plain = spawn(spec, deadline)
        result = spawn(dict(spec, trace=True), deadline)
        # (On the open loop the schedule sets both rates: about 0.)
        result["layers"]["bench.trace_overhead_pct"] = 100.0 * (
            plain["metrics"]["flows_per_s"]
            / result["metrics"]["flows_per_s"] - 1.0
        )
    else:
        setups = [
            spawn(dict(spec, dry=True), 60.0)["setup_s"]
            for _ in range(dry_starts)
        ]
        result = spawn(spec, deadline)
        result["metrics"]["setup_s"] = statistics.median(
            setups + [result["setup_s"]]
        )
    return result


def contract_result(result: dict, trace: bool) -> dict:
    """The JSON object the benchmark contract asks for."""
    table = layers.PER_LAYER if trace else layers.END_TO_END
    values = result["layers"] if trace else result["metrics"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in table
        },
    }


def machine_block() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git": sha,
        "link": "loopback only (no real NIC was crossed)",
    }


def print_result(workload: str, result: dict, trace: bool) -> None:
    table = layers.PER_LAYER if trace else layers.END_TO_END
    values = result["layers"] if trace else result["metrics"]
    for name, unit, _ in table:
        print(f"{workload}/{name} {values[name]:.6g} {unit}")
    info = result["info"]
    print(
        f"{workload}: {info['flows']} flows, {info['windows']} windows, "
        f"measured {info['wall_s']:.2f} s at machine speed "
        f"{info['machine_speed']:.2f} (spin {info['spin_ms']:.2f} ms), "
        f"{info['latency_samples']} latency samples, "
        f"fixture sha256 {info['fixture_sha256'][:16]}, "
        f"failed {result['failed']}/{result['attempted']}"
    )
    for failure in result["failures"]:
        print(f"{workload}: FAILED {failure}")


# -- noise self-check ---------------------------------------------------------


def _worse(better: str, first: float, second: float) -> float:
    """Share by which ``second`` is worse than ``first``."""
    if better == "lower":
        return second / first - 1.0
    return first / second - 1.0


def check_noise(
    rounds: int, seed: int, seconds: float, workers: int, bounds: dict
) -> bool:
    """Two interleaved sets of ``rounds`` runs per workload.

    Runs go round-robin over the workloads so each set of each
    workload sees the same machine drift. A metric passes when the
    quartile spread of all its runs stays within its bound and set B's
    median is not worse than set A's by more than the bound.
    """
    samples: dict[tuple[str, str], list[list[float]]] = {}
    speeds: list[float] = []
    ok = True
    for index in range(2 * rounds):
        for workload in workloads.WORKLOADS:
            result = run_workload(
                workload, seed + index, seconds, False, workers
            )
            speeds.append(result["info"]["machine_speed"])
            if result["failed"]:
                ok = False
                print(f"{workload} run {index}: FAILED "
                      f"{result['failures']}")
            for name, _, _ in layers.END_TO_END:
                samples.setdefault(
                    (workload, name), [[], []]
                )[index % 2].append(result["metrics"][name])
    print(f"{'workload/metric':46} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'B vs A':>7} {'bound':>6}")
    better_of = {name: better for name, _, better in layers.END_TO_END}
    for (workload, name), (set_a, set_b) in samples.items():
        values = set_a + set_b
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        shift = _worse(
            better_of[name],
            statistics.median(set_a), statistics.median(set_b),
        )
        bound = bounds[name]
        passed = shift <= bound and (
            name == "setup_s" or spread <= bound
        )
        ok = ok and passed
        print(f"{workload + '/' + name:46} {median:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:7.1%} {shift:+7.1%} {bound:6.0%}"
              f"{'' if passed else '  MISSED'}")
    print(f"machine speed over the {len(speeds)} runs: "
          f"{min(speeds):.2f} to {max(speeds):.2f} of the reference")
    return ok


# -- command line -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the measured phase the frozen "
                             "sizes are scaled to (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="~5%% scale smoke run")
    parser.add_argument("--check-noise", type=int, metavar="K",
                        help="K runs per workload in each of two "
                             "interleaved sets")
    parser.add_argument("--workers", type=int, default=1,
                        help="stream-engine workers (manual runs on a "
                             "larger machine; no BENCHMARK.json row)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(json.loads(args.child))
    seconds = QUICK_SECONDS if args.quick else args.seconds
    trace = bool(args.trace)
    try:
        if args.check_noise:
            bounds = {
                metric["name"]: metric["bound"]
                for metric in json.loads(
                    (ROOT / "BENCHMARK.json").read_text()
                )["end_to_end"]
            }
            passed = check_noise(
                args.check_noise, args.seed, seconds, args.workers,
                bounds,
            )
            print(json.dumps(machine_block()))
            return 0 if passed else 1
        names = [args.workload] if args.workload else workloads.WORKLOADS
        results = {
            name: run_workload(
                name, args.seed, seconds, trace, args.workers,
                dry_starts=0 if args.quick else DRY_STARTS,
            )
            for name in names
        }
    except ChildFailed as exc:
        print(f"bench_e2e: {exc}", file=sys.stderr)
        return 2
    for name, result in results.items():
        print_result(name, result, trace)
    print(json.dumps(machine_block()))
    if args.workload:
        print(json.dumps(contract_result(results[args.workload], trace)))
    else:
        print(json.dumps({
            name: contract_result(result, trace)
            for name, result in results.items()
        }))
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
