"""Benchmark of `ringob map` and `ringob sweep`, checked against an
independent oracle.

Usage, from the root of a checkout:

    python3 bench/run.py --workload map-window --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Each run starts one worker process (bench/worker.py) that imports the package
from the checkout's `src`, times its cold set-up and then runs whole rounds of
the workload through `ringob.cli.main` for `--seconds`. This process then
checks the last round's output files against the oracle (bench/oracle.py) and
prints, as the last line of stdout, one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics of a traced run with `--trace 1`.

`--smoke` runs every workload once at reduced size with every check and
exits 0 only if all pass. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKER_TIMEOUT_S = 150

# keep the process to the stated threads: numpy's BLAS pool stays at one
_ENV_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The run could not be made; no result is printed."""


def _write_plan(workload, seconds, trace, run_dir):
    calls = []
    out_dirs = []
    for call in workload.calls:
        cfg_path = os.path.join(run_dir, f"{call.label}.json")
        with open(cfg_path, "w") as fh:
            json.dump(call.config, fh, indent=1)
        out = os.path.join(run_dir, f"out-{call.label}")
        out_dirs.append(out)
        calls.append({"config_path": cfg_path,
                      "argv": [call.command, "--config", cfg_path, "--out", out,
                               "--threads", str(call.threads)]})
    plan = {"src": os.path.join(ROOT, "src"), "calls": calls, "out_dirs": out_dirs,
            "seconds": seconds, "trace": bool(trace),
            "trace_path": os.path.join(run_dir, "trace.json")}
    path = os.path.join(run_dir, "plan.json")
    with open(path, "w") as fh:
        json.dump(plan, fh, indent=1)
    return path


def _run_worker(plan_path: str) -> tuple[dict, float]:
    env = dict(os.environ, **_ENV_THREADS)
    started = time.monotonic()
    with subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), plan_path],
                          stdout=subprocess.PIPE, env=env, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException as exc:
            proc.kill()
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
            raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no report")
    return json.loads(lines[-1]), started


def _point_runner(config_path: str, out_root: str):
    """`roots_at(I1_0, I2_0)` for check_map: the operating points that
    `ringob point` prints for one input pair, or None if it fails. It runs
    after the measured worker has exited, in this process."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ringob.cli import main as ringob_main
    from checks import read_table

    def roots_at(i1: float, i2: float):
        out = os.path.join(out_root, f"point-{i1:.9g}-{i2:.9g}")
        argv = ["point", "--config", config_path, "--out", out,
                "--i1", repr(float(i1)), "--i2", repr(float(i2))]
        if ringob_main(argv) != 0:
            return None
        return read_table(os.path.join(out, "point.csv"))
    return roots_at


def _check(workload, run_dir) -> tuple[list[str], int]:
    """Failure messages and the number of failed items in one round."""
    from checks import check_map, check_sweep
    from oracle import Reference
    from workloads import MODEL

    reference = Reference(MODEL)
    fails, failed = [], 0
    for call in workload.calls:
        out = os.path.join(run_dir, f"out-{call.label}")
        if workload.kind == "map":
            roots_at = _point_runner(os.path.join(run_dir, f"{call.label}.json"),
                                     os.path.join(run_dir, "points"))
            f, stats = check_map(out, call.config["grid"], reference,
                                 corners=workload.name == "map-window", roots_at=roots_at)
            failed += stats["failed"]
        else:
            f, stats = check_sweep(out, call.config["sweep"], reference, call.label)
            failed += stats["unconverged"]
        fails += f
    return fails, failed


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    from workloads import make

    if not os.path.isfile(os.path.join(ROOT, "src", "ringob", "__init__.py")):
        raise BenchError(f"no ringob package under {os.path.join(ROOT, 'src')}")
    workload = make(name, seed, smoke=smoke)
    run_dir = os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    report, started = _run_worker(_write_plan(workload, seconds, trace, run_dir))
    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    fails, failed_per_round = _check(workload, run_dir)
    if report["distinct_outputs"] != 1:
        fails.append(f"rounds wrote {report['distinct_outputs']} different outputs")
    rounds = len(report["walls"]) + len(report.get("traced_walls", []))
    items = workload.items_per_round
    result = {"correct": not fails, "attempted": rounds * items,
              "failed": rounds * failed_per_round}
    if trace:
        if not report["parentage_ok"]:
            fails.append("traced spans lost their parent")
        if not report["layer_counts_repeat"]:
            fails.append("traced rounds counted different work")
        layers = report["layers"]
        expected = "domain.cells" if workload.kind == "map" else "sweep.samples"
        if layers[expected][0] != items:
            fails.append(f"{expected} = {layers[expected][0]}, workload sets {items}")
        untraced = statistics.median(report["walls"])
        overhead = statistics.median(report["traced_walls"]) - untraced
        layers["trace.overhead_s"] = [overhead, "s"]
        layers["trace.overhead_share"] = [overhead / untraced, "ratio"]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        wall = statistics.median(report["walls"])
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "items_per_s": {"value": items / wall, "unit": "1/s"},
            "setup_s": {"value": report["setup_done"] - started, "unit": "s"},
            "peak_rss_mib": {"value": report["peak_rss_kib"] / 1024.0, "unit": "MiB"},
        }
    result["correct"] = not fails
    result["metrics"] = metrics
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    return result


def _smoke() -> int:
    from workloads import NAMES
    ok = True
    for name in NAMES:
        t0 = time.monotonic()
        for trace in (False, True):
            res = run(name, seed=1, seconds=0.0, trace=trace, smoke=True)
            ok &= res["correct"] and res["failed"] == 0
            print(f"{name} trace={int(trace)}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
        print(f"{name}: {time.monotonic() - t0:.1f} s")
    return 0 if ok else 1


def main(argv=None) -> int:
    from workloads import NAMES

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one reduced round of every workload, with every check")
    args = p.parse_args(argv)
    try:
        if args.smoke:
            return _smoke()
        if args.workload is None:
            p.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
