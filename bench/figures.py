"""Reference figures quoted in bench/README.md, measured one after another
in this process (about a minute on 2 vCPUs).

Usage, from the root of a checkout: python3 bench/figures.py

The maps and sweeps are the benchmark's own workloads (`workloads.make`,
seed 0), run once each through `ringob.cli.main`; the window map also on 2
threads and at 30x30, the band zoom at 12x12. Their eta-call counts come
from a traced repeat (`tracing.Tracer`). Outputs go to bench/results/figures.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "results", "figures")


def _import_s() -> float:
    """Median wall time of `import ringob.cli` in a fresh interpreter."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ringob.cli"], check=True,
                       env=dict(os.environ, PYTHONPATH=SRC))
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]


def _run(call, tag, tracer=None) -> tuple[float, str]:
    """Seconds of one CLI call of a workload, and its output directory."""
    from ringob.cli import main as ringob_main
    cfg = os.path.join(OUT, f"{tag}.json")
    with open(cfg, "w") as fh:
        json.dump(call.config, fh, indent=1)
    out = os.path.join(OUT, tag)
    argv = [call.command, "--config", cfg, "--out", out, "--threads", str(call.threads)]
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        if ringob_main(argv) != 0:
            raise SystemExit(f"ringob {' '.join(argv)} failed")
        return time.perf_counter() - t0, out
    finally:
        if tracer is not None:
            tracer.uninstall()


def main() -> int:
    sys.path[:0] = [SRC, HERE]
    os.makedirs(OUT, exist_ok=True)
    import numpy as np
    from ringob.atom import AtomParams, CellResponse, OpticalConstants

    import tracing
    from checks import read_table
    from workloads import make

    print(f"interpreter start + import ringob.cli: {_import_s():.3f} s")
    response = CellResponse(AtomParams(), OpticalConstants())
    rng = np.random.default_rng(0)
    I1, I2 = np.exp(rng.uniform(np.log(0.5), np.log(50.0), (2, 2000)))
    t0 = time.perf_counter()
    for k in range(2000):
        response.etas(I1[k:k + 1], I2[k:k + 1])
    print(f"eta, single point (n = 1): {(time.perf_counter() - t0) / 2000 * 1e6:.0f} us")
    t0 = time.perf_counter()
    for _ in range(5):
        response.etas(I1, I2)
    print(f"eta, batched (n = 2000): {(time.perf_counter() - t0) / 5 / 2000 * 1e6:.1f} us/point")

    maps = []
    for label, name, steps, threads in (("window map", "map-window", 12, 1),
                                        ("window map", "map-window", 12, 2),
                                        ("window map", "map-window", 30, 1),
                                        ("band zoom", "map-band", 12, 2)):
        (call,) = make(name, seed=0).calls
        call.config["grid"].update(i1_steps=steps, i2_steps=steps)
        call.threads = threads
        maps.append((f"{steps}x{steps} {label}, {threads} thread{'s' * (threads > 1)}", call))
    for n, (label, call) in enumerate(maps):
        seconds, out = _run(call, f"map{n}")
        counts = np.bincount(read_table(os.path.join(out, "map.csv"))["solution_count"]
                             .astype(int))
        print(f"{label}: {seconds:.1f} s, cells by root count "
              f"{ {k: int(c) for k, c in enumerate(counts) if c} }")

    for call in make("sweep-loops", seed=0).calls:
        seconds, _ = _run(call, call.label)
        tracer = tracing.Tracer()
        _run(call, call.label, tracer)
        calls = tracing.layer_metrics(tracer.spans, 0)["atom.etas.calls"][0]
        print(f"{call.config['sweep']['steps']}-step {call.label} sweep, forward and "
              f"backward: {seconds:.2f} s, {calls} eta calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
