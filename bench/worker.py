"""One measured run of a workload, in a fresh process.

Usage: python3 bench/worker.py PLAN.json

PLAN.json (written by run.py) holds the checkout's `src` directory, the
rounds' CLI argument lists, the measuring time and the trace flag. The worker
times its own cold set-up (import, config load, cell response build), then
runs whole rounds of `ringob.cli.main` calls until the measuring time is
spent. With tracing on, untraced and traced rounds alternate: the per-layer
figures come from the traced rounds, the tracing overhead from the
difference. The last line of stdout is a JSON report.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time


def _load_package(src: str):
    sys.path.insert(0, src)
    import ringob
    import ringob.cli
    here = os.path.realpath(os.path.dirname(ringob.__file__))
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"ringob imported from {here}, not from {src}")
    return ringob


def _outputs(dirs):
    """(sha256 over every output file, total bytes) of one round."""
    digest = hashlib.sha256()
    size = 0
    for d in dirs:
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as fh:
                data = fh.read()
            digest.update(name.encode() + b"\0" + data)
            size += len(data)
    return digest.hexdigest(), size


def main(plan_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    ringob = _load_package(plan["src"])
    from ringob.atom import CellResponse
    first = plan["calls"][0]
    cfg = ringob.cli.load_config(source=first["config_path"])
    CellResponse(cfg.atom.build(), cfg.constants.build())
    setup_done = time.monotonic()

    cli = ringob.cli
    tracer = None
    if plan["trace"]:
        import tracing
        tracer = tracing.Tracer()
        traced_main = tracer.wrap("cli.main", cli.main)

    def one_round(traced: bool) -> float:
        if traced:
            tracer.install()
        run = traced_main if traced else cli.main
        wall = 0.0
        try:
            for call in plan["calls"]:
                t0 = time.perf_counter()
                code = run(call["argv"])
                wall += time.perf_counter() - t0
                if code != 0:
                    raise SystemExit(f"ringob {call['argv'][0]} exited with {code}")
        finally:
            if traced:
                tracer.uninstall()
        return wall

    walls, traced_walls, digests, layers = [], [], set(), []
    deadline = time.monotonic() + plan["seconds"]
    while True:
        walls.append(one_round(False))
        digest, size = _outputs(plan["out_dirs"])
        digests.add(digest)
        if tracer is not None:
            start = len(tracer.spans)
            traced_walls.append(one_round(True))
            digest, size = _outputs(plan["out_dirs"])
            digests.add(digest)
            layers.append(tracing.layer_metrics(tracer.spans[start:], size))
        if time.monotonic() >= deadline:
            break

    report = {
        "setup_done": setup_done,
        "walls": walls,
        "distinct_outputs": len(digests),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["traced_walls"] = traced_walls
        # times and their ratios are medians over the traced rounds; counts
        # repeat exactly from round to round
        timed = ("s", "ratio")
        report["layers"] = {
            name: [statistics.median(r[name][0] for r in layers) if unit in timed else value,
                   unit]
            for name, (value, unit) in layers[0].items()
        }
        report["layer_counts_repeat"] = all(
            r[name][0] == value
            for r in layers for name, (value, unit) in layers[0].items() if unit not in timed
        )
        report["parentage_ok"] = _parentage_ok(tracer.spans)
        with open(plan["trace_path"], "w") as fh:
            json.dump(tracer.to_json(), fh)
    print(json.dumps(report))
    return 0


def _parentage_ok(spans) -> bool:
    """Every cell solve hangs under a map, every iteration under a sweep."""
    by_id = {s.id: s for s in spans}
    expect = {"feedback.find_all_solutions": "domain.map_domain",
              "feedback.iterate_map": "sweep.run_sweep",
              "atom.etas": "cli.main"}
    for s in spans:
        want = expect.get(s.name)
        if want is None:
            continue
        p = s.parent
        while p is not None and by_id[p].name != want:
            p = by_id[p].parent
        if p is None:
            return False
    return True


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
