"""Tests of the benchmark's oracle, output checks and tracing.

Run from the root of a checkout: python3 -m pytest bench -q
"""

import os
import shutil
import sys
import threading

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from checks import (check_map, check_sweep, one_root_etas_consistent,  # noqa: E402
                    read_table, three_root_etas_consistent)
from oracle import Model, Reference, RootCounter  # noqa: E402
from workloads import make  # noqa: E402

from ringob.atom import AtomParams, CellResponse, OpticalConstants  # noqa: E402
from ringob.cli import main as ringob_main  # noqa: E402
from ringob.feedback import CavityParams, InputPoint, SolverConfig, find_all_solutions  # noqa: E402

SEED = 20240816


@pytest.fixture(scope="module")
def reference():
    return Reference(Model())


@pytest.fixture(scope="module")
def package_response():
    return CellResponse(AtomParams(), OpticalConstants())


def _cli(tmp_path, call):
    import json
    cfg = tmp_path / f"{call.label}.json"
    cfg.write_text(json.dumps(call.config))
    out = tmp_path / f"out-{call.label}"
    assert ringob_main([call.command, "--config", str(cfg), "--out", str(out),
                        "--threads", str(call.threads)]) == 0
    return str(out)


def _roots_at(tmp_path, call):
    """check_map's `roots_at`, running `ringob point` on the call's config."""
    import json
    cfg = tmp_path / f"{call.label}-point.json"
    cfg.write_text(json.dumps(call.config))

    def roots_at(i1, i2):
        out = str(tmp_path / f"point-{i1:.9g}-{i2:.9g}")
        assert ringob_main(["point", "--config", str(cfg), "--out", out,
                            "--i1", repr(float(i1)), "--i2", repr(float(i2))]) == 0
        return read_table(os.path.join(out, "point.csv"))
    return roots_at


def _rewrite_column(path, column, edit):
    """Apply `edit(row_index, value) -> value` to one column of a CLI csv."""
    lines = open(path).read().splitlines()
    head = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    col = lines[head].split(",").index(column)
    for k in range(head + 1, len(lines)):
        cells = lines[k].split(",")
        cells[col] = edit(k - head - 1, cells[col])
        lines[k] = ",".join(cells)
    open(path, "w").write("\n".join(lines) + "\n")


# --- eta reference ------------------------------------------------------------

def test_reference_agrees_with_package(reference, package_response):
    """200 random internal intensities of the acceptance window's range."""
    rng = np.random.default_rng(SEED)
    I1 = np.exp(rng.uniform(np.log(0.5), np.log(50.0), 200))
    I2 = np.exp(rng.uniform(np.log(5e-3), np.log(5.0), 200))
    e1, e2 = reference.etas(I1, I2)
    p1, p2, ok = package_response.etas(I1, I2)
    assert ok.all()
    assert np.max(np.abs(e1 / p1 - 1.0)) < 1e-12
    assert np.max(np.abs(e2 / p2 - 1.0)) < 1e-12


def test_reference_state_is_stationary(reference):
    # no positivity check: the default dephasing (0.5) is below half the
    # excited-state decay (3), so the model is not of Lindblad form
    rng = np.random.default_rng(SEED + 1)
    I1, I2 = np.exp(rng.uniform(-3, 3, (2, 50)))
    rho = reference.rho(I1, I2)
    L = reference.liouvillian(np.sqrt(I1), np.sqrt(I2))
    assert np.abs(L @ rho.reshape(-1, 9, 1)).max() < 1e-12
    assert np.allclose(np.trace(rho, axis1=1, axis2=2), 1.0, atol=1e-13)
    assert np.allclose(rho, rho.conj().transpose(0, 2, 1), atol=1e-13)


def test_eta_check_flags_scaled_eta(reference, package_response):
    """A one-root operating point passes; its eta scaled by 1.001 does not."""
    cav = CavityParams()
    I10, I20, e1, e2 = [], [], [], []
    for i1, i2 in ((0.5, 5e-3), (1.0, 0.5), (8.0, 0.05), (20.0, 2.0)):
        ops = find_all_solutions(InputPoint(i1, i2), cav, SolverConfig(seed_grid=12),
                                 package_response)
        assert len(ops) == 1
        I10.append(i1)
        I20.append(i2)
        e1.append(ops[0].eta1)
        e2.append(ops[0].eta2)
    I10, I20, e1, e2 = map(np.array, (I10, I20, e1, e2))
    cav_r = (cav.R1, cav.R2)
    assert one_root_etas_consistent(reference, cav_r, I10, I20, e1, e2).all()
    assert one_root_etas_consistent(reference, cav_r, I10, I20, e2, e1).all()
    assert not one_root_etas_consistent(reference, cav_r, I10, I20, e1 * 1.001, e2).any()
    assert not one_root_etas_consistent(reference, cav_r, I10, I20, e1, e2 * 1.001).any()


# --- dense-grid root counter ----------------------------------------------------

def test_root_counter_counts(reference):
    counter = RootCounter(reference, (0.5, 20.0), (5e-3, 2.0))
    assert counter.count(2.56, 0.05) == 3     # criterion 5's reference input
    assert counter.count(0.5, 5e-3) == 1
    assert counter.count(20.0, 2.0) == 1


def test_root_counter_refuses_inputs_outside_table(reference):
    counter = RootCounter(reference, (1.0, 2.0), (0.1, 0.2), n=50)
    with pytest.raises(ValueError):
        counter.count(5.0, 0.15)


def test_map_check_flags_dropped_root(tmp_path, reference):
    """A band map passes; the same map with one root dropped from a
    three-root cell, keeping the count odd, fails against the oracle."""
    call = make("map-band", seed=SEED, smoke=True).calls[0]
    out = _cli(tmp_path, call)
    roots_at = _roots_at(tmp_path, call)
    fails, stats = check_map(out, call.config["grid"], reference, False, roots_at)
    assert fails == [] and stats["three_root_cells"] > 0

    broken = str(tmp_path / "broken")
    shutil.copytree(out, broken)
    path = os.path.join(broken, "map.csv")
    counts = []
    _rewrite_column(path, "solution_count", lambda k, v: counts.append(v) or v)
    victim = counts.index("3")
    for column, value in (("solution_count", "1"), ("stable_count", "1"),
                          ("region", "absorbing")):
        _rewrite_column(path, column, lambda k, v: value if k == victim else v)
    fails, _ = check_map(broken, call.config["grid"], reference, False, roots_at)
    assert any("dense-grid oracle finds 3" in f for f in fails), fails


def test_map_check_flags_scaled_three_root_eta(tmp_path, reference):
    """The map's max_eta of a three-root cell scaled by 1.001 fails, and so
    does one root's eta scaled by 1.001 in the `ringob point` table."""
    call = make("map-band", seed=SEED, smoke=True).calls[0]
    out = _cli(tmp_path, call)
    roots_at = _roots_at(tmp_path, call)
    path = os.path.join(out, "map.csv")
    counts = []
    _rewrite_column(path, "solution_count", lambda k, v: counts.append(v) or v)
    victim = counts.index("3")
    _rewrite_column(path, "max_eta",
                    lambda k, v: f"{float(v) * 1.001:.8e}" if k == victim else v)
    fails, _ = check_map(out, call.config["grid"], reference, False, roots_at)
    assert any("max_eta" in f for f in fails), fails

    t = read_table(path)
    cav = (Model().R1, Model().R2)
    x, y = t["I1_0"][victim], t["I2_0"][victim]
    roots = roots_at(x, y)
    assert len(roots["I1_in"]) == 3
    args = (t["min_eta"][victim], t["max_eta"][victim] / 1.001)
    assert three_root_etas_consistent(reference, cav, x, y, roots, *args) == []
    roots["eta2"][1] *= 1.001
    fails = three_root_etas_consistent(reference, cav, x, y, roots, *args)
    assert any("eta2 differs from the reference" in f for f in fails), fails


def test_sweep_check_flags_scaled_eta(tmp_path, reference):
    axis = make("sweep-loops", seed=SEED, smoke=True).calls[0]
    out = _cli(tmp_path, axis)
    fails, stats = check_sweep(out, axis.config["sweep"], reference, "axis")
    assert fails == [] and stats["multi_root_samples"] > 0

    path = os.path.join(out, "sweep_forward.csv")
    _rewrite_column(path, "eta1", lambda k, v: f"{float(v) * 1.001:.8e}" if k == 3 else v)
    fails, _ = check_sweep(out, axis.config["sweep"], reference, "axis")
    assert any("eta1 differs from the reference" in f for f in fails), fails


# --- tracing ------------------------------------------------------------------

def test_span_parents_survive_thread_pool(tmp_path):
    import tracing
    call = make("map-band", seed=SEED, smoke=True).calls[0]
    call.config["grid"].update(i1_steps=3, i2_steps=3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _cli(tmp_path, call)
    finally:
        tracer.uninstall()
    spans = {s.id: s for s in tracer.spans}
    (the_map,) = [s for s in spans.values() if s.name == "domain.map_domain"]
    cells = [s for s in spans.values() if s.name == "feedback.find_all_solutions"]
    assert len(cells) == 9
    assert all(s.parent == the_map.id for s in cells)
    assert any(s.thread != threading.get_ident() for s in cells)
    metrics = tracing.layer_metrics(tracer.spans, output_bytes=0)
    assert metrics["domain.cells"][0] == 9
    assert metrics["feedback.find_all_solutions.calls"][0] == 9
    from ringob import domain
    assert domain.ThreadPoolExecutor is not tracing._ContextPool


def test_self_time_subtracts_covered_interval():
    from tracing import Span, self_times
    spans = [Span(1, "a", 0.0, 10.0, None, 0),
             Span(2, "b", 1.0, 4.0, 1, 0),
             Span(3, "b", 3.0, 6.0, 1, 1),      # overlaps its sibling
             Span(4, "c", 2.0, 3.0, 2, 0)]
    own = self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}
