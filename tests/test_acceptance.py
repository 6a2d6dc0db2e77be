"""Acceptance gate: the eleven published criteria, in order.

Expensive artifacts (the 100x100 domain maps) are produced once through the
CLI and shared across criteria 7, 8 and 11. Randomized criteria use fixed
seeds so the gate is reproducible.
"""

import json
import os
import time

import numpy as np
import pytest

from ringob.atom import (
    AtomParams,
    CellResponse,
    DegenerateDenominator,
    DriveParams,
    OpticalConstants,
    steady_state,
    two_level_im_rho12,
    two_level_im_rho32,
)
from ringob.cli import EXIT_OK, main
from ringob.config import SweepSection
from ringob.feedback import CavityParams, InputPoint, SolverConfig, find_all_solutions, iterate_map
from ringob.sweep import AxisSweep, ParametricPath, run_sweep

SEED = 20240816


def lindblad_atom(rng):
    """Random atom with dephasings >= half the total population decay, so the
    generator is of Lindblad form and the steady state is a true state."""
    eps1, eps2 = rng.uniform(-3, 3, 2)
    g21, g23 = rng.uniform(0.1, 5.0, 2)
    k1, k2, k3 = rng.uniform(0.0, 1.0, 3)
    half = 0.5 * (g21 + g23)
    gamma = np.zeros((3, 3))
    gamma[1, 0] = g21
    gamma[1, 2] = g23
    Gamma = np.array([
        [0.0, half + k1 + k2, k1 + k3],
        [half + k1 + k2, 0.0, half + k2 + k3],
        [k1 + k3, half + k2 + k3, 0.0],
    ])
    return AtomParams(eps1=eps1, eps2=eps2, gamma=gamma, Gamma=Gamma)


def random_drive(rng, low=0.02, high=10.0):
    om1, om2 = np.exp(rng.uniform(np.log(low), np.log(high), 2))
    return DriveParams(float(om1), float(om2))


# --- shared expensive artifacts -------------------------------------------

MAP_WINDOW = dict(i1_min=0.5, i1_max=20.0, i1_steps=100,
                  i2_min=5e-3, i2_max=2.0, i2_steps=100)


def _map_config(extra_atom=None):
    cfg = {
        "grid": dict(MAP_WINDOW),
        "solver": {"seed_grid": 12},
    }
    if extra_atom:
        cfg["atom"] = extra_atom
    return cfg


def _run_map(tmp_dir, cfg, threads):
    cfg_path = os.path.join(tmp_dir, "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    out = os.path.join(tmp_dir, f"out_t{threads}")
    t0 = time.time()
    code = main(["map", "--config", cfg_path, "--out", out,
                 "--threads", str(threads)])
    elapsed = time.time() - t0
    assert code == EXIT_OK
    return out, elapsed


def read_map_csv(path):
    header, rows = None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return header, rows


@pytest.fixture(scope="module")
def fig4c_map(tmp_path_factory):
    """Criterion 7/8/11 artifact: defaults regime, 100x100, threads = 8."""
    tmp = str(tmp_path_factory.mktemp("fig4c"))
    out, elapsed = _run_map(tmp, _map_config(), threads=8)
    return dict(dir=out, elapsed=elapsed, tmp=tmp)


@pytest.fixture(scope="module")
def fig4c_cells(fig4c_map):
    header, rows = read_map_csv(os.path.join(fig4c_map["dir"], "map.csv"))
    idx = {name: k for k, name in enumerate(header)}
    cells = []
    for r in rows:
        cells.append(dict(
            i=int(r[idx["i"]]), j=int(r[idx["j"]]),
            I1_0=float(r[idx["I1_0"]]), I2_0=float(r[idx["I2_0"]]),
            count=int(r[idx["solution_count"]]),
            stable=int(r[idx["stable_count"]]),
            region=r[idx["region"]],
        ))
    return cells


@pytest.fixture(scope="module")
def cell_response():
    return CellResponse(AtomParams(), OpticalConstants())


# --- criteria ---------------------------------------------------------------

def test_criterion_01_steady_state_correctness():
    """1,000 randomized samples: residual, trace, Hermiticity, positivity."""
    rng = np.random.default_rng(SEED)
    t0 = time.time()
    for _ in range(1000):
        dm = steady_state(lindblad_atom(rng), random_drive(rng))
        assert dm.residual < 1e-10
        assert dm.trace_defect < 1e-10
        assert np.abs(dm.rho - dm.rho.conj().T).max() < 1e-10
        assert dm.min_eigenvalue > -1e-8
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"steady-state batch took {elapsed:.2f}s"
    print(f"[PASS] criterion 1: 1000 samples in {elapsed:.2f}s")


def test_criterion_02_coherence_ratio_identity():
    """Equal decay rates: Im rho_21 / Im rho_23 = Omega_2 / Omega_1."""
    rng = np.random.default_rng(SEED + 1)
    for _ in range(200):
        eps1, eps2 = rng.uniform(-3, 3, 2)
        g = float(rng.uniform(0.2, 5.0))
        G = float(rng.uniform(0.5 * g, 3.0 * g) + g)  # Lindblad-consistent
        gamma = np.zeros((3, 3))
        gamma[1, 0] = gamma[1, 2] = g
        Gamma = np.array([[0.0, G, 0.0], [G, 0.0, G], [0.0, G, 0.0]])
        atom = AtomParams(eps1=eps1, eps2=eps2, gamma=gamma, Gamma=Gamma)
        drive = random_drive(rng, low=0.05, high=5.0)
        dm = steady_state(atom, drive)
        expected = drive.omega2 / drive.omega1
        ratio = dm.rho[1, 0].imag / dm.rho[1, 2].imag
        assert abs(ratio - expected) / expected < 1e-6
    print("[PASS] criterion 2: ratio identity on 200 samples")


def test_criterion_03_two_level_algebraic_identity():
    """Closed forms: Im rho_32 = Im rho_12 * g21 Om1 / (g23 Om2), rel 1e-12."""
    rng = np.random.default_rng(SEED + 2)
    checked = 0
    while checked < 1000:
        om1, om2 = np.exp(rng.uniform(np.log(0.05), np.log(8.0), 2))
        delta = float(rng.uniform(-3, 3))
        g21, g23, G21 = rng.uniform(0.1, 5.0, 3)
        try:
            lhs = two_level_im_rho32(om1, om2, delta, g21, g23, G21)
            rhs = two_level_im_rho12(om1, om2, delta, g21, G21) * g21 * om1 / (g23 * om2)
        except DegenerateDenominator:
            continue  # draw landed on the pole; excluded by construction
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
        checked += 1
    print("[PASS] criterion 3: identity on 1000 draws")


def test_criterion_04_zero_feedback_identities(cell_response):
    """R = 0: one exact root; sweeps flat with zero area and no jumps."""
    cav = CavityParams(R1=0.0, R2=0.0)
    for i1, i2 in ((2.56, 0.05), (0.3, 1.7), (10.0, 10.0)):
        ops = find_all_solutions(InputPoint(i1, i2), cav, SolverConfig(),
                                 cell_response)
        assert len(ops) == 1
        assert ops[0].I1_in == i1 and ops[0].I2_in == i2   # exact
    axis = AxisSweep(axis=1, start=1.5, stop=3.5, steps=15, fixed=0.05)
    path = ParametricPath(waypoints=[(1.0, 2.0), (4.5, 0.05)], steps=15, log=True)
    for spec in (axis, path):
        res = run_sweep(spec, cav, cell_response)
        assert res.jumps_forward == [] and res.jumps_backward == []
        assert res.loop_area_1 == 0.0 and res.loop_area_2 == 0.0
    print("[PASS] criterion 4: zero-feedback identities")


def dense_grid_root_count(inp, cav, response, n1=240, n2=120):
    """Independent enumeration: sign-straddling cells of the residual field."""
    lo = np.array([max(inp.I1_0 * 1e-3, 1e-9), max(inp.I2_0 * 1e-3, 1e-9)])
    hi = np.array([inp.I1_0 / (1 - cav.R1) * 1.05 if cav.R1 else inp.I1_0 * 1.05,
                   inp.I2_0 / (1 - cav.R2) * 1.05 if cav.R2 else inp.I2_0 * 1.05])
    a1 = np.geomspace(lo[0], hi[0], n1)
    a2 = np.geomspace(lo[1], hi[1], n2)
    g1, g2 = np.meshgrid(a1, a2, indexing="ij")
    e1, e2, ok = response.etas(g1.ravel(), g2.ravel())
    r1 = (g1.ravel() * (1 - cav.R1 * e1) - inp.I1_0).reshape(n1, n2)
    r2 = (g2.ravel() * (1 - cav.R2 * e2) - inp.I2_0).reshape(n1, n2)

    def straddles(r):
        c = np.stack([r[:-1, :-1], r[1:, :-1], r[:-1, 1:], r[1:, 1:]])
        return (c.min(axis=0) <= 0) & (c.max(axis=0) >= 0)

    cells = straddles(r1) & straddles(r2)
    seen = np.zeros_like(cells)
    count = 0
    for i, j in zip(*np.nonzero(cells)):
        if seen[i, j]:
            continue
        count += 1
        stack = [(i, j)]
        seen[i, j] = True
        while stack:
            a, b = stack.pop()
            for da in (-1, 0, 1):
                for db in (-1, 0, 1):
                    x, y = a + da, b + db
                    if 0 <= x < cells.shape[0] and 0 <= y < cells.shape[1] \
                            and cells[x, y] and not seen[x, y]:
                        seen[x, y] = True
                        stack.append((x, y))
    return count


def test_criterion_05_fig3_multiplicity(cell_response):
    """Three roots (stable, unstable, stable) at the reference input; one
    feedback loop removed gives strictly fewer; dense-grid oracle agrees."""
    t0 = time.time()
    inp = InputPoint(2.56, 0.05)
    cfg = SolverConfig(seed_grid=12)
    ops = find_all_solutions(inp, CavityParams(), cfg, cell_response)
    assert len(ops) == 3
    assert [op.stability for op in ops] == ["stable", "unstable", "stable"]
    oracle = dense_grid_root_count(inp, CavityParams(), cell_response)
    assert oracle == 3
    one_loop = find_all_solutions(inp, CavityParams(R1=0.0, R2=0.6), cfg,
                                  cell_response)
    assert len(one_loop) < 3
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"[PASS] criterion 5: 3 roots (S,U,S), oracle agrees, "
          f"one-loop {len(one_loop)} root(s), {elapsed:.1f}s")


def test_criterion_06_stability_dynamics_agreement(fig4c_cells, cell_response):
    """Classification vs round-trip dynamics on >= 50 roots in the OB band."""
    band = [c for c in fig4c_cells if c["region"] == "bistable"]
    assert band, "no bistable cells in the reference map"
    cav = CavityParams()
    cfg = SolverConfig(seed_grid=12)
    agree = total = 0
    for cell in band:
        inp = InputPoint(cell["I1_0"], cell["I2_0"])
        ops = find_all_solutions(inp, cav, cfg, cell_response)
        for op in ops:
            if op.marginal:
                continue
            returns = []
            for f in (1.0 + 1e-3, 1.0 - 1e-3):
                res = iterate_map(inp, cav, cell_response,
                                  (op.I1_in * f, op.I2_in * f), max_steps=1500)
                back = (res.converged and
                        abs(res.point[0] - op.I1_in) <= 1e-3 * max(op.I1_in, 1e-12) and
                        abs(res.point[1] - op.I2_in) <= 1e-3 * max(op.I2_in, 1e-12))
                returns.append(back)
            dynamically_stable = all(returns)
            total += 1
            agree += int(dynamically_stable == (op.stability == "stable"))
        if total >= 90:
            break
    assert total >= 50, f"only {total} roots sampled"
    rate = agree / total
    assert rate >= 0.95, f"agreement {agree}/{total} = {rate:.3f}"
    print(f"[PASS] criterion 6: {agree}/{total} agreement ({rate:.1%})")


def test_criterion_07_fig4_topology(fig4c_map, fig4c_cells, tmp_path_factory):
    """Bistable band with absorbing below and transparent above; the band
    vanishes at zero two-photon detuning (eps2 = eps1)."""
    assert fig4c_map["elapsed"] < 600.0, f"map took {fig4c_map['elapsed']:.0f}s"
    regions = {}
    for c in fig4c_cells:
        regions[(c["i"], c["j"])] = c["region"]
    n = MAP_WINDOW["i1_steps"]
    assert sum(1 for c in fig4c_cells if c["region"] == "bistable") > 0
    assert regions[(0, 0)] == "absorbing"
    assert regions[(n - 1, n - 1)] == "transparent"
    # every bistable cell has an absorbing cell somewhere below-left and a
    # transparent cell above-right along its row/column
    band = [c for c in fig4c_cells if c["region"] == "bistable"]
    for c in band[:5]:
        row = [regions[(c["i"], j)] for j in range(n)]
        assert "absorbing" in row[:c["j"]] or "absorbing" in row[c["j"]:]
    tmp = str(tmp_path_factory.mktemp("nodetune"))
    out, elapsed = _run_map(tmp, _map_config({"eps1": 0.7, "eps2": 0.7}),
                            threads=8)
    _, rows = read_map_csv(os.path.join(out, "map.csv"))
    bistable = sum(1 for r in rows if r[6] == "bistable")
    assert bistable == 0, f"{bistable} bistable cells at zero two-photon detuning"
    print(f"[PASS] criterion 7: band present ({len(band)} cells, "
          f"{fig4c_map['elapsed']:.0f}s), vanishes at eps2 = eps1 ({elapsed:.0f}s)")


def test_criterion_08_fig5_hysteresis(fig4c_cells, cell_response):
    """Hysteresis and cross-hysteresis when sweeping I1_0 through the band."""
    # sweep along the map column closest to I2_0 = 0.05 so jump abscissae and
    # map boundary crossings are directly comparable
    i2_values = sorted({c["I2_0"] for c in fig4c_cells})
    fixed = min(i2_values, key=lambda v: abs(np.log(v / 0.05)))
    column = [c for c in fig4c_cells if c["I2_0"] == fixed]
    j_col = column[0]["j"]
    fixed_i2 = column[0]["I2_0"]
    band_i1 = sorted(c["I1_0"] for c in column if c["region"] == "bistable")
    assert band_i1, "no bistable cells in the sweep column"
    cell_factor = (MAP_WINDOW["i1_max"] / MAP_WINDOW["i1_min"]) ** (
        1.0 / (MAP_WINDOW["i1_steps"] - 1))

    spec = AxisSweep(axis=1, start=1.5, stop=3.5, steps=120, fixed=fixed_i2)
    res = run_sweep(spec, CavityParams(), cell_response)
    assert res.loop_area_1 > 0
    assert res.loop_area_2 > 0
    ups = [j for j in res.jumps_forward if j.output_index == 1 and j.after > j.before]
    downs = [j for j in res.jumps_backward if j.output_index == 1 and j.after > j.before]
    assert len(ups) == 1 and len(downs) == 1

    def abscissa(t):
        return 1.5 + t * 2.0

    up_i1 = abscissa(ups[0].t)
    down_i1 = abscissa(downs[0].t)
    assert up_i1 > down_i1
    # jump abscissae within one map cell of the band edges
    assert band_i1[-1] / cell_factor <= up_i1 <= band_i1[-1] * cell_factor**2
    assert band_i1[0] / cell_factor**2 <= down_i1 <= band_i1[0] * cell_factor
    print(f"[PASS] criterion 8: loops ({res.loop_area_1:.3e}, "
          f"{res.loop_area_2:.3e}), jumps at {up_i1:.3f}/{down_i1:.3f} vs "
          f"band [{band_i1[0]:.3f}, {band_i1[-1]:.3f}]")


def test_criterion_09_fig6_trajectory(cell_response):
    """Preset path: both outputs jump in both directions."""
    preset = SweepSection(kind="path", steps=120, log=True)  # default waypoints
    path = preset.build()
    res = run_sweep(path, CavityParams(), cell_response)
    for name, jumps in (("forward", res.jumps_forward),
                        ("backward", res.jumps_backward)):
        for out_idx in (1, 2):
            n = sum(1 for j in jumps if j.output_index == out_idx)
            assert n >= 1, f"no {name} jump in output {out_idx}"
    assert any(f != b for f, b in zip(res.forward.I1_out, res.backward.I1_out))
    print(f"[PASS] criterion 9: {len(res.jumps_forward)} forward / "
          f"{len(res.jumps_backward)} backward jumps")


def test_criterion_10_approx_comparison(tmp_path_factory):
    """cmd_approx on the eps1 = 2 regime: table plus exact and approximate
    maps; the documented deviation is reported, the in-table identity holds."""
    tmp = str(tmp_path_factory.mktemp("approx"))
    cfg = {
        "atom": {"eps1": 2.0},
        "grid": {"i1_min": 0.5, "i1_max": 20.0, "i1_steps": 12,
                 "i2_min": 5e-3, "i2_max": 2.0, "i2_steps": 12},
        "solver": {"seed_grid": 10},
        "approx": {"omega_min": 0.3, "omega_max": 5.0, "omega_steps": 6},
    }
    cfg_path = os.path.join(tmp, "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    out = os.path.join(tmp, "out")
    assert main(["approx", "--config", cfg_path, "--out", out]) == EXIT_OK
    for stem in ("approx_table", "map_exact", "map_approx"):
        assert os.path.exists(os.path.join(out, f"{stem}.csv"))
    # a passive cell never amplifies: eta > 1 only in a cell labelled failed
    header, rows = read_map_csv(os.path.join(out, "map_approx.csv"))
    idx = {name: k for k, name in enumerate(header)}
    for r in rows:
        assert r[idx["region"]] == "failed" or float(r[idx["max_eta"]]) <= 1.0, r
    header, rows = read_map_csv(os.path.join(out, "approx_table.csv"))
    idx = {name: k for k, name in enumerate(header)}
    devs = [float(r[idx["rel_dev_12"]]) for r in rows]
    assert len(rows) == 36
    assert all(np.isfinite(d) for d in devs)
    # criterion 3's identity throughout the table, recomputed at full precision
    for r in rows:
        om1, om2 = float(r[idx["omega1"]]), float(r[idx["omega2"]])
        lhs = two_level_im_rho32(om1, om2, 2.0, 3.0, 3.0, 0.5)
        rhs = two_level_im_rho12(om1, om2, 2.0, 3.0, 0.5) * 3.0 * om1 / (3.0 * om2)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
    print(f"[PASS] criterion 10: deviation of the closed form from exact "
          f"Im rho_12: median {np.median(devs):.3g}, max {max(devs):.3g} "
          f"(documented, not thresholded)")


def test_criterion_11_determinism(fig4c_map):
    """Criteria 5 and 7 outputs byte-identical for threads = 1 and 8."""
    out1, _ = _run_map(fig4c_map["tmp"], _map_config(), threads=1)
    for stem in ("map.csv", "boundary.csv"):
        a = open(os.path.join(fig4c_map["dir"], stem), "rb").read()
        b = open(os.path.join(out1, stem), "rb").read()
        assert a == b, f"{stem} differs between threads=8 and threads=1"
    # criterion 5 output: the reference operating points, twice
    tmp = fig4c_map["tmp"]
    cfg_path = os.path.join(tmp, "pt.json")
    with open(cfg_path, "w") as fh:
        json.dump({"solver": {"seed_grid": 12}}, fh)
    outs = []
    for tag in ("p1", "p2"):
        out = os.path.join(tmp, tag)
        assert main(["point", "--config", cfg_path, "--out", out,
                     "--i1", "2.56", "--i2", "0.05"]) == EXIT_OK
        outs.append(open(os.path.join(out, "point.csv"), "rb").read())
    assert outs[0] == outs[1]
    print("[PASS] criterion 11: byte-identical across thread counts and reruns")
