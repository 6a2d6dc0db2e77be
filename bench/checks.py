"""Correctness checks of the CLI outputs against the independent oracle.

Each check returns a list of failure messages; an empty list means the
outputs passed. Nothing is compared with a stored copy of earlier output:
every expectation is either a property the method must have or a value the
oracle computes from the model.
"""

from __future__ import annotations

import os

import numpy as np

from oracle import Reference, RootCounter

# Outputs carry 9 significant digits. An operating point read back from them
# satisfies I_j = I_j0 + R_j eta_j(I) I_j to about 1e-8 relative.
FIXED_POINT_TOL = 1e-6
# The reference eta at an intensity read back from the outputs matches the
# printed eta to about 1e-6 relative at worst (deep absorption, where
# ln(eta) is steep in I); scaling eta by 1.001 moves it by 1e-3.
ETA_TOL = 2e-5
# Two passes on the same single branch converge to the same point to the
# iteration tolerance (1e-12) amplified near folds; branches differ by O(1).
PASS_AGREEMENT_TOL = 1e-6


def read_table(path: str) -> dict[str, np.ndarray | list]:
    """Columns of a CLI csv file, floats where every entry parses."""
    header, rows = None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    cols = {}
    for k, name in enumerate(header):
        values = [r[k] for r in rows]
        try:
            cols[name] = np.array([float(v) for v in values])
        except ValueError:
            cols[name] = values
    return cols


# --- maps ------------------------------------------------------------------

def one_root_etas_consistent(reference: Reference, cav, I10, I20, eta_a, eta_b):
    """Whether (eta_a, eta_b), in one of the two orders, is the reference eta
    at the operating point it implies, I_j = I_j0 / (1 - R_j eta_j)."""
    ok = np.zeros(len(I10), dtype=bool)
    for e1, e2 in ((eta_a, eta_b), (eta_b, eta_a)):
        r1, r2 = reference.etas(I10 / (1.0 - cav[0] * e1), I20 / (1.0 - cav[1] * e2))
        ok |= (np.abs(r1 / e1 - 1.0) <= ETA_TOL) & (np.abs(r2 / e2 - 1.0) <= ETA_TOL)
    return ok


def oracle_map_counts(reference: Reference, a1, a2, program: np.ndarray) -> np.ndarray:
    """Dense-grid root count of every cell of a map.

    A table over the whole window counts every cell. Near a fold two roots
    lie closer than a table step, so the cells that hold three roots by either
    count, or an even count by the oracle's, are counted again with their
    neighbours on a table over just their region, with steps like those of a
    table over the bistable band.
    """
    coarse = RootCounter(reference, (a1[0], a1[-1]), (a2[0], a2[-1]), n=200)
    counts = np.array([[coarse.count(x, y) for y in a2] for x in a1])
    near = (program == 3) | (counts != 1)
    if not near.any():
        return counts
    grown = near.copy()
    grown[1:] |= near[:-1]
    grown[:-1] |= near[1:]
    grown[:, 1:] |= grown[:, :-1].copy()
    grown[:, :-1] |= grown[:, 1:].copy()
    rows, cols = np.nonzero(grown)
    fine = RootCounter(reference, (a1[rows.min()], a1[rows.max()]),
                       (a2[cols.min()], a2[cols.max()]), n=300)
    for x, y in zip(rows, cols):
        counts[x, y] = fine.count(a1[x], a2[y])
    return counts


def operating_point_fails(reference: Reference, R, I0, table, what: str) -> list[str]:
    """Failures of operating points printed with columns I1_in, I2_in, eta1
    and eta2: each eta must be the reference eta at the point's internal
    intensities, which must satisfy I_j_in = I_j0 + R_j eta_j(I_in) I_j_in.
    `I0` holds the inputs (I1_0, I2_0); `what` names the points in messages."""
    fails = []
    ref = reference.etas(table["I1_in"], table["I2_in"])
    for j in (1, 2):
        Iin, e_ref = table[f"I{j}_in"], ref[j - 1]
        fixed = np.abs(Iin - I0[j - 1] - R[j - 1] * e_ref * Iin) / Iin > FIXED_POINT_TOL
        if fixed.any():
            fails.append(f"{what}: {int(fixed.sum())} off "
                         f"I{j}_in = I{j}_0 + R{j} eta{j}(I_in) I{j}_in")
        off = np.abs(table[f"eta{j}"] / e_ref - 1.0) > ETA_TOL
        if off.any():
            fails.append(f"{what}: eta{j} differs from the reference at {int(off.sum())}")
    return fails


def three_root_etas_consistent(reference: Reference, cav, I10, I20, roots,
                               min_eta, max_eta) -> list[str]:
    """Failures of one three-root cell's eta values.

    `roots` is the table of the cell's operating points that `ringob point`
    prints; each must pass `operating_point_fails`. The map's min_eta and
    max_eta must each be the eta of one of those roots.
    """
    if roots is None or len(roots.get("I1_in", ())) == 0:
        return ["`ringob point` found no operating point"]
    fails = operating_point_fails(reference, cav, (I10, I20), roots, "roots")
    visited = np.concatenate([roots["eta1"], roots["eta2"]])
    for name, value in (("min_eta", min_eta), ("max_eta", max_eta)):
        if not (np.abs(visited / value - 1.0) <= ETA_TOL).any():
            fails.append(f"map {name} {value:.6g} is the eta of no root")
    return fails


def check_map(out_dir: str, grid: dict, reference: Reference, corners: bool,
              roots_at) -> tuple[list[str], dict]:
    """Checks of map.csv; `corners` adds the acceptance window's topology.

    `roots_at(I1_0, I2_0)` returns the table of operating points that
    `ringob point` prints for one input pair, or None if the command failed.
    It is called for every three-root cell. The stats hold the number of
    `failed` cells even when other checks fail.
    """
    m = reference.model
    cav = (m.R1, m.R2)
    t = read_table(os.path.join(out_dir, "map.csv"))
    n1, n2 = grid["i1_steps"], grid["i2_steps"]
    region = np.array(t["region"])
    stats = {"failed": int((region == "failed").sum())}
    fails = []
    if len(t["i"]) != n1 * n2:
        return [f"map has {len(t['i'])} cells, expected {n1 * n2}"], stats
    a1 = np.geomspace(grid["i1_min"], grid["i1_max"], n1)
    a2 = np.geomspace(grid["i2_min"], grid["i2_max"], n2)
    i = t["i"].astype(int)
    j = t["j"].astype(int)
    if not (np.allclose(t["I1_0"], a1[i], rtol=1e-8, atol=0)
            and np.allclose(t["I2_0"], a2[j], rtol=1e-8, atol=0)):
        fails.append("cell inputs differ from the configured grid")
    count = t["solution_count"].astype(int)
    stable = t["stable_count"].astype(int)
    if stats["failed"]:
        fails.append(f"{stats['failed']} failed cells")
    even = ~np.isin(count, (1, 3))
    if even.any():
        fails.append(f"{int(even.sum())} cells with a root count other than 1 or 3")
    three = count == 3
    if (stable[three] != 2).any():
        fails.append(f"{int((stable[three] != 2).sum())} three-root cells without "
                     "exactly two stable roots")
    if ((region == "bistable") != three).any():
        fails.append("bistable label differs from the three-root cells")
    if corners:
        first = (i == 0) & (j == 0)
        last = (i == n1 - 1) & (j == n2 - 1)
        if region[first][0] != "absorbing":
            fails.append(f"cell (0, 0) is {region[first][0]}, expected absorbing")
        if region[last][0] != "transparent":
            fails.append(f"last cell is {region[last][0]}, expected transparent")

    single = count == 1
    consistent = one_root_etas_consistent(reference, cav, t["I1_0"][single], t["I2_0"][single],
                                          t["min_eta"][single], t["max_eta"][single])
    if not consistent.all():
        fails.append(f"{int((~consistent).sum())} one-root cells whose eta differs "
                     "from the reference at their operating point")

    for k in np.nonzero(three)[0]:
        x, y = float(a1[i[k]]), float(a2[j[k]])
        for f in three_root_etas_consistent(reference, cav, x, y, roots_at(x, y),
                                            t["min_eta"][k], t["max_eta"][k]):
            fails.append(f"cell ({i[k]}, {j[k]}): {f}")

    program = np.zeros((n1, n2), dtype=int)
    program[i, j] = count
    oracle = oracle_map_counts(reference, a1, a2, program)[i, j]
    differ = np.nonzero(oracle != count)[0]
    for k in differ[:5]:
        fails.append(f"cell ({i[k]}, {j[k]}): {count[k]} roots, dense-grid oracle "
                     f"finds {oracle[k]}")
    if len(differ) > 5:
        fails.append(f"... {len(differ)} cells differ from the oracle in all")
    stats.update(cells=int(len(count)), three_root_cells=int(three.sum()),
                 oracle_checked_cells=int(len(oracle)))
    return fails, stats


# --- sweeps ----------------------------------------------------------------

def check_sweep(out_dir: str, sweep: dict, reference: Reference,
                label: str) -> tuple[list[str], dict]:
    """Checks of one sweep's files. The stats hold the number of unconverged
    samples even when other checks fail."""
    m = reference.model
    R = (m.R1, m.R2)
    fwd = read_table(os.path.join(out_dir, "sweep_forward.csv"))
    bwd = read_table(os.path.join(out_dir, "sweep_backward.csv"))
    steps = sweep["steps"]
    stats = {"unconverged": sum(int((tr["converged"] != 1).sum()) for tr in (fwd, bwd))}
    fails = []
    for name, tr in (("forward", fwd), ("backward", bwd)):
        if len(tr["t"]) != steps:
            return [f"{label} {name}: {len(tr['t'])} samples, expected {steps}"], stats
        bad = tr["converged"] != 1
        if bad.any():
            fails.append(f"{label} {name}: {int(bad.sum())} unconverged samples")
            continue
        fails += operating_point_fails(reference, R, (tr["I1_0"], tr["I2_0"]), tr,
                                       f"{label} {name} samples")
    if fails:
        return fails, stats

    counter = RootCounter(reference, (fwd["I1_0"].min(), fwd["I1_0"].max()),
                          (fwd["I2_0"].min(), fwd["I2_0"].max()))
    roots = np.array([counter.count(x, y) for x, y in zip(fwd["I1_0"], fwd["I2_0"])])
    single = roots == 1
    for j in (1, 2):
        a, b = fwd[f"I{j}_out"][single], bwd[f"I{j}_out"][single]
        if (np.abs(a - b) > PASS_AGREEMENT_TOL * np.maximum(np.abs(a), np.abs(b))).any():
            fails.append(f"{label}: passes disagree on output {j} where the oracle "
                         "finds a single root")

    jf = read_table(os.path.join(out_dir, "jumps_forward.csv"))
    jb = read_table(os.path.join(out_dir, "jumps_backward.csv"))
    area = read_table(os.path.join(out_dir, "loop_area.csv"))
    if not (area["area"] > 0).all():
        fails.append(f"{label}: loop areas {area['area'].tolist()} not both positive")

    multi = np.nonzero(roots == 3)[0]
    stats.update(samples=2 * steps, multi_root_samples=int(len(multi)))
    if sweep["kind"] == "axis":
        fails += _check_axis_jumps(sweep, fwd["I1_0"], jf, jb, multi, label)
    else:
        for name, jt in (("forward", jf), ("backward", jb)):
            seen = set(np.asarray(jt.get("output_index", []), dtype=int).tolist())
            if seen != {1, 2}:
                fails.append(f"{label} {name}: outputs {sorted(seen)} jump, expected 1 and 2")
    return fails, stats


def _check_axis_jumps(sweep, x, jf, jb, multi, label) -> list[str]:
    """One up-jump of output 1 per pass, each within a step of its edge of
    the oracle's multi-root interval: forward at the upper, backward at the
    lower edge."""
    fails = []
    ups = []
    for name, jt in (("forward", jf), ("backward", jb)):
        if "t" not in jt:
            fails.append(f"{label} {name}: no jumps")
            continue
        up = (jt["output_index"] == 1) & (jt["after"] > jt["before"])
        if up.sum() != 1:
            fails.append(f"{label} {name}: {int(up.sum())} up-jumps of output 1, expected 1")
            continue
        ups.append(sweep["start"] + float(jt["t"][up][0]) * (sweep["stop"] - sweep["start"]))
    if fails:
        return fails
    up_i1, down_i1 = ups
    if not up_i1 > down_i1:
        fails.append(f"{label}: forward jump at I1_0 = {up_i1:.4f} is not above the "
                     f"backward one at {down_i1:.4f}")
    if len(multi) == 0 or np.any(np.diff(multi) != 1):
        return fails + [f"{label}: oracle multi-root samples {multi.tolist()} "
                        "are not one interval"]
    step = (sweep["stop"] - sweep["start"]) / (sweep["steps"] - 1)
    lower = x[multi[0]] - 0.5 * step
    upper = x[multi[-1]] + 0.5 * step
    if abs(up_i1 - upper) > step:
        fails.append(f"{label}: forward jump at {up_i1:.4f}, oracle upper edge {upper:.4f}")
    if abs(down_i1 - lower) > step:
        fails.append(f"{label}: backward jump at {down_i1:.4f}, oracle lower edge {lower:.4f}")
    return fails
