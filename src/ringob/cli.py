"""Command-line entry point.

Subcommands: steady, point, map, sweep, approx. All numeric output is
formatted with 9 significant digits (lowercase scientific) so identical
configs produce byte-identical files; every file starts with a comment
header listing the resolved configuration. Frequencies are in units of
1e8 Hz and intensities in units of Omega^2 throughout.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import atom as atom_mod
from .atom import (
    ApproxCellResponse,
    CellResponse,
    SteadyStateProblem,
    two_level_im_rho12,
    two_level_im_rho32,
)
from .config import ParseError, RunConfig, ValidationError, load_config
from .domain import (
    BOUNDARY_COLUMNS,
    MAP_COLUMNS,
    REGION_FAILED,
    boundary_rows,
    map_domain,
    map_rows,
)
from .feedback import InputPoint, NoSolution, find_all_solutions
from .sweep import JUMP_COLUMNS, SWEEP_COLUMNS, jump_rows, run_sweep, trace_rows

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2


def fmt(value) -> str:
    """Deterministic cell formatting: 9 significant digits for floats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.8e}"
    return str(value)


def _header_lines(cfg: RunConfig) -> list[str]:
    lines = ["# units: frequency 1e8 Hz, intensity Omega^2"]
    for key, val in cfg.flat_items():
        lines.append(f"# {key} = {fmt(val)}")
    return lines


class _Emitter:
    """Writes output tables atomically; removes everything it wrote on error."""

    def __init__(self, out_dir: str, cfg: RunConfig):
        self.out_dir = out_dir
        self.cfg = cfg
        self.written: list[str] = []

    def emit(self, stem: str, columns: list[str], rows: list[list]):
        os.makedirs(self.out_dir, exist_ok=True)
        ext = "json" if self.cfg.format == "json" else "csv"
        path = os.path.join(self.out_dir, f"{stem}.{ext}")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            if self.cfg.format == "json":
                fh.write(self._json_text(columns, rows))
            else:
                for line in _header_lines(self.cfg):
                    fh.write(line + "\n")
                fh.write(",".join(columns) + "\n")
                for row in rows:
                    fh.write(",".join(fmt(v) for v in row) + "\n")
        os.replace(tmp, path)
        self.written.append(path)
        return path

    def _json_text(self, columns, rows) -> str:
        # hand-rolled so floats keep the documented 9-significant-digit form
        def cell(v):
            if isinstance(v, str):
                return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
            if isinstance(v, bool):
                return "true" if v else "false"
            if isinstance(v, (int, np.integer)):
                return str(int(v))
            # JSON has no NaN or infinity
            if isinstance(v, float) and not np.isfinite(v):
                return "null"
            return fmt(v)

        out = ["{", '  "config": {']
        items = self.cfg.flat_items()
        for i, (k, v) in enumerate(items):
            comma = "," if i + 1 < len(items) else ""
            out.append(f'    "{k}": {cell(v)}{comma}')
        out.append("  },")
        out.append('  "columns": [' + ", ".join(f'"{c}"' for c in columns) + "],")
        out.append('  "rows": [')
        for i, row in enumerate(rows):
            comma = "," if i + 1 < len(rows) else ""
            out.append("    [" + ", ".join(cell(v) for v in row) + "]" + comma)
        out.append("  ]")
        out.append("}")
        return "\n".join(out) + "\n"

    def cleanup(self):
        for path in self.written:
            try:
                os.remove(path)
            except OSError:
                pass


def cmd_steady(cfg: RunConfig, emitter: _Emitter) -> int:
    response = CellResponse(cfg.atom.build(), cfg.constants.build())
    dm = response.problem.solve(cfg.steady.omega1, cfg.steady.omega2)
    om = np.array([[cfg.steady.omega1], [cfg.steady.omega2]])
    coh = np.array([[dm.rho[1, 0]], [dm.rho[1, 2]]])   # rho_21, rho_23
    # chi_j and eta_j are undefined for an undriven mode
    driven = om > 0
    chi, _, _, eta = response.optics(np.where(driven, om, 1.0), coh)
    rows = []
    for i in range(3):
        for j in range(3):
            rows.append([f"rho_{i+1}{j+1}", float(dm.rho[i, j].real), float(dm.rho[i, j].imag)])
    rows.append(["residual", dm.residual, 0.0])
    rows.append(["trace_defect", dm.trace_defect, 0.0])
    rows.append(["min_eigenvalue", dm.min_eigenvalue, 0.0])
    for k in range(2):
        if driven[k, 0]:
            rows.append([f"chi_{k+1}", chi[k, 0].real, chi[k, 0].imag])
            rows.append([f"eta_{k+1}", eta[k, 0], 0.0])
        else:
            rows.append([f"chi_{k+1}", float("nan"), float("nan")])
            rows.append([f"eta_{k+1}", float("nan"), 0.0])
    emitter.emit("steady", ["quantity", "re", "im"], rows)
    return EXIT_OK


POINT_COLUMNS = ["index", "I1_in", "I2_in", "eta1", "eta2", "I1_out", "I2_out",
                 "stability", "marginal", "norm", "residual"]


def cmd_point(cfg: RunConfig, emitter: _Emitter) -> int:
    atom = cfg.atom.build()
    response = CellResponse(atom, cfg.constants.build())
    inp = InputPoint(cfg.point.I1_0, cfg.point.I2_0)
    ops = find_all_solutions(inp, cfg.cavity.build(), cfg.solver.build(), response)
    rows = [
        [k, op.I1_in, op.I2_in, op.eta1, op.eta2, op.I1_out, op.I2_out,
         op.stability, op.marginal, op.norm, op.residual]
        for k, op in enumerate(ops)
    ]
    emitter.emit("point", POINT_COLUMNS, rows)
    return EXIT_OK


def cmd_map(cfg: RunConfig, emitter: _Emitter) -> int:
    atom = cfg.atom.build()
    response = CellResponse(atom, cfg.constants.build())
    bmap = map_domain(cfg.grid.build(), cfg.cavity.build(), response, cfg.solver.build())
    failed = int((bmap.region == REGION_FAILED).sum())
    print(f"map: {bmap.region.size} cells, {failed} failed, "
          f"{bmap.bistable_cells()} bistable, {bmap.table_points} table points, "
          f"{bmap.fold_squares} fold squares, {bmap.fallback_cells} fallback cells",
          file=sys.stderr)
    if failed == bmap.region.size:
        print("numerical failure: no cell of the map has an operating point",
              file=sys.stderr)
        return EXIT_NUMERIC
    emitter.emit("map", MAP_COLUMNS, map_rows(bmap))
    emitter.emit("boundary", BOUNDARY_COLUMNS, boundary_rows(bmap))
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, emitter: _Emitter) -> int:
    atom = cfg.atom.build()
    response = CellResponse(atom, cfg.constants.build())
    result = run_sweep(cfg.sweep.build(), cfg.cavity.build(), response)
    passes = (result.forward, result.backward)
    print(f"sweep: {sum(len(p.t) for p in passes)} samples, "
          f"{sum(int((~p.converged).sum()) for p in passes)} unconverged, "
          f"{len(result.jumps_forward) + len(result.jumps_backward)} jumps, "
          f"{result.fallbacks} fallbacks", file=sys.stderr)
    emitter.emit("sweep_forward", SWEEP_COLUMNS, trace_rows(result.forward))
    emitter.emit("sweep_backward", SWEEP_COLUMNS, trace_rows(result.backward))
    emitter.emit("jumps_forward", JUMP_COLUMNS, jump_rows(result.jumps_forward))
    emitter.emit("jumps_backward", JUMP_COLUMNS, jump_rows(result.jumps_backward))
    emitter.emit("loop_area", ["output_index", "area"],
                 [[1, result.loop_area_1], [2, result.loop_area_2]])
    return EXIT_OK


APPROX_COLUMNS = ["omega1", "omega2", "delta",
                  "im_rho12_exact", "im_rho12_approx",
                  "im_rho32_exact", "im_rho32_approx",
                  "rel_dev_12", "rel_dev_32"]


def cmd_approx(cfg: RunConfig, emitter: _Emitter) -> int:
    if not cfg.atom.gamma_2to3 > 0:
        raise ValueError("atom.gamma_2to3: must be positive for the two-level approximation")
    atom = cfg.atom.build()
    constants = cfg.constants.build()
    delta = atom.eps1
    g21 = float(atom.gamma[1, 0])
    g23 = float(atom.gamma[1, 2])
    G21 = float(atom.Gamma[0, 1])
    omegas = np.geomspace(cfg.approx.omega_min, cfg.approx.omega_max,
                          cfg.approx.omega_steps)
    om1, om2 = (mesh.ravel() for mesh in np.meshgrid(omegas, omegas, indexing="ij"))
    problem = SteadyStateProblem(atom)
    x, _, ok = problem.solve_batch(om1, om2)
    if not ok.all():    # raises SingularSteadyState at the first failed point
        problem.solve(om1[~ok][0], om2[~ok][0])
    rows = []
    # Im rho_12 = x[3] and Im rho_32 = -Im rho_23 = -x[7] (see density_matrix)
    for o1, o2, exact12, exact32 in zip(om1.tolist(), om2.tolist(),
                                        x[:, 3].tolist(), (-x[:, 7]).tolist()):
        try:
            approx12 = two_level_im_rho12(o1, o2, delta, g21, G21)
            approx32 = two_level_im_rho32(o1, o2, delta, g21, g23, G21)
        except atom_mod.DegenerateDenominator:
            approx12 = float("nan")
            approx32 = float("nan")
        dev12 = abs(approx12 - exact12) / max(abs(exact12), 1e-300)
        dev32 = abs(approx32 - exact32) / max(abs(exact32), 1e-300)
        rows.append([o1, o2, delta, exact12, approx12, exact32, approx32, dev12, dev32])
    emitter.emit("approx_table", APPROX_COLUMNS, rows)

    grid = cfg.grid.build()
    cav = cfg.cavity.build()
    solver = cfg.solver.build()
    for stem, response in (
        ("map_exact", CellResponse(atom, constants)),
        ("map_approx", ApproxCellResponse(atom, constants)),
    ):
        bmap = map_domain(grid, cav, response, solver)
        emitter.emit(stem, MAP_COLUMNS, map_rows(bmap))
        emitter.emit(f"boundary_{stem.split('_')[1]}", BOUNDARY_COLUMNS,
                     boundary_rows(bmap))
    return EXIT_OK


COMMANDS = {
    "steady": cmd_steady,
    "point": cmd_point,
    "map": cmd_map,
    "sweep": cmd_sweep,
    "approx": cmd_approx,
}


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _number(kind):
    """Flag type that parses `kind` but passes unparsable text on unchanged,
    so that load_config rejects it under the config key's name."""
    def parse(text: str):
        try:
            return kind(text)
        except ValueError:
            return text
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ringob",
                     description="Two-loop ring-cavity bistability simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    # every flag but --config overrides the config key named by its dest
    def common(p):
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--out", dest="output_dir", help="output directory")
        p.add_argument("--threads", type=_number(int),
                       help="accepted for compatibility; maps and sweeps run "
                            "on one thread")
        p.add_argument("--format", help="csv or json")

    p = sub.add_parser("steady", help="steady state for one (omega1, omega2)")
    common(p)
    p.add_argument("--omega1", dest="steady.omega1", type=_number(float))
    p.add_argument("--omega2", dest="steady.omega2", type=_number(float))

    p = sub.add_parser("point", help="all operating points for one input pair")
    common(p)
    p.add_argument("--i1", dest="point.I1_0", type=_number(float),
                   help="input intensity I1_0")
    p.add_argument("--i2", dest="point.I2_0", type=_number(float),
                   help="input intensity I2_0")

    for name, help_text in (
        ("map", "bistability map over the configured input grid"),
        ("sweep", "quasi-static hysteresis sweep"),
        ("approx", "closed-form vs exact comparison table and maps"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    flags = vars(args)
    command, config = flags.pop("command"), flags.pop("config")
    overrides = {key: value for key, value in flags.items() if value is not None}
    try:
        if config is not None:
            cfg = load_config(source=config, overrides=overrides)
        else:
            cfg = load_config(text="{}", overrides=overrides)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    emitter = _Emitter(cfg.output_dir, cfg)
    try:
        return COMMANDS[command](cfg, emitter)
    except (NoSolution, atom_mod.SingularSteadyState, atom_mod.DegenerateDenominator,
            np.linalg.LinAlgError, FloatingPointError, ArithmeticError) as exc:
        emitter.cleanup()
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, ParseError, ValidationError) as exc:
        emitter.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
