"""Configuration schema and command-line plumbing: defaults, validation
diagnostics, exit codes, file emission and byte-determinism."""

import glob
import json
import os
import re
from dataclasses import fields

import numpy as np
import pytest

from ringob import cli, feedback
from ringob.atom import CellResponse, DriveParams, OpticalConstants, steady_state
from ringob.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, _Emitter, cmd_steady, fmt, main
from ringob.config import ParseError, ValidationError, load_config
from ringob.domain import GridSpec
from ringob.sweep import AxisSweep, ParametricPath

NAN, INF = float("nan"), float("inf")
PRESETS = sorted(glob.glob(
    os.path.join(os.path.dirname(__file__), "..", "presets", "*.json")))


class TestDefaults:
    def test_empty_config_is_appendix_defaults(self):
        cfg = load_config(text="{}")
        assert cfg.atom.eps1 == 0.7
        assert cfg.atom.eps2 == -0.7
        assert cfg.atom.gamma_2to1 == 3.0
        assert cfg.atom.gamma_2to3 == 3.0
        assert cfg.atom.Gamma12 == 0.5
        assert cfg.atom.Gamma23 == 0.5
        assert cfg.atom.Gamma13 == 0.0
        assert cfg.cavity.R1 == 0.6 and cfg.cavity.R2 == 0.6
        assert cfg.constants.Na == 1e12
        assert cfg.constants.D1 == 1e-18
        assert cfg.constants.L == 5.0
        assert cfg.format == "csv"

    def test_empty_text_equals_empty_object(self):
        assert load_config(text="").flat_items() == load_config(text="{}").flat_items()

    def test_atom_build_maps_rates(self):
        atom = load_config(text="{}").atom.build()
        assert atom.gamma[1, 0] == 3.0       # decay 2 -> 1
        assert atom.gamma[1, 2] == 3.0       # decay 2 -> 3
        assert atom.Gamma[0, 1] == 0.5
        assert atom.Gamma[0, 2] == 0.0

    def test_flat_items_deterministic(self):
        a = load_config(text="{}").flat_items()
        b = load_config(text="{}").flat_items()
        assert a == b


class TestValidation:
    def test_unknown_top_key(self):
        with pytest.raises(ValidationError, match="unknown key nonsense"):
            load_config(text='{"nonsense": 1}')

    def test_unknown_section_key(self):
        with pytest.raises(ValidationError, match="atom.bogus"):
            load_config(text='{"atom": {"bogus": 1}}')
        # solver constants, not settings
        for key, value in (("damping", 0.5), ("tol", 1e-10), ("newton_max_iter", 40),
                           ("dedup_radius", 1e-4)):
            with pytest.raises(ValidationError, match=f"^unknown key solver.{key}$"):
                load_config(text=json.dumps({"solver": {key: value}}))

    def test_reflectivity_bound(self):
        with pytest.raises(ValidationError, match="R1"):
            load_config(text='{"cavity": {"R1": 1.2}}')

    def test_parse_error_has_location(self):
        with pytest.raises(ParseError, match="line 1"):
            load_config(text="{broken")

    def test_type_errors(self):
        with pytest.raises(ValidationError, match="expected a number"):
            load_config(text='{"atom": {"eps1": "x"}}')
        with pytest.raises(ValidationError, match="expected an integer"):
            load_config(text='{"solver": {"seed_grid": 2.5}}')
        with pytest.raises(ValidationError, match="expected a boolean"):
            load_config(text='{"grid": {"log": 1}}')

    def test_format_choice(self):
        with pytest.raises(ValidationError, match="format"):
            load_config(text='{"format": "xml"}')

    def test_sweep_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            load_config(text='{"sweep": {"kind": "spiral"}}')

    def test_waypoints_shape(self):
        with pytest.raises(ValidationError, match="waypoints"):
            load_config(text='{"sweep": {"waypoints": [[1.0]]}}')

    def test_override_roundtrip(self):
        cfg = load_config(text='{"atom": {"gamma_2to1": 5.0}}')
        assert cfg.atom.build().gamma[1, 0] == 5.0

    # an accepted NaN would fail late under another name (eps1, i1_max)
    @pytest.mark.parametrize("section, key, literal", [
        ("atom", "eps1", "NaN"),
        ("grid", "i1_max", "NaN"),
        ("point", "I1_0", "Infinity"),
        ("constants", "D1", "-Infinity"),
        ("sweep", "waypoints", "[[1.0, NaN], [2.0, 0.05]]"),
    ])
    def test_non_finite_rejected(self, section, key, literal):
        with pytest.raises(ValidationError,
                           match=f"^{section}\\.{key}: expected a finite number"):
            load_config(text=f'{{"{section}": {{"{key}": {literal}}}}}')

    def test_relation_errors_name_key(self):
        with pytest.raises(ValidationError, match="^grid\\.i1_max: must be finite"):
            load_config(text='{"grid": {"i1_max": 0.001}}')

    def test_dotted_overrides(self):
        cfg = load_config(text='{"point": {"I1_0": 3.0}}',
                          overrides={"point.I1_0": 1.0, "threads": 2})
        assert cfg.point.I1_0 == 1.0 and cfg.threads == 2
        with pytest.raises(ValidationError, match="^unknown key point.I3_0"):
            load_config(text="{}", overrides={"point.I3_0": 1.0})


# every numeric key of the sections mirrored from a domain type
MIRRORED_KEYS = [
    (section, f.name)
    for section in ("constants", "cavity", "solver", "grid")
    for f in fields(getattr(load_config(text="{}"), section))
    if not isinstance(f.default, bool)
]


@pytest.mark.parametrize("literal", ["-1", "NaN"])
@pytest.mark.parametrize("section, key", MIRRORED_KEYS)
def test_cli_rejects_bad_value_naming_key(section, key, literal, tmp_path, capsys):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(f'{{"{section}": {{"{key}": {literal}}}}}')
    out = tmp_path / "o"
    assert main(["map", "--config", str(cfgp), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {section}.{key}: ")
    assert not out.exists()


# keys the schema no longer has: the thresholds are the constants
# domain.ETA_ABSORBING, domain.ETA_TRANSPARENT and sweep.JUMP_THRESHOLD, and
# the coupling and length overrides are covered by D_j and L
RETIRED_KEYS = [
    ("thresholds", "eta_absorbing"), ("thresholds", "eta_transparent"),
    ("thresholds", "jump_threshold"), ("constants", "C1"), ("constants", "C2"),
    ("constants", "include_length"), ("constants", "intensity_scale1"),
    ("constants", "intensity_scale2"),
]


@pytest.mark.parametrize("literal", ["-1", "NaN"])
@pytest.mark.parametrize("section, key", RETIRED_KEYS)
def test_cli_rejects_retired_key(section, key, literal, tmp_path, capsys):
    # unknown whatever the value, in a file or as an override
    cfgp = tmp_path / "c.json"
    cfgp.write_text(f'{{"{section}": {{"{key}": {literal}}}}}')
    out = tmp_path / "o"
    assert main(["map", "--config", str(cfgp), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: unknown key {section}.{key}\n"
    assert not out.exists()
    with pytest.raises(ValidationError, match=f"^unknown key {section}\\.{key}$"):
        load_config(text="{}", overrides={f"{section}.{key}": json.loads(literal)})


@pytest.mark.parametrize("argv, key", [
    (["steady", "--omega1", "nan"], "steady.omega1"),
    (["steady", "--omega2", "-1"], "steady.omega2"),
    (["point", "--i1", "nan"], "point.I1_0"),
    (["point", "--i2", "-0.5"], "point.I2_0"),
    (["point", "--i1", "inf"], "point.I1_0"),
    (["point", "--i2", "abc"], "point.I2_0"),
    (["map", "--threads", "-1"], "threads"),
    (["map", "--threads", "2.5"], "threads"),
    (["map", "--format", "xml"], "format"),
    (["approx", "--config", '{"atom": {"gamma_2to3": 0}}'], "atom.gamma_2to3"),
])
def test_cli_rejects_bad_flag_naming_key(argv, key, tmp_path, capsys):
    if "--config" in argv:  # the argument after it is the config's text
        i = argv.index("--config") + 1
        (tmp_path / "c.json").write_text(argv[i])
        argv = argv[:i] + [str(tmp_path / "c.json")] + argv[i + 1:]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below a file"])
def test_cli_rejects_unusable_output_dir(below, tmp_path, capsys, monkeypatch):
    # an existing file, or a path below one, is refused before the command runs
    monkeypatch.setattr(cli, "find_all_solutions", lambda *args: pytest.fail("ran"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = os.path.join(blocker, below) if below else str(blocker)
    assert main(["point", "--out", out]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: output_dir: {blocker} is not a directory\n"
    assert blocker.read_text() == ""


@pytest.mark.parametrize("build", [
    lambda: GridSpec(i1_max=NAN),
    lambda: GridSpec(i1_min=NAN),
    lambda: OpticalConstants(Na=NAN),
    lambda: OpticalConstants(D1=NAN),
    lambda: OpticalConstants(L=NAN),
    lambda: AxisSweep(axis=1, start=NAN, stop=1.0, steps=5, fixed=0.1),
    lambda: AxisSweep(axis=1, start=0.5, stop=1.0, steps=5, fixed=INF),
    lambda: ParametricPath(waypoints=[(1.0, NAN), (2.0, 0.05)], steps=5),
], ids=["grid-i1_max", "grid-i1_min",
        "constants-Na", "constants-D1", "constants-L",
        "axis-start", "axis-fixed", "path-waypoint"])
def test_domain_types_reject_non_finite(build):
    with pytest.raises(ValueError):
        build()


def test_presets_exist():
    names = {os.path.basename(p) for p in PRESETS}
    assert {"default.json", "high_q.json", "mid_q.json"} <= names


@pytest.mark.parametrize("path", PRESETS, ids=os.path.basename)
def test_preset_loads(path):
    load_config(source=path)


SMALL = {
    "grid": {"i1_min": 1.5, "i1_max": 3.5, "i1_steps": 6,
             "i2_min": 0.01, "i2_max": 0.4, "i2_steps": 6},
    "solver": {"seed_grid": 8},
    "sweep": {"kind": "axis", "axis": 1, "start": 2.0, "stop": 3.0,
              "steps": 10, "fixed": 0.05},
    "approx": {"omega_min": 0.5, "omega_max": 2.0, "omega_steps": 3},
}


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def read_table(path):
    header = None
    rows = []
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


class TestFormatting:
    def test_nine_significant_digits(self):
        assert fmt(np.pi) == "3.14159265e+00"
        assert fmt(1.0) == "1.00000000e+00"
        assert fmt(-2.5e-7) == "-2.50000000e-07"

    def test_ints_and_strings(self):
        assert fmt(3) == "3"
        assert fmt(True) == "true"
        assert fmt("stable") == "stable"


class TestCli:
    def test_steady_exit_ok(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["steady", "--out", out, "--omega1", "1.0",
                     "--omega2", "1.0"]) == EXIT_OK
        header, rows = read_table(os.path.join(out, "steady.csv"))
        assert header == ["quantity", "re", "im"]
        names = [r[0] for r in rows]
        assert "rho_22" in names and "eta_1" in names

    def test_steady_matches_cell_response(self):
        """steady's chi and eta rows equal CellResponse's at I_j = Omega_j^2."""
        class Rows:
            def emit(self, stem, columns, rows):
                self.rows = {row[0]: row[1:] for row in rows}

        cfg = load_config(text="{}", overrides={"steady.omega1": 2.3, "steady.omega2": 0.17})
        rows = Rows()
        assert cmd_steady(cfg, rows) == EXIT_OK
        constants = cfg.constants.build()
        response = CellResponse(cfg.atom.build(), constants)
        omega = np.array([2.3, 0.17])
        e1, e2, ok = response.etas(*(omega ** 2)[:, None])
        assert ok[0]
        rho = steady_state(cfg.atom.build(), DriveParams(*omega)).rho
        for mode, eta, coh in ((1, e1[0], rho[1, 0]), (2, e2[0], rho[1, 2])):
            chi = constants.coupling(mode) * coh / omega[mode - 1]
            re, im = rows.rows[f"chi_{mode}"]
            assert re == pytest.approx(chi.real, rel=1e-12)
            assert im == pytest.approx(chi.imag, rel=1e-12)
            assert rows.rows[f"eta_{mode}"] == [pytest.approx(eta, rel=1e-12), 0.0]

    def test_steady_undriven_mode(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["steady", "--out", out, "--omega1", "0", "--omega2", "1"]) == EXIT_OK
        _, rows = read_table(os.path.join(out, "steady.csv"))
        rows = {row[0]: row[1:] for row in rows}
        assert rows["chi_1"] == ["nan", "nan"]
        assert rows["eta_1"] == ["nan", "0.00000000e+00"]
        assert np.isfinite([float(v) for v in rows["chi_2"]]).all()
        assert 0.0 < float(rows["eta_2"][0]) <= 1.0 and rows["eta_2"][1] == "0.00000000e+00"

    def test_steady_numeric_failure(self, tmp_path):
        # undriven atom: degenerate steady state -> exit 2
        out = str(tmp_path / "o")
        code = main(["steady", "--out", out, "--omega1", "0", "--omega2", "0"])
        assert code == EXIT_NUMERIC
        assert not os.path.exists(os.path.join(out, "steady.csv"))

    def test_point_zero_feedback(self, tmp_path):
        out = str(tmp_path / "o")
        cfgp = tmp_path / "c.json"
        cfgp.write_text('{"cavity": {"R1": 0.0, "R2": 0.0}}')
        assert main(["point", "--config", str(cfgp), "--out", out,
                     "--i1", "1.25", "--i2", "0.5"]) == EXIT_OK
        header, rows = read_table(os.path.join(out, "point.csv"))
        assert len(rows) == 1
        assert float(rows[0][header.index("I1_in")]) == 1.25
        assert float(rows[0][header.index("I2_in")]) == 0.5

    def test_bad_config_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"cavity": {"R1": 2}}')
        assert main(["map", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_non_finite_config_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"cavity": {"R1": NaN}}')
        out = tmp_path / "o"
        assert main(["map", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_missing_config_exit_1(self, tmp_path):
        assert main(["map", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_unknown_subcommand_exit_1(self):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_map_emits_both_files(self, small_config, tmp_path):
        out = str(tmp_path / "o")
        assert main(["map", "--config", small_config, "--out", out]) == EXIT_OK
        header, rows = read_table(os.path.join(out, "map.csv"))
        assert header == ["i", "j", "I1_0", "I2_0", "solution_count",
                          "stable_count", "region", "min_eta", "max_eta"]
        assert len(rows) == 36
        bheader, _ = read_table(os.path.join(out, "boundary.csv"))
        assert bheader == ["chain_id", "vertex_index", "I1_0", "I2_0"]

    def test_map_summary_on_stderr(self, small_config, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert main(["map", "--config", small_config, "--out", out]) == EXIT_OK
        _, rows = read_table(os.path.join(out, "map.csv"))
        failed = sum(r[6] == "failed" for r in rows)
        bistable = sum(r[6] == "bistable" for r in rows)
        err = capsys.readouterr().err
        match = re.fullmatch(
            rf"map: 36 cells, {failed} failed, {bistable} bistable, (\d+) table points, "
            r"(\d+) fold squares, 0 fallback cells\n", err)
        assert match, err
        # the table and its refinement at the fold: 81 nodes per fold square
        table, fold = (int(g) for g in match.groups())
        assert table == 200 ** 2 + 81 * fold

    def test_map_all_cells_failed_exit_2(self, tmp_path, capsys, monkeypatch):
        # one Newton iteration converges nowhere, so every cell fails
        monkeypatch.setattr(feedback, "NEWTON_MAX_ITER", 1)
        cfg = dict(SMALL, solver={"seed_grid": 8})
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["map", "--config", str(cfgp), "--out", str(out)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("map: 36 cells, 36 failed, 0 bistable, ")
        assert "numerical failure" in err
        assert not (out / "map.csv").exists()

    def test_sweep_emits_traces_and_jumps(self, small_config, tmp_path):
        out = str(tmp_path / "o")
        assert main(["sweep", "--config", small_config, "--out", out]) == EXIT_OK
        header, rows = read_table(os.path.join(out, "sweep_forward.csv"))
        assert header == ["t", "I1_0", "I2_0", "I1_in", "I2_in", "eta1",
                          "eta2", "I1_out", "I2_out", "converged"]
        assert len(rows) == 10
        jheader, _ = read_table(os.path.join(out, "jumps_forward.csv"))
        assert jheader == ["t", "output_index", "before", "after"]

    def test_sweep_summary_on_stderr(self, small_config, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert main(["sweep", "--config", small_config, "--out", out]) == EXIT_OK
        unconverged = jumps = 0
        for direction in ("forward", "backward"):
            _, rows = read_table(os.path.join(out, f"sweep_{direction}.csv"))
            unconverged += sum(r[9] == "0" for r in rows)
            _, jump_rows = read_table(os.path.join(out, f"jumps_{direction}.csv"))
            jumps += len(jump_rows)
        # fallbacks: the cold start and the jump sample of each pass
        assert capsys.readouterr().err == (
            f"sweep: 20 samples, {unconverged} unconverged, {jumps} jumps, "
            f"4 fallbacks\n")

    def test_header_records_config(self, small_config, tmp_path):
        out = str(tmp_path / "o")
        main(["point", "--config", small_config, "--out", out,
              "--i1", "1.0", "--i2", "1.0"])
        text = open(os.path.join(out, "point.csv")).read()
        assert "# cavity.R1 = 6.00000000e-01" in text
        assert "# point.I1_0 = 1.00000000e+00" in text
        assert "# solver.seed_grid = 8" in text
        assert text.startswith("# units:")

    def test_byte_identical_reruns(self, small_config, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            assert main(["point", "--config", small_config, "--out", out,
                         "--i1", "2.56", "--i2", "0.05"]) == EXIT_OK
        a = open(os.path.join(out1, "point.csv"), "rb").read()
        b = open(os.path.join(out2, "point.csv"), "rb").read()
        assert a == b

    def test_json_format(self, small_config, tmp_path):
        out = str(tmp_path / "o")
        assert main(["point", "--config", small_config, "--out", out,
                     "--i1", "1.0", "--i2", "1.0", "--format", "json"]) == EXIT_OK
        data = json.load(open(os.path.join(out, "point.json")))
        assert data["columns"][0] == "index"
        assert data["config"]["cavity.R1"] == 0.6
        assert len(data["rows"]) >= 1

    def test_json_non_finite_is_null(self, tmp_path):
        cfg = load_config(text='{"format": "json"}')
        path = _Emitter(str(tmp_path), cfg).emit("t", ["a", "b", "c"], [[NAN, INF, -INF]])
        assert json.load(open(path))["rows"] == [[None, None, None]]

    def test_approx_emits_all_files(self, tmp_path):
        cfg = dict(SMALL)
        cfg["atom"] = {"eps1": 2.0}
        cfg["grid"] = {"i1_min": 0.5, "i1_max": 5.0, "i1_steps": 4,
                       "i2_min": 0.5, "i2_max": 5.0, "i2_steps": 4}
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(cfg))
        out = str(tmp_path / "o")
        assert main(["approx", "--config", str(cfgp), "--out", out]) == EXIT_OK
        for stem in ("approx_table", "map_exact", "map_approx",
                     "boundary_exact", "boundary_approx"):
            assert os.path.exists(os.path.join(out, f"{stem}.csv")), stem
        header, rows = read_table(os.path.join(out, "approx_table.csv"))
        assert header[:3] == ["omega1", "omega2", "delta"]
        assert len(rows) == 9
