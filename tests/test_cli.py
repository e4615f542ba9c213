import json
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy

from uavsense import ScenarioConfig
from uavsense.cli import PRESETS, build_manifest, main, render_results_csv
from uavsense.config import RunOptions, parse_config_file, parse_config_text
from uavsense.engine import RNG_SCHEME, SweepRow

HEADER = "sweep_param,sweep_value,beamformer,fusion,sigma_G_dBsm,delta,trials,hits,p_detect,ci95_halfwidth,seed"

SMALL_CONFIG_TEXT = """
scenario.uav_count = 4
scenario.grid_side = 8
scenario.area_side_m = 40.0
scenario.array_side = 4
scenario.symbols_per_frame = 8
scenario.subcarriers = 16
run.trials = 4
run.master_seed = 31
"""

ANTENNAS_SWEEP = "sweep.parameter = antennas\nsweep.values = 4\n"
COVERAGE_SWEEP = "sweep.parameter = cell_size_constant_coverage\nsweep.values = 4\n"
# The small scenario without its array side, which an antennas sweep sets.
SMALL_ANTENNAS_TEXT = SMALL_CONFIG_TEXT.replace("scenario.array_side = 4\n", "")
# The run-section fields a sweep reads; sweep.beamformers and sweep.fusions decide the other two.
SWEEP_RUN_KEYS = ("trials", "master_seed", "fast_path", "noise")
# One sweep section, its keys in field order and in another order.
SWEEP_SECTIONS = (
    "sweep.parameter = ground_rcs\nsweep.values = -30, -20\n",
    "sweep.values = -30, -20\nsweep.parameter = ground_rcs\n",
)


def _row(**kwargs):
    base = dict(
        sweep_param="none",
        sweep_value=0.0,
        beamformer="capon",
        fusion="avg",
        sigma_g_dbsm=-30.0,
        delta=0,
        trials=10,
        hits=7,
        p_detect=0.7,
        ci95_halfwidth=0.28400084506406975,
        seed=1,
    )
    base.update(kwargs)
    return SweepRow(**base)


def _echo_keys(manifest) -> set[str]:
    return {line.partition(" = ")[0] for line in manifest["config_text"].splitlines()}


def _write_config(tmp_path, text=SMALL_CONFIG_TEXT):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return str(path)


class TestCsv:
    def test_header_and_single_line(self):
        text = render_results_csv([_row()])
        lines = text.strip().split("\n")
        assert lines[0] == HEADER
        assert len(lines) == 2
        assert lines[1].startswith("none,0,capon,avg,-30,0,10,7,")

    def test_seventeen_digit_roundtrip(self, tmp_path, monkeypatch):
        value = 0.123456789012345678  # more digits than float precision
        row = _row(p_detect=value, ci95_halfwidth=1.9599999999999997e-05)
        monkeypatch.setattr("uavsense.cli.sweep_rows", lambda *args: [row])
        path = tmp_path / "out.csv"
        assert main(["run", "--config", _write_config(tmp_path), "--trials", "1", "--out", str(path)]) == 0
        line = path.read_text().strip().split("\n")[1].split(",")
        assert float(line[8]) == row.p_detect
        assert float(line[9]) == row.ci95_halfwidth

    def test_no_locale_separators(self):
        text = render_results_csv([_row(p_detect=0.5)])
        assert ";" not in text
        assert "," in text  # field separator only
        for field in text.strip().split("\n")[1].split(","):
            assert " " not in field


class TestManifest:
    def test_contains_seed_and_config(self):
        cfg = ScenarioConfig(master_seed=424242)
        manifest = build_manifest(cfg, RunOptions(), [_row(seed=424242)], [])
        # config_text is the one record of the inputs; parsed back it gives the typed objects.
        assert set(manifest) == {
            "tool", "version", "numpy_version", "scipy_version", "blas_threads", "cpu_count", "peak_rss_mb",
            "rng_scheme", "created_utc", "config_text", "errors", "results",
        }
        assert parse_config_text(manifest["config_text"], "run")[0] == cfg  # a run reads every scenario field
        assert manifest["results"][0]["seed"] == 424242

    def test_records_numpy_version_and_rng_scheme(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        manifest = build_manifest(ScenarioConfig(), RunOptions(), [_row()], [])
        assert manifest["numpy_version"] == np.__version__
        assert manifest["scipy_version"] == scipy.__version__
        assert manifest["rng_scheme"] == RNG_SCHEME
        assert manifest["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "2",
            "MKL_NUM_THREADS": None,
        }

    def test_json_run_records_cpu_count(self, tmp_path, monkeypatch):
        # Unpinned BLAS threads contend for the CPUs, so the manifest records
        # how many there were beside the thread variables.
        monkeypatch.setattr("uavsense.cli.os.cpu_count", lambda: 3)
        out = tmp_path / "m.json"
        assert main(["run", "--config", _write_config(tmp_path), "--format", "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["cpu_count"] == 3

    def test_records_peak_rss(self, monkeypatch):
        # The process's peak resident set, ru_maxrss of RUSAGE_SELF in MB of
        # 1e6 bytes (Linux reports KiB); null where the resource module is missing.
        resource = pytest.importorskip("resource")
        unit = 1 if sys.platform == "darwin" else 1024
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit / 1e6
        peak = build_manifest(ScenarioConfig(), RunOptions(), [_row()], [])["peak_rss_mb"]
        assert before <= peak <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit / 1e6
        assert json.loads(json.dumps(peak)) == peak
        monkeypatch.setitem(sys.modules, "resource", None)  # import resource raises ImportError
        assert build_manifest(ScenarioConfig(), RunOptions(), [_row()], [])["peak_rss_mb"] is None

    def test_options_record_every_run_option(self):
        options = RunOptions(beamformer="ls", fusion="prenorm", noise=False)
        manifest = build_manifest(ScenarioConfig(), options, [_row()], [])
        assert {f"run.{f.name}" for f in fields(RunOptions)} <= _echo_keys(manifest)
        assert parse_config_text(manifest["config_text"], "run")[1] == options

    def test_config_echo_reproduces_run(self, tmp_path):
        # The echoed config, fed back as input, yields identical rows; a run's
        # echo holds no sweep section, which run would refuse.
        cfg_path = _write_config(tmp_path)
        out1 = tmp_path / "a.json"
        assert main(["run", "--config", cfg_path, "--format", "json", "--out", str(out1)]) == 0
        manifest = json.loads(out1.read_text())
        assert "sweep." not in manifest["config_text"]
        echo_path = tmp_path / "echo.cfg"
        echo_path.write_text(manifest["config_text"])
        out2 = tmp_path / "b.json"
        assert main(["run", "--config", str(echo_path), "--format", "json", "--out", str(out2)]) == 0
        second = json.loads(out2.read_text())
        assert manifest["results"] == second["results"]
        assert manifest["config_text"] == second["config_text"]
        assert parse_config_text(manifest["config_text"], "run") == parse_config_file(cfg_path, "run")

    @pytest.mark.parametrize(
        "sweep_text, preset",
        [(SMALL_ANTENNAS_TEXT + ANTENNAS_SWEEP + "sweep.sigma_g_dbsm = -30, -5\n", []),
         (SMALL_CONFIG_TEXT, ["--preset", "fig7"]),
         (SMALL_CONFIG_TEXT.replace("scenario.area_side_m = 40.0\n", ""), ["--preset", "fig5"])],
        ids=["file", "preset", "preset_fig5"],
    )
    def test_sweep_config_echo_reproduces_sweep(self, tmp_path, sweep_text, preset):
        # A sweep's echo holds only the keys the sweep read, so `sweep --config` takes it back as its spec.
        cfg_path = _write_config(tmp_path, sweep_text)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        json_out = ["--format", "json", "--out"]
        assert main(["sweep", "--config", cfg_path, *preset, "--trials", "2", *json_out, str(out1)]) == 0
        manifest = json.loads(out1.read_text())
        keys = _echo_keys(manifest)
        assert keys.isdisjoint(["run.beamformer", "run.fusion", "scenario.ground_rcs_m2"])
        assert "sweep.parameter" in keys
        echo_path = tmp_path / "echo.cfg"
        echo_path.write_text(manifest["config_text"])
        assert main(["sweep", "--config", str(echo_path), *json_out, str(out2)]) == 0
        second = json.loads(out2.read_text())
        assert manifest["results"] == second["results"]
        assert manifest["config_text"] == second["config_text"]
        # Of the run section the echo holds only what the sweep read, and parsed back it gives what the sweep ran.
        assert {key for key in keys if key.startswith("run.")} == {f"run.{name}" for name in SWEEP_RUN_KEYS}
        config, options, spec = parse_config_file(cfg_path, "sweep", PRESETS[preset[1]] if preset else None)
        assert parse_config_text(manifest["config_text"], "sweep") == (replace(config, trials=2), options, spec)


class TestRunCommand:
    def test_run_deterministic_csv(self, tmp_path):
        cfg_path = _write_config(tmp_path)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(["run", "--config", cfg_path, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg_path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_flag_overrides(self, tmp_path):
        cfg_path = _write_config(tmp_path)
        out = tmp_path / "r.csv"
        code = main(["run", "--config", cfg_path, "--trials", "2", "--seed", "5",
                     "--beamformer", "ls", "--fusion", "prenorm", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4  # header + one row per delta
        fields = lines[1].split(",")
        assert fields[2] == "ls"
        assert fields[3] == "prenorm"
        assert fields[6] == "2"
        assert fields[10] == "5"

    def test_invalid_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("scenario.uav_count = 15\n")
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            (SMALL_CONFIG_TEXT.replace("array_side = 4", "array_side = 1"), "array_side: must be >= 2"),
            (
                "scenario.uav_count = 1\nscenario.grid_side = 4\nscenario.array_side = 4\n",
                "uav_count: half-duplex sensing needs at least 2 UAVs, got 1",
            ),
        ],
        ids=["array_side_1", "one_uav"],
    )
    def test_config_without_a_sensing_pair_exit_code(self, tmp_path, capsys, text, message):
        cfg_path = _write_config(tmp_path, text)
        assert main(["run", "--config", cfg_path, "--trials", "1"]) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err

    def test_carrier_out_of_float_range_exit_code(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, SMALL_CONFIG_TEXT + "scenario.carrier_frequency_hz = 1e-150\n")
        assert main(["run", "--config", cfg_path, "--trials", "1"]) == 2
        assert "configuration error: carrier_frequency_hz" in capsys.readouterr().err

    def test_area_out_of_float_range_exit_code(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, "scenario.area_side_m = 1e300\n")
        assert main(["run", "--config", cfg_path, "--trials", "3"]) == 2
        assert "configuration error: area_side_m" in capsys.readouterr().err

    def test_noise_density_out_of_float_range_exit_code(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, "scenario.noise_density_w_hz = 1e300\n")
        assert main(["run", "--config", cfg_path, "--trials", "1"]) == 2
        assert "configuration error: noise_density_w_hz" in capsys.readouterr().err

    def test_sweep_section_refused(self, tmp_path, capsys):
        # run does one point, so a sweep section it would ignore is refused, by its key sweep.parameter
        # whatever the order of the section's keys.
        for section in SWEEP_SECTIONS:
            assert main(["run", "--config", _write_config(tmp_path, SMALL_CONFIG_TEXT + section), "--trials", "1"]) == 2
            err = capsys.readouterr().err
            assert "configuration error: sweep.parameter: run takes no sweep section; use uavsense sweep" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_equals_out_file(self, tmp_path, capsys, fmt):
        cfg_path = _write_config(tmp_path)
        out = tmp_path / "r.out"
        assert main(["run", "--config", cfg_path, "--trials", "1", "--format", fmt, "--out", str(out)]) == 0
        assert main(["run", "--config", cfg_path, "--trials", "1", "--format", fmt]) == 0
        printed, written = capsys.readouterr().out, out.read_bytes().decode()
        if fmt == "json":  # the creation time and the peak RSS may differ between the two runs
            printed, written = (json.loads(t) | {"created_utc": None, "peak_rss_mb": None} for t in (printed, written))
        assert printed == written

    def test_unwritable_output_exit_code(self, tmp_path):
        cfg_path = _write_config(tmp_path)
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["run", "--config", cfg_path, "--trials", "1", "--out", str(missing_dir)]) == 3

    def test_fast_path_flag_reaches_reference_engine(self, tmp_path):
        # Noiseless runs agree between the two paths; the flag must select the
        # frame-level pipeline without changing results.
        cfg_path = _write_config(tmp_path, SMALL_CONFIG_TEXT + "run.noise = off\n")
        out_fast, out_ref = tmp_path / "f.csv", tmp_path / "r.csv"
        for flag, out in (("on", out_fast), ("off", out_ref)):
            code = main(["run", "--config", cfg_path, "--trials", "1", "--fast-path", flag, "--out", str(out)])
            assert code == 0
        assert out_fast.read_bytes() == out_ref.read_bytes()


class TestSweepCommand:
    def test_presets_build(self):
        for name in PRESETS:
            spec = PRESETS[name]
            assert spec.values

    def test_fig3_axes(self):
        spec = PRESETS["fig3"]
        assert spec.parameter == "cell_size_constant_coverage"
        assert spec.values == (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
        assert set(spec.beamformers) == {"ls", "capon"}
        assert set(spec.fusions) == {"avg", "prenorm"}
        assert set(spec.sigma_g_dbsm) == {-30.0, -10.0, 0.0}

    def test_preset_rows_cover_axes(self, tmp_path):
        cfg_path = _write_config(tmp_path)
        out = tmp_path / "s.csv"
        code = main(["sweep", "--config", cfg_path, "--preset", "fig7", "--trials", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert {r[0] for r in rows} == {"altitude"}
        assert {r[5] for r in rows} == {"0", "1", "2"}

    @pytest.mark.parametrize("flag, value", [("--beamformer", "ls"), ("--fusion", "prenorm")])
    def test_design_flags_belong_to_run_only(self, tmp_path, capsys, flag, value):
        # A sweep takes its beamformers and fusions from sweep.beamformers and
        # sweep.fusions, so the flag is refused there, not silently ignored.
        cfg_path = _write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg_path, "--preset", "fig7", "--trials", "1", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert main(["run", "--config", cfg_path, "--trials", "1", flag, value, "--out", str(tmp_path / "r.csv")]) == 0

    def test_preset_with_config_sweep_section_refused(self, tmp_path, capsys):
        # The preset would replace the config's sweep section; both given is refused.
        for section in SWEEP_SECTIONS:
            cfg_path = _write_config(tmp_path, SMALL_CONFIG_TEXT + section)
            assert main(["sweep", "--config", cfg_path, "--preset", "fig7", "--trials", "1"]) == 2
            err = capsys.readouterr().err
            assert "configuration error: sweep.parameter: give --preset or a config sweep section, not both" in err

    def test_sweep_requires_spec(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path)
        message = "configuration error: sweep.parameter: sweep needs --preset or a config file with a sweep section"
        for config in (["--config", cfg_path], []):
            assert main(["sweep", *config]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, args, key, decider",
        [
            (ANTENNAS_SWEEP + "run.beamformer = ls\n", [], "run.beamformer", "sweep.beamformers"),
            (ANTENNAS_SWEEP + "run.fusion = prenorm\n", [], "run.fusion", "sweep.fusions"),
            (ANTENNAS_SWEEP + "scenario.ground_rcs_dbsm = -5\n", [], "scenario.ground_rcs_dbsm", "sweep.sigma_g_dbsm"),
            (ANTENNAS_SWEEP + "scenario.ground_rcs_m2 = 0.01\n", [], "scenario.ground_rcs_m2", "sweep.sigma_g_dbsm"),
            (
                "sweep.parameter = ground_rcs\nsweep.values = -10\nsweep.sigma_g_dbsm = 0, 5\n",
                [],
                "sweep.sigma_g_dbsm",
                "sweep.values",
            ),
            ("run.beamformer = ls\n", ["--preset", "fig6"], "run.beamformer", "sweep.beamformers"),
            ("scenario.ground_rcs_dbsm = -5\n", ["--preset", "fig6"], "scenario.ground_rcs_dbsm", "sweep.sigma_g_dbsm"),
            # The keys an axis sets at every point: the value changed no row.
            (ANTENNAS_SWEEP + "scenario.array_side = 6\n", [], "scenario.array_side", "sweep.values"),
            (ANTENNAS_SWEEP + "scenario.altitude_m = 1000\n", [], "scenario.altitude_m", "sweep.values"),
            (COVERAGE_SWEEP + "scenario.area_side_m = 80\n", [], "scenario.area_side_m", "sweep.values"),
            (COVERAGE_SWEEP + "scenario.altitude_m = 1000\n", [], "scenario.altitude_m", "sweep.values"),
            (
                "sweep.parameter = cell_size_constant_area\nsweep.values = 4\nscenario.grid_side = 10\n",
                [],
                "scenario.grid_side",
                "sweep.values",
            ),
            ("sweep.parameter = altitude\nsweep.values = 40\nscenario.altitude_m = 1000\n", [], "scenario.altitude_m",
             "sweep.values"),
            ("scenario.grid_side = 10\n", ["--preset", "fig4"], "scenario.grid_side", "sweep.values"),
        ],
        ids=["beamformer", "fusion", "ground_rcs_dbsm", "ground_rcs_m2", "sigma_on_ground_rcs_axis",
             "fig6_beamformer", "fig6_ground_rcs_dbsm", "antennas_array_side", "antennas_altitude",
             "coverage_area_side", "coverage_altitude", "constant_area_grid_side", "altitude_altitude",
             "fig4_grid_side"],
    )
    def test_key_the_sweep_does_not_read_refused(self, tmp_path, capsys, text, args, key, decider):
        # Each of these once ran to exit 0, its value dropped from the rows yet echoed in the manifest.
        assert main(["sweep", "--config", _write_config(tmp_path, text), *args, "--trials", "1"]) == 2
        assert f"configuration error: {key}: a sweep reads {decider} instead" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sweep_text, sigmas",
        [
            (ANTENNAS_SWEEP + "sweep.sigma_g_dbsm = -50\n", {-50.0}),
            ("sweep.parameter = ground_rcs\nsweep.values = -50, -45\n", {-50.0, -45.0}),
        ],
        ids=["sigma_g_dbsm", "ground_rcs_axis"],
    )
    def test_target_below_default_ground_rcs(self, tmp_path, sweep_text, sigmas):
        # The sweep's base ground RCS is its smallest sigma_G, not the -30 dBsm default, so a target at
        # -40 dBsm runs once every sigma_G is below it.
        cfg_path = _write_config(tmp_path, SMALL_ANTENNAS_TEXT + "scenario.target_rcs_dbsm = -40\n" + sweep_text)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", cfg_path, "--trials", "1", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert {float(r[4]) for r in rows} == sigmas

    def test_every_sigma_g_at_or_above_target_exit_code(self, tmp_path, capsys):
        text = SMALL_ANTENNAS_TEXT + "scenario.target_rcs_dbsm = -40\n" + ANTENNAS_SWEEP
        assert main(["sweep", "--config", _write_config(tmp_path, text), "--trials", "1"]) == 2
        assert "configuration error: sweep.sigma_g_dbsm: needs a value below the target RCS" in capsys.readouterr().err

    def test_uncounted_delta_exit_code(self, tmp_path, capsys):
        text = SMALL_CONFIG_TEXT + "sweep.parameter = ground_rcs\nsweep.values = -30\nsweep.deltas = 0, 3\n"
        cfg_path = _write_config(tmp_path, text)
        assert main(["sweep", "--config", cfg_path, "--trials", "1"]) == 2
        assert "sweep.deltas" in capsys.readouterr().err

    def test_non_finite_sweep_value_exit_code(self, tmp_path, capsys):
        text = SMALL_CONFIG_TEXT + "sweep.parameter = altitude\nsweep.values = 40, nan\n"
        assert main(["sweep", "--config", _write_config(tmp_path, text), "--trials", "1"]) == 2
        assert "configuration error: sweep.values" in capsys.readouterr().err

    def test_zero_cell_size_reported_as_invalid_point(self, tmp_path, capsys):
        # The axis sets the grid, so the small scenario leaves its grid side out.
        text = SMALL_CONFIG_TEXT.replace("scenario.grid_side = 8\n", "")
        text += "sweep.parameter = cell_size_constant_area\nsweep.values = 0\n"
        assert main(["sweep", "--config", _write_config(tmp_path, text), "--trials", "1"]) == 1
        err = capsys.readouterr().err
        assert "invalid sweep point: cell_size_constant_area=0.0: grid_side" in err
        assert "no valid sweep points" in err

    def test_constant_area_sweep_takes_no_grid_side(self, tmp_path):
        # The axis sets the grid, so the base scenario has a cell per UAV, which tiles for any UAV count:
        # 9 UAVs sweep without a grid side, where the default grid side of 20 would not tile.
        text = "scenario.uav_count = 9\nscenario.area_side_m = 90\nscenario.array_side = 4\nscenario.subcarriers = 16\n"
        text += "sweep.parameter = cell_size_constant_area\nsweep.values = 10\n"
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", _write_config(tmp_path, text), "--trials", "1", "--out", str(out)]) == 0
        assert [row.split(",")[1] for row in out.read_text().strip().split("\n")[1:]] == ["10"] * 3

    def test_config_sweep_section(self, tmp_path):
        text = SMALL_CONFIG_TEXT + "sweep.parameter = ground_rcs\nsweep.values = -30, -20\nsweep.deltas = 0\n"
        cfg_path = _write_config(tmp_path, text)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", cfg_path, "--trials", "2", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3


def test_selftest_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_parse_defaults_give_table_values():
    cfg, _, _ = parse_config_text("")
    assert cfg == ScenarioConfig()
    assert cfg.wavelength_m == pytest.approx(0.0125, rel=1e-3)
