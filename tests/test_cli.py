import json
import sys
from dataclasses import fields

import numpy as np
import pytest
import scipy

from uavsense import ScenarioConfig
from uavsense.cli import (
    PRESETS,
    build_manifest,
    main,
    render_results_csv,
    write_results_csv,
    write_results_json,
)
from uavsense.config import RunOptions, parse_config_text
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

    def test_seventeen_digit_roundtrip(self, tmp_path):
        value = 0.123456789012345678  # more digits than float precision
        row = _row(p_detect=value, ci95_halfwidth=1.9599999999999997e-05)
        path = tmp_path / "out.csv"
        write_results_csv([row], path)
        line = path.read_text().strip().split("\n")[1].split(",")
        assert float(line[8]) == row.p_detect
        assert float(line[9]) == row.ci95_halfwidth

    def test_no_locale_separators(self):
        text = render_results_csv([_row(p_detect=0.5)])
        assert ";" not in text
        assert "," in text  # field separator only
        for field in text.strip().split("\n")[1].split(","):
            assert " " not in field

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_results_csv([], tmp_path / "x.csv")


class TestManifest:
    def test_contains_seed_and_config(self):
        cfg = ScenarioConfig(master_seed=424242)
        manifest = build_manifest(cfg, RunOptions(), [_row(seed=424242)], [])
        assert manifest["master_seed"] == 424242
        assert manifest["config"]["master_seed"] == 424242
        assert manifest["results"][0]["seed"] == 424242
        assert "config_text" in manifest

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
        assert list(manifest["options"]) == [f.name for f in fields(RunOptions)]
        assert all(manifest["options"][f.name] == getattr(options, f.name) for f in fields(RunOptions))

    def test_json_rejects_empty(self, tmp_path):
        cfg = ScenarioConfig()
        with pytest.raises(ValueError):
            write_results_json(build_manifest(cfg, RunOptions(), [], []), tmp_path / "m.json")

    def test_config_echo_reproduces_run(self, tmp_path):
        # The echoed config, fed back as input, yields identical rows.
        cfg_path = _write_config(tmp_path)
        out1 = tmp_path / "a.json"
        assert main(["run", "--config", cfg_path, "--format", "json", "--out", str(out1)]) == 0
        manifest = json.loads(out1.read_text())
        echo_path = tmp_path / "echo.cfg"
        echo_path.write_text(manifest["config_text"])
        out2 = tmp_path / "b.json"
        assert main(["run", "--config", str(echo_path), "--format", "json", "--out", str(out2)]) == 0
        second = json.loads(out2.read_text())
        assert manifest["results"] == second["results"]
        assert manifest["config"] == second["config"]


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

    def test_noise_density_out_of_float_range_exit_code(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, "scenario.noise_density_w_hz = 1e300\n")
        assert main(["run", "--config", cfg_path, "--trials", "1"]) == 2
        assert "configuration error: noise_density_w_hz" in capsys.readouterr().err

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

    def test_sweep_requires_spec(self, tmp_path):
        cfg_path = _write_config(tmp_path)
        assert main(["sweep", "--config", cfg_path]) == 2

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
        text = SMALL_CONFIG_TEXT + "sweep.parameter = cell_size_constant_area\nsweep.values = 0\n"
        assert main(["sweep", "--config", _write_config(tmp_path, text), "--trials", "1"]) == 1
        err = capsys.readouterr().err
        assert "invalid sweep point: cell_size_constant_area=0.0: grid_side" in err
        assert "no valid sweep points" in err

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
