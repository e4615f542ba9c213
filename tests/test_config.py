import math
import re
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

from uavsense import ConfigError, ScenarioConfig, dbsm_to_m2, m2_to_dbsm
from uavsense import config as config_module
from uavsense.config import (
    RunOptions,
    SweepSpec,
    dbm_per_hz_to_w_per_hz,
    parse_config_file,
    parse_config_text,
    render_config_text,
)


def test_defaults_match_common_parameters():
    cfg = ScenarioConfig()
    assert cfg.transmit_power_w == 1.0
    assert cfg.transmit_gain == 1.0
    assert cfg.area_side_m == 100.0
    assert cfg.uav_count == 16
    assert cfg.noise_density_w_hz == pytest.approx(10 ** (-20.4))
    assert cfg.ground_rcs_m2 == pytest.approx(1e-3)
    assert cfg.target_rcs_m2 == pytest.approx(10.0)
    assert cfg.symbols_per_frame == 16
    assert cfg.subcarriers == 64
    assert cfg.array_side == 8
    assert cfg.carrier_frequency_hz == 24.0e9
    assert cfg.bandwidth_hz == 200.0e6
    assert cfg.cp_duration_s == 2.3e-6
    assert cfg.grid_side == 20
    assert cfg.doppler_hz == 0.0


def test_derived_quantities():
    cfg = ScenarioConfig()
    assert cfg.wavelength_m == pytest.approx(0.0125, rel=1e-3)
    assert cfg.subcarrier_spacing_hz == pytest.approx(3.125e6)
    assert cfg.symbol_duration_s == pytest.approx(1 / 3.125e6 + 2.3e-6)
    assert cfg.cell_size_m == pytest.approx(5.0)
    assert cfg.cells_per_uav_side == 5
    # recomputation is pure
    assert cfg.wavelength_m == cfg.wavelength_m


def test_db_conversions():
    assert dbsm_to_m2(-30.0) == pytest.approx(1e-3)
    assert dbsm_to_m2(10.0) == pytest.approx(10.0)
    assert m2_to_dbsm(dbsm_to_m2(-12.5)) == pytest.approx(-12.5)
    assert dbm_per_hz_to_w_per_hz(-174.0) == pytest.approx(3.981071705534986e-21)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(uav_count=15), "uav_count"),
        (dict(uav_count=16, grid_side=21), "grid_side"),
        (dict(transmit_power_w=0.0), "transmit_power_w"),
        (dict(ground_rcs_m2=10.0, target_rcs_m2=10.0), "ground_rcs_m2"),
        (dict(ground_rcs_m2=20.0), "ground_rcs_m2"),
        (dict(altitude_m=0.0), "altitude_m"),
        (dict(altitude_m=-50.0), "altitude_m"),
        (dict(altitude_m=-0.0), "altitude_m"),
        (dict(master_seed=-1), "master_seed"),
        (dict(trials=0), "trials"),
        (dict(array_side=1), "array_side"),
        (dict(uav_count=True, trials=True), "uav_count"),
        (dict(trials=True), "trials"),
        (dict(master_seed=False), "master_seed"),
        (dict(transmit_power_w=True), "transmit_power_w"),
        (dict(doppler_hz=False), "doppler_hz"),
        (dict(altitude_m=True), "altitude_m"),
        (dict(doppler_hz="1"), "doppler_hz"),
        (dict(doppler_hz=np.True_), "doppler_hz"),
        (dict(altitude_m="50"), "altitude_m"),
        (dict(altitude_m=np.True_), "altitude_m"),
        (dict(cp_duration_s=math.inf), "cp_duration_s"),
        (dict(area_side_m=1e-12), "area_side_m"),  # the build blamed altitude_m: footprints overlap
        (dict(target_rcs_m2=1.7e308), "target_rcs_m2"),  # fusion's average overflowed
    ],
)
def test_validation_names_offending_field(kwargs, field):
    with pytest.raises(ConfigError, match=field):
        ScenarioConfig(**kwargs)


_VALID = {
    ScenarioConfig: ("", ScenarioConfig()),
    RunOptions: ("", RunOptions()),
    SweepSpec: ("sweep.", SweepSpec(parameter="altitude", values=(40.0,))),
}


def _wrong_values(kind: str, valid) -> list:
    """Values that break the annotation `kind` of a field whose valid value is `valid`."""
    if kind.startswith("tuple["):
        element = kind[len("tuple[") : -len(", ...]")]
        return [list(valid)] + [valid + (bad,) for bad in _wrong_values(element, valid[0])]
    if kind == "bool":
        return ["on", 0, np.True_]
    return ([] if kind == "str" else ["1"]) + [True, np.True_] + ([math.nan, math.inf] if "float" in kind else [])


@pytest.mark.parametrize(
    "cls, name, bad",
    [
        pytest.param(cls, f.name, bad, id=f"{prefix}{f.name}={bad!r}")
        for cls, (prefix, valid) in _VALID.items()
        for f in fields(cls)
        for bad in _wrong_values(f.type, getattr(valid, f.name))
    ],
)
def test_value_of_the_wrong_type_names_the_field(cls, name, bad):
    # Generated from the fields, so a field added later is covered too.
    prefix, valid = _VALID[cls]
    with pytest.raises(ConfigError, match=f"^{re.escape(prefix + name)}: "):
        replace(valid, **{name: bad})


def test_parse_empty_gives_defaults():
    cfg, opts, sweep = parse_config_text("")
    assert cfg == ScenarioConfig()
    assert opts == RunOptions()
    assert sweep is None


def test_parse_db_overrides():
    cfg, _, _ = parse_config_text("scenario.ground_rcs_dbsm = -10\n")
    assert cfg.ground_rcs_m2 == pytest.approx(0.1)
    cfg, _, _ = parse_config_text("scenario.noise_density_dbm_hz = -160\n")
    assert cfg.noise_density_w_hz == pytest.approx(10 ** (-19.0))


def test_parse_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError, match="unknown"):
        parse_config_text("scenario.tx_power = 2\n")
    with pytest.raises(ConfigError, match="duplicated"):
        parse_config_text("run.trials = 5\nrun.trials = 6\n")
    with pytest.raises(ConfigError, match="conflicts"):
        parse_config_text("scenario.ground_rcs_dbsm = -30\nscenario.ground_rcs_m2 = 0.001\n")


def test_removed_capon_loading_key_rejected():
    # A removed key fails by name instead of being silently ignored.
    removed = [("run.capon_loading", "0.01"), ("run.ls_iterations", "10"), ("scenario.altitude_mode", "derived")]
    for key, value in removed:
        with pytest.raises(ConfigError, match=f"{key}: unknown"):
            parse_config_text(f"{key} = {value}\n")


def test_parse_constraint_violation_names_field():
    with pytest.raises(ConfigError, match="uav_count"):
        parse_config_text("scenario.uav_count = 15\n")
    with pytest.raises(ConfigError, match="ground_rcs"):
        parse_config_text("scenario.ground_rcs_dbsm = 20\n")


def test_parse_comments_and_overrides():
    text = "# comment\nrun.trials = 7  # inline\n"
    cfg, _, _ = parse_config_text(text)
    assert cfg.trials == 7


def _keys(text):
    return {line.partition(" = ")[0] for line in text.splitlines()}


def test_render_parse_roundtrip_is_exact():
    # A run text carries every scenario and run key; a sweep text leaves out the keys a sweep does not read,
    # so they parse back as their defaults.
    cfg = ScenarioConfig(
        area_side_m=80.0,
        uav_count=4,
        grid_side=8,
        ground_rcs_m2=dbsm_to_m2(-17.3),
        master_seed=987654321,
        trials=77,
    )
    opts = RunOptions(beamformer="ls", fusion="prenorm", fast_path=False, noise=False)
    assert parse_config_text(render_config_text(cfg, opts), "run") == (cfg, opts, None)
    sweep = SweepSpec(parameter="altitude", values=(40.0, 80.0), sigma_g_dbsm=(-30.0, -10.0))
    text = render_config_text(cfg, opts, sweep)
    assert _keys(text).isdisjoint(["run.beamformer", "run.fusion", "scenario.ground_rcs_m2"])
    unread = dict(ground_rcs_m2=ScenarioConfig().ground_rcs_m2)
    assert parse_config_text(text, "sweep") == (replace(cfg, **unread), RunOptions(fast_path=False, noise=False), sweep)
    ground_rcs = replace(sweep, parameter="ground_rcs")
    assert "sweep.sigma_g_dbsm" not in _keys(render_config_text(cfg, opts, ground_rcs))


@pytest.mark.parametrize("altitude_m", [None, 123.25])
def test_render_parse_roundtrip_keeps_the_altitude(altitude_m):
    # A derived altitude (None) renders no key and parses back as derived; an explicit one is kept.
    cfg = ScenarioConfig(altitude_m=altitude_m)
    text = render_config_text(cfg, RunOptions())
    assert ("scenario.altitude_m" in text) == (altitude_m is not None)
    assert parse_config_text(text)[0] == cfg


def test_render_parse_roundtrip_with_every_field_changed():
    # Every field is away from its default, so a field left out of the
    # rendering would parse back as its default and fail the comparison.
    cfg = ScenarioConfig(
        transmit_power_w=0.37,
        transmit_gain=2.5,
        area_side_m=81.0,
        uav_count=9,
        noise_density_w_hz=dbm_per_hz_to_w_per_hz(-171.3),
        ground_rcs_m2=dbsm_to_m2(-21.7),
        target_rcs_m2=dbsm_to_m2(7.1),
        symbols_per_frame=12,
        subcarriers=48,
        array_side=5,
        carrier_frequency_hz=5.8e9,
        bandwidth_hz=120.0e6,
        cp_duration_s=1.7e-6,
        grid_side=9,
        doppler_hz=-312.75,
        altitude_m=55.5,
        trials=13,
        master_seed=2**64 - 3,
    )
    opts = RunOptions(beamformer="ls", fusion="prenorm", fast_path=False, noise=False)
    sweep = SweepSpec(
        parameter="antennas",
        values=(4.0, 6.0),
        beamformers=("ls", "capon"),
        fusions=("prenorm",),
        sigma_g_dbsm=(-12.5, 0.25),
        deltas=(1,),
    )
    for obj in (cfg, opts, sweep):
        for f in fields(obj):
            if f.default is not MISSING:
                assert getattr(obj, f.name) != f.default, f.name
    # numpy scalars render as plain numbers, so their text parses back too.
    floats = {f.name: np.float64(getattr(cfg, f.name)) for f in fields(cfg) if isinstance(getattr(cfg, f.name), float)}
    numpy_sweep = replace(sweep, values=tuple(np.linspace(4, 8, 3)), sigma_g_dbsm=tuple(np.float64(sweep.sigma_g_dbsm)))
    # A run reads every scenario and run field. A sweep reads every sweep field and none of the keys that it
    # refuses, so its text leaves them out: the options and the fields the antennas axis sets parse back as
    # their defaults and the ground RCS as the smallest sigma_G of the sweep.
    unread_cfg = dict(ground_rcs_m2=dbsm_to_m2(-12.5), array_side=ScenarioConfig.array_side, altitude_m=None)
    unread_opts = dict(beamformer="capon", fusion="avg")
    for cfg, sweep in ((cfg, sweep), (replace(cfg, **floats), numpy_sweep)):
        assert parse_config_text(render_config_text(cfg, opts), "run") == (cfg, opts, None)
        text = render_config_text(cfg, opts, sweep)
        assert _keys(text).isdisjoint(config_module._unread_keys(sweep))
        assert parse_config_text(text, "sweep") == (replace(cfg, **unread_cfg), replace(opts, **unread_opts), sweep)


def test_every_key_is_read_by_run_or_sweep():
    # The tables of keys a sweep does not read place every key, a key added later too: run reads
    # all but the sweep section, a sweep on some axis reads all others, and each refusal names a key
    # that the sweep reads instead.
    run_unread = config_module._unread_keys(None)
    axes = {axis: config_module._unread_keys(SweepSpec(axis, (4.0,))) for axis in config_module._SWEEP_PARAMS}
    every_key = [*config_module._KEYS, *config_module._DB_KEYS]
    refusable = set(config_module._SWEEP_DECIDES).union(*config_module._SWEEP_PARAMS.values())
    assert refusable <= set(every_key)
    for key in every_key:
        assert (key in run_unread) == key.startswith("sweep."), key
        assert key not in run_unread or any(key not in unread for unread in axes.values()), key
    for unread in axes.values():
        assert set(unread) <= refusable
        for key, reason in unread.items():
            decider = re.fullmatch(r"a sweep reads (\S+) instead", reason)[1]
            assert decider in config_module._KEYS and decider not in unread, key


# One value per sweep axis that differs from the base below in every field the axis sets.
_AXIS_VALUES = {
    "cell_size_constant_coverage": 2.0,
    "cell_size_constant_area": 2.5,
    "antennas": 4.0,
    "altitude": 120.0,
    "ground_rcs": -10.0,
}


@pytest.mark.parametrize("axis", config_module._SWEEP_PARAMS)
def test_sweep_refuses_the_fields_its_points_set(axis):
    # The keys a sweep refuses as set by its axis (_SWEEP_PARAMS) and the fields that SweepSpec's point and
    # sigma_G give a point are two statements of the axis in config.py; the scenario fields they name must
    # agree, each dB key counted as its linear twin.
    base = ScenarioConfig(altitude_m=40.0)
    value = _AXIS_VALUES[axis]
    spec = SweepSpec(axis, (value,))
    ((_, ground_rcs_m2),) = spec.sigma_g(value)
    point = replace(spec.point(value, base), ground_rcs_m2=ground_rcs_m2)
    changed = {f.name for f in fields(base) if getattr(point, f.name) != getattr(base, f.name)}
    refused = {
        config_module._DB_KEYS.get(key, (key.removeprefix("scenario."),))[0]
        for key in config_module._SWEEP_PARAMS[axis]
        if key.startswith("scenario.")
    }
    assert changed == refused


def test_sweep_section_requires_parameter_and_values():
    with pytest.raises(ConfigError, match="sweep.parameter"):
        parse_config_text("sweep.values = 1, 2\n")
    _, _, sw = parse_config_text("sweep.parameter = altitude\nsweep.values = 40, 80\n")
    assert sw.parameter == "altitude"
    assert sw.values == (40.0, 80.0)


@pytest.mark.parametrize("field", ["values", "beamformers", "fusions", "sigma_g_dbsm", "deltas"])
def test_empty_sweep_axis_names_its_field(tmp_path, field):
    # An empty axis would build tables and run trials only to emit no row.
    with pytest.raises(ConfigError, match=f"sweep.{field}: at least one value"):
        SweepSpec(**{"parameter": "altitude", "values": (40.0,), field: ()})
    path = tmp_path / "sweep.cfg"
    keys = {"sweep.parameter": "altitude", "sweep.values": "40", f"sweep.{field}": ""}
    path.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
    with pytest.raises(ConfigError, match=f"sweep.{field}: at least one value"):
        parse_config_file(path)


def test_sweep_deltas_outside_counted_distances_rejected():
    # Batches count hits for delta 0, 1 and 2 only; any other delta would
    # index past DetectionStats.hits.
    base = "sweep.parameter = altitude\nsweep.values = 40\n"
    _, _, sw = parse_config_text(base + "sweep.deltas = 2, 0\n")
    assert sw.deltas == (2, 0)
    for bad in ("0, 3", "-1", "1, 2, 5"):
        with pytest.raises(ConfigError, match="sweep.deltas"):
            parse_config_text(base + f"sweep.deltas = {bad}\n")
    for bad in ((1.0,), (True,), (0, False), (np.True_,), [0], (np.int64(0),)):
        with pytest.raises(ConfigError, match="sweep.deltas"):
            SweepSpec(parameter="altitude", values=(40.0,), deltas=bad)


def test_sweep_numbers_must_be_finite_numbers():
    # Each once passed validation and then crashed in sweep() or ran a list into a frozen spec.
    for kwargs in (
        dict(parameter="altitude", values=("a",)),
        dict(parameter="antennas", values=(math.nan,)),
        dict(parameter="antennas", values=(math.inf,)),
        dict(parameter="altitude", values=[50.0]),
    ):
        with pytest.raises(ConfigError, match="^sweep.values: "):
            SweepSpec(**kwargs)
    with pytest.raises(ConfigError, match="^sweep.sigma_g_dbsm: "):
        SweepSpec(parameter="altitude", values=(50.0,), sigma_g_dbsm=("x",))
    # A non-finite entry rejects the whole spec, not one sweep point.
    with pytest.raises(ConfigError, match="^sweep.values: "):
        parse_config_text("sweep.parameter = antennas\nsweep.values = 4, nan\n")


def test_every_field_has_one_range_and_each_db_range_is_its_image():
    # The range check covers every field, and a dB edge converts to its field's edge exactly, so a dB value
    # that passes its own check passes its field's.
    assert list(config_module._RANGES) == [f.name for f in fields(ScenarioConfig)]
    for key, (name, to_linear, lo, hi, _) in config_module._DB_KEYS.items():
        assert (to_linear(lo), to_linear(hi)) == config_module._RANGES[name][:2], key


def test_sigma_g_outside_the_floats_refuses_the_spec():
    # sweep() raised an OverflowError at the 4000 dBsm point rather than running any point.
    with pytest.raises(ConfigError, match=r"^sweep.values: must lie in \[-200.0, 100.0\] dBsm, got 4000.0"):
        SweepSpec("ground_rcs", (-30.0, 4000.0))
    with pytest.raises(ConfigError, match=r"^sweep.sigma_g_dbsm: must lie in \[-200.0, 100.0\] dBsm, got -4000.0"):
        SweepSpec("antennas", (4.0,), sigma_g_dbsm=(-30.0, -4000.0))
    # A ground_rcs axis reads no sigma_g_dbsm.
    assert SweepSpec("ground_rcs", (-30.0,), sigma_g_dbsm=(4000.0,)).sigma_g(-30.0) == ((-30.0, dbsm_to_m2(-30.0)),)


def test_run_options_validation():
    with pytest.raises(ConfigError, match="beamformer"):
        RunOptions(beamformer="mvdr")
    with pytest.raises(ConfigError, match="fusion"):
        RunOptions(fusion="median")
    # A value that is no bool would run one path and render or record another.
    for kwargs in (dict(fast_path="no"), dict(fast_path="off"), dict(noise=0), dict(noise=np.False_)):
        with pytest.raises(ConfigError, match=f"^{next(iter(kwargs))}: "):
            RunOptions(**kwargs)
