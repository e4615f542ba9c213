"""Scenario parameters, unit conversions, and the flat config-file format.

All internal math runs in linear SI units. dB-valued inputs (noise density in
dBm/Hz, radar cross-sections in dBsm) are converted once at parse time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

__all__ = [
    "SPEED_OF_LIGHT",
    "DELTAS",
    "BEAMFORMERS",
    "FUSION_METHODS",
    "ConfigError",
    "ScenarioConfig",
    "RunOptions",
    "SweepSpec",
    "dbsm_to_m2",
    "m2_to_dbsm",
    "dbm_per_hz_to_w_per_hz",
    "parse_config_text",
    "parse_config_file",
    "render_config_text",
]


def dbsm_to_m2(value_dbsm: float) -> float:
    """RCS in dBsm to m^2: sigma = 10^(dBsm/10)."""
    return 10.0 ** (value_dbsm / 10.0)


def m2_to_dbsm(value_m2: float) -> float:
    return 10.0 * math.log10(value_m2)


def dbm_per_hz_to_w_per_hz(value_dbm_hz: float) -> float:
    return 10.0 ** ((value_dbm_hz - 30.0) / 10.0)


def _to_linear(key: str, to_linear, value_db: float) -> float:
    """to_linear(value_db), the linear value of the dB-valued `key`; a ConfigError names `key` where that
    is no positive finite float (10 ** x overflows above about x = 308 and is 0 below about x = -323)."""
    try:
        value = to_linear(value_db)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{key}: {value_db!r} is {value!r} in linear units, not a positive finite float")
    return value


# Speed of light in vacuum, m/s: exact by the SI definition of the metre.
SPEED_OF_LIGHT = 299_792_458.0

# Hit distances (Chebyshev cells between detected and true cell) that every
# Monte Carlo batch counts; sweeps may report any subset of them.
DELTAS = (0, 1, 2)

# Receive beamformer designs and fusion-center methods, by their option tags;
# fusion.fuse_and_detect stacks its fused maps in the order of FUSION_METHODS.
BEAMFORMERS = ("ls", "capon")
FUSION_METHODS = ("avg", "prenorm")


class ConfigError(ValueError):
    """Invalid or inconsistent scenario parameters; message names the field."""


_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}  # annotation -> accepted Python types


def _check_types(obj, prefix: str = "") -> None:
    """ConfigError naming the first field of the dataclass `obj` whose value breaks its annotation."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not _is_a(f.type, value):
            raise ConfigError(f"{prefix}{f.name}: must be {f.type.replace('float', 'finite float')}, got {value!r}")


def _is_a(kind: str, value) -> bool:
    """Whether `value` fits the annotation `kind`: int an int, float a finite int or float, bool a bool,
    str a str, "X | None" None or an X, "tuple[X, ...]" a tuple of X. A bool (an int subclass) is no
    number; numpy's bool is neither a bool nor a number, and numpy's float64 is a float."""
    element = _element(kind)
    if element:
        return isinstance(value, tuple) and all(_is_a(element, v) for v in value)
    if kind.endswith(" | None"):
        return value is None or _is_a(kind[: -len(" | None")], value)
    if isinstance(value, bool) != (kind == "bool"):
        return False
    return isinstance(value, _TYPES[kind]) and (kind != "float" or math.isfinite(value))


def _is_perfect_square(n: int) -> bool:
    r = math.isqrt(n)
    return r * r == n


@dataclass(frozen=True)
class ScenarioConfig:
    """All physical and protocol parameters of one sensing scenario.

    Defaults are the common simulation parameters: 1 W transmit power, unit
    transmit gain, a 100 m x 100 m area split into a 20x20 grid, 16 UAVs with
    8x8 receive arrays at 24 GHz / 200 MHz, -174 dBm/Hz noise, ground RCS
    -30 dBsm, target RCS 10 dBsm, 16x64 OFDM frames, static scene.
    """

    transmit_power_w: float = 1.0
    transmit_gain: float = 1.0
    area_side_m: float = 100.0
    uav_count: int = 16
    noise_density_w_hz: float = dbm_per_hz_to_w_per_hz(-174.0)
    ground_rcs_m2: float = dbsm_to_m2(-30.0)
    target_rcs_m2: float = dbsm_to_m2(10.0)
    symbols_per_frame: int = 16
    subcarriers: int = 64
    array_side: int = 8
    carrier_frequency_hz: float = 24.0e9
    bandwidth_hz: float = 200.0e6
    cp_duration_s: float = 2.3e-6
    grid_side: int = 20
    doppler_hz: float = 0.0
    altitude_m: float | None = None  # None: derived from the per-UAV coverage
    trials: int = 1000
    master_seed: int = 1

    def __post_init__(self):
        _check_types(self)
        for f in fields(self):  # every number given but the Doppler shift and the seed is a positive size or count
            value = getattr(self, f.name)
            if value is not None and f.name not in ("doppler_hz", "master_seed") and value <= 0:
                raise ConfigError(f"{f.name}: must be positive, got {value!r}")
        if self.array_side < 2:
            raise ConfigError(f"array_side: must be >= 2 for a beam width, got {self.array_side}")
        if self.ground_rcs_m2 >= self.target_rcs_m2:
            raise ConfigError(
                "ground_rcs_m2: must be smaller than target_rcs_m2 "
                f"({self.ground_rcs_m2} >= {self.target_rcs_m2})"
            )
        if not _is_perfect_square(self.uav_count):
            raise ConfigError(f"uav_count: must be a perfect square, got {self.uav_count}")
        if self.grid_side % math.isqrt(self.uav_count) != 0:
            raise ConfigError(
                f"grid_side: sqrt(uav_count)={math.isqrt(self.uav_count)} must divide "
                f"grid_side={self.grid_side} for the uniform deployment"
            )
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"master_seed: must be a 64-bit unsigned integer, got {self.master_seed!r}")

    # Derived quantities; each recomputation is pure and repeatable.
    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency_hz

    @property
    def subcarrier_spacing_hz(self) -> float:
        return self.bandwidth_hz / self.subcarriers

    @property
    def symbol_duration_s(self) -> float:
        return 1.0 / self.subcarrier_spacing_hz + self.cp_duration_s

    @property
    def cell_size_m(self) -> float:
        return self.area_side_m / self.grid_side

    @property
    def uavs_per_side(self) -> int:
        return math.isqrt(self.uav_count)

    @property
    def cells_per_uav_side(self) -> int:
        return self.grid_side // self.uavs_per_side


@dataclass(frozen=True)
class RunOptions:
    """Processing choices that are not physical scenario parameters."""

    beamformer: str = "capon"  # "ls" or "capon"
    fusion: str = "avg"  # "avg" or "prenorm"
    fast_path: bool = True
    noise: bool = True

    def __post_init__(self):
        _check_types(self)
        if self.beamformer not in BEAMFORMERS:
            raise ConfigError(f"beamformer: must be 'ls' or 'capon', got {self.beamformer!r}")
        if self.fusion not in FUSION_METHODS:
            raise ConfigError(f"fusion: must be 'avg' or 'prenorm', got {self.fusion!r}")


_SWEEP_PARAMS = {  # sweep.parameter -> the keys whose values its sweep.values set at each point
    "cell_size_constant_coverage": ("scenario.area_side_m", "scenario.altitude_m"),
    "cell_size_constant_area": ("scenario.grid_side",),
    "antennas": ("scenario.array_side", "scenario.altitude_m"),
    "altitude": ("scenario.altitude_m",),
    "ground_rcs": ("scenario.ground_rcs_m2", "scenario.ground_rcs_dbsm", "sweep.sigma_g_dbsm"),
}


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter with per-point processing combinations."""

    parameter: str
    values: tuple[float, ...]
    beamformers: tuple[str, ...] = ("capon",)
    fusions: tuple[str, ...] = ("avg",)
    sigma_g_dbsm: tuple[float, ...] = (-30.0,)
    deltas: tuple[int, ...] = DELTAS

    def __post_init__(self):
        _check_types(self, "sweep.")
        if self.parameter not in _SWEEP_PARAMS:
            raise ConfigError(f"sweep.parameter: must be one of {tuple(_SWEEP_PARAMS)}, got {self.parameter!r}")
        for name in ("values", "beamformers", "fusions", "sigma_g_dbsm", "deltas"):
            if not getattr(self, name):
                raise ConfigError(f"sweep.{name}: at least one value required")
        for tag in self.beamformers:
            if tag not in BEAMFORMERS:
                raise ConfigError(f"sweep.beamformers: unknown tag {tag!r}")
        for tag in self.fusions:
            if tag not in FUSION_METHODS:
                raise ConfigError(f"sweep.fusions: unknown tag {tag!r}")
        for d in self.deltas:
            if d not in DELTAS:
                raise ConfigError(f"sweep.deltas: must be among {DELTAS}, got {d!r}")
        for value in self.values:  # every sigma_G is a positive finite float in m^2
            self.sigma_g(value)

    def point(self, value: float, base: ScenarioConfig) -> ScenarioConfig:
        """The scenario at `value` of the axis over `base`, whose ground RCS it keeps (sigma_g gives the point's).
        A value that makes no valid scenario raises a ConfigError naming the field."""
        if self.parameter == "cell_size_constant_coverage":
            # Fixed grid and per-UAV coverage; the cell size rescales the whole
            # area, and the derived altitude grows with it.
            return replace(base, area_side_m=value * base.grid_side, altitude_m=None)
        if self.parameter == "cell_size_constant_area":
            # Fixed area and altitude; the cell size changes how many cells exist.
            if value <= 0:
                raise ConfigError(f"grid_side: cell size must be positive, got {value}")
            sides = base.area_side_m / value
            new_side = round(sides) if sides < math.inf else 0
            if new_side < 1 or abs(new_side * value - base.area_side_m) > 1e-9 * base.area_side_m:
                raise ConfigError(f"grid_side: cell size {value} does not evenly divide the area side")
            from .geometry import derive_altitude  # here, as geometry imports this module
            altitude = derive_altitude(base, base.cells_per_uav_side) if base.altitude_m is None else base.altitude_m
            return replace(base, grid_side=new_side, altitude_m=altitude)
        if self.parameter == "antennas":
            side = int(value)
            if side != value:
                raise ConfigError(f"array_side: must be an integer, got {value}")
            return replace(base, array_side=side, altitude_m=None)
        if self.parameter == "altitude":
            return replace(base, altitude_m=float(value))
        return base  # a ground_rcs axis: its values are its points' sigma_G

    @property
    def sigma_g_key(self) -> str:
        """The key that gives the sigma_G values: sweep.values on a ground_rcs axis, else sweep.sigma_g_dbsm."""
        return "sweep.values" if self.parameter == "ground_rcs" else "sweep.sigma_g_dbsm"

    def sigma_g(self, value: float) -> tuple[tuple[float, float], ...]:
        """(dBsm, m^2) of each sigma_G of the point at `value`: sigma_g_dbsm, or the value on a ground_rcs axis."""
        dbsm = (value,) if self.sigma_g_key == "sweep.values" else self.sigma_g_dbsm
        return tuple((s, _to_linear(self.sigma_g_key, dbsm_to_m2, s)) for s in dbsm)

    def base_fields(self, scenario: dict) -> dict:
        """The ScenarioConfig fields that the sweep fixes in a base of the given `scenario` fields: its smallest
        sigma_G as ground RCS, each point setting its own, and on a constant-area axis one cell per UAV, so that
        the fixed altitude spans a UAV's block and every UAV count tiles the grid."""
        _, ground_rcs_m2 = min(s for value in self.values for s in self.sigma_g(value))
        if ground_rcs_m2 >= scenario.get("target_rcs_m2", ScenarioConfig.target_rcs_m2):
            raise ConfigError(f"{self.sigma_g_key}: needs a value below the target RCS")
        fixed = {"ground_rcs_m2": ground_rcs_m2}
        if self.parameter == "cell_size_constant_area":
            fixed["grid_side"] = math.isqrt(max(scenario.get("uav_count", ScenarioConfig.uav_count), 0))
        return fixed


# Flat key-value config format: "section.key = value", '#' comments. Each
# dataclass field is one key, read and written by its annotation (a string, as
# annotations are postponed here). The dB keys and their linear twins are
# mutually exclusive; the manifest echo uses the linear twins so a round-trip
# is bit-exact.

_RUN_SECTION = ("trials", "master_seed")  # ScenarioConfig fields under "run.", with the RunOptions fields
_KEYS = {  # key -> (dataclass, field name, annotation)
    f"{'run' if f.name in _RUN_SECTION else section}.{f.name}": (cls, f.name, f.type)
    for cls, section in ((ScenarioConfig, "scenario"), (RunOptions, "run"), (SweepSpec, "sweep"))
    for f in fields(cls)
}

_DB_KEYS = {  # key -> (ScenarioConfig field, conversion to its linear unit)
    "scenario.noise_density_dbm_hz": ("noise_density_w_hz", dbm_per_hz_to_w_per_hz),
    "scenario.ground_rcs_dbsm": ("ground_rcs_m2", dbsm_to_m2),
    "scenario.target_rcs_dbsm": ("target_rcs_m2", dbsm_to_m2),
}

_ONOFF = {"on": True, "off": False, "true": True, "false": False}

# `run` reads every key but the sweep section. A sweep reads every key but these, each mapped to the key that
# decides its value instead, and the keys that its axis sets (_SWEEP_PARAMS), which sweep.values decides.
_SWEEP_DECIDES = {"run.beamformer": "sweep.beamformers", "run.fusion": "sweep.fusions"}
_SWEEP_DECIDES |= dict.fromkeys(("scenario.ground_rcs_m2", "scenario.ground_rcs_dbsm"), "sweep.sigma_g_dbsm")


def _unread_keys(sweep: SweepSpec | None, preset: bool = False) -> dict[str, str]:
    """Each key that `run` (no `sweep`) or that sweep, by `preset` or not, does not read -> why. The sweep
    section's keys come in field order, so a refused section is named by its first key, sweep.parameter."""
    section = [key for key in _KEYS if key.startswith("sweep.")]
    if sweep is None:
        return dict.fromkeys(section, "run takes no sweep section; use uavsense sweep")
    decides = _SWEEP_DECIDES | dict.fromkeys(_SWEEP_PARAMS[sweep.parameter], "sweep.values")
    unread = {key: f"a sweep reads {decider} instead" for key, decider in decides.items() if key != decider}
    return (unread | dict.fromkeys(section, "give --preset or a config sweep section, not both")) if preset else unread


def _element(kind: str) -> str | None:
    """X of a "tuple[X, ...]" annotation, else None."""
    return kind[len("tuple[") : -len(", ...]")] if kind.startswith("tuple[") else None


def _parse_value(key: str, kind: str, s: str):
    """The value of the text `s` of config key `key`, a field annotated `kind`: int and str as such,
    bool as on/off, a tuple as a comma-separated list of its element type, any other as float."""
    element = _element(kind)
    if element:
        return tuple(_parse_value(key, element, part) for part in _split_list(s))
    if kind == "bool":
        return _parse_onoff(key, s)
    return {"int": int, "str": str}.get(kind, float)(s)


def _render_value(kind: str, value) -> str:
    """The text of `value` that _parse_value reads back; floats as repr(float(v)), so numpy scalars too."""
    element = _element(kind)
    if element:
        return ", ".join(_render_value(element, v) for v in value)
    if kind == "bool":
        return "on" if value else "off"
    return str(value) if kind in ("int", "str") else repr(float(value))


def _split_list(s: str) -> list[str]:
    return [part.strip() for part in s.split(",") if part.strip()]


def _parse_onoff(key: str, s: str) -> bool:
    try:
        return _ONOFF[s.strip().lower()]
    except KeyError:
        raise ConfigError(f"{key}: expected on/off, got {s!r}") from None


def parse_config_text(text: str, command: str | None = None, preset: SweepSpec | None = None):
    """Parse the flat config format into (ScenarioConfig, RunOptions, SweepSpec | None).

    Unknown or duplicated keys are rejected, and so is each key that `command` ("run", "sweep", or None to go
    by the text) would not read; a sweep's spec is `preset` or else the text's sweep section. The CLI applies
    its flags to the parsed objects with ``dataclasses.replace``.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in raw:
            raise ConfigError(f"{key}: duplicated in config")
        raw[key] = value

    for key in raw:
        if key not in _KEYS and key not in _DB_KEYS:
            raise ConfigError(f"{key}: unknown configuration key")
    for key, (name, _) in _DB_KEYS.items():
        if key in raw and f"scenario.{name}" in raw:
            raise ConfigError(f"{key}: conflicts with scenario.{name}; give exactly one")

    kwargs = {ScenarioConfig: {}, RunOptions: {}, SweepSpec: {}}
    for key, value in raw.items():
        try:
            if key in _DB_KEYS:
                name, to_linear = _DB_KEYS[key]
                kwargs[ScenarioConfig][name] = _to_linear(key, to_linear, float(value))
            else:
                cls, name, kind = _KEYS[key]
                kwargs[cls][name] = _parse_value(key, kind, value)
        except ConfigError:
            raise
        except (TypeError, ValueError):
            raise ConfigError(f"{key}: cannot parse value {value!r}") from None

    sweep_kwargs = kwargs[SweepSpec]
    if sweep_kwargs and ("parameter" not in sweep_kwargs or "values" not in sweep_kwargs):
        raise ConfigError("sweep.parameter: sweep sections need both sweep.parameter and sweep.values")
    sweep = None if command == "run" else preset or (SweepSpec(**sweep_kwargs) if sweep_kwargs else None)
    if command == "sweep" and sweep is None:
        raise ConfigError("sweep.parameter: sweep needs --preset or a config file with a sweep section")
    unread = _unread_keys(sweep, preset is not None)
    for key in unread:
        if key in raw:
            raise ConfigError(f"{key}: {unread[key]}")
    scenario = kwargs[ScenarioConfig]
    if sweep is not None:
        scenario |= sweep.base_fields(scenario)
    return ScenarioConfig(**scenario), RunOptions(**kwargs[RunOptions]), sweep


def parse_config_file(path, command: str | None = None, preset: SweepSpec | None = None):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text, byte {exc.start} ({exc.reason})") from None
    return parse_config_text(text, command, preset)


def render_config_text(config: ScenarioConfig, options: RunOptions, sweep: SweepSpec | None = None) -> str:
    """Canonical flat rendering of the keys its command reads; feeding it back reproduces identical runs."""
    unread = _unread_keys(sweep)
    objects = {type(obj): obj for obj in (config, options, sweep)}
    lines = []
    for key, (cls, name, kind) in _KEYS.items():
        value = getattr(objects.get(cls), name, None)
        if key not in unread and value is not None:
            lines.append(f"{key} = {_render_value(kind, value)}")
    return "\n".join(lines) + "\n"
