"""Self-time arithmetic and binding coverage of the benchmark's tracer."""

import importlib
import itertools
import sys

import numpy as np
import pytest

import uavsense
from tracer import TRACED, Tracer, self_times, uavsense_modules

# Import every submodule so the coverage test sees all bindings.
for _name in ("beamforming", "cli", "config", "engine", "fusion", "geometry", "ofdm"):
    importlib.import_module(f"uavsense.{_name}")


def _fake_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    parents = np.array([-1, 0, 1, 0])
    starts = np.array([0.0, 1.0, 2.0, 5.0])
    ends = np.array([10.0, 4.0, 3.0, 9.0])
    own = self_times(parents, starts, ends)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == ends[0] - starts[0]


def test_nested_wrapped_calls():
    tracer = Tracer(targets={}, clock=_fake_clock())
    inner = tracer.wrap(lambda: None, "inner")

    def body():
        inner()
        inner()

    outer = tracer.wrap(body, "outer")
    outer()  # clock: outer 0..5, inner 1..2 and 3..4
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "self_s": 3.0, "inclusive_s": 5.0}
    assert summary["inner"] == {"calls": 2, "self_s": 2.0, "inclusive_s": 2.0}


def test_same_name_nesting_counts_inclusive_time_once():
    tracer = Tracer(targets={}, clock=_fake_clock())
    inner = tracer.wrap(lambda: None, "layer")
    outer = tracer.wrap(lambda: inner(), "layer")
    with tracer.span("root"):
        outer()  # root 0..5, outer 1..4, inner 2..3
    summary = tracer.summary()
    assert summary["layer"] == {"calls": 2, "self_s": 3.0, "inclusive_s": 3.0}
    assert summary["root"]["self_s"] == 2.0


def test_span_closes_when_the_call_raises():
    tracer = Tracer(targets={}, clock=_fake_clock())

    def boom():
        raise ValueError("no")

    wrapped = tracer.wrap(boom, "boom")
    with pytest.raises(ValueError):
        wrapped()
    wrapped_ok = tracer.wrap(lambda: None, "ok")
    wrapped_ok()
    assert tracer.parents.tolist() == [-1, -1]
    assert tracer.summary()["boom"]["self_s"] == 1.0


def test_install_leaves_no_unwrapped_binding_and_uninstall_restores():
    originals = [
        getattr(sys.modules[module], fn) for module, functions in TRACED.values() for fn in functions
    ]
    before = {(m.__name__, a): v for m in uavsense_modules() for a, v in vars(m).items()}
    tracer = Tracer()
    tracer.install()
    try:
        for module in uavsense_modules():
            for attr, value in vars(module).items():
                assert not any(value is fn for fn in originals), f"{module.__name__}.{attr} is not wrapped"
        # Bindings made by `from .x import y` share the defining module's wrapper.
        assert uavsense.ofdm.aoa is uavsense.geometry.aoa is uavsense.aoa
        assert uavsense.ofdm.aoa.__wrapped__ in originals
    finally:
        tracer.uninstall()
    after = {(m.__name__, a): v for m in uavsense_modules() for a, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())


def test_calls_inside_the_library_are_traced():
    config = uavsense.ScenarioConfig(
        uav_count=4, grid_side=8, area_side_m=40.0, array_side=4, symbols_per_frame=8, subcarriers=16, trials=2
    )
    options = uavsense.RunOptions(fast_path=False, noise=False)
    tracer = Tracer()
    tracer.install()
    try:
        tables = uavsense.build_tables(config, options)
        uavsense.run_trial(config, 0, tables=tables)
    finally:
        tracer.uninstall()
    a = tracer.arrays()
    names = np.array(tracer.names)[a["name_ids"]]
    parent_names = np.where(a["parents"] >= 0, names[np.maximum(a["parents"], 0)], "")
    # aoa is reached from build_reflections through ofdm's own binding.
    assert np.any((names == "geometry.aoa") & (parent_names == "ofdm.build_reflections"))
    assert np.any((names == "beamforming.steering_vector") & (parent_names == "beamforming.design"))
    summary = tracer.summary()
    assert summary["engine.trial_loop"]["calls"] == 1
    assert summary["engine.build_tables"]["calls"] == 1
