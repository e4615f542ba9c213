"""Command-line surface: run / sweep, CSV and JSON result emission."""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np
import scipy

from . import __version__
from .config import (
    BEAMFORMERS,
    DELTAS,
    FUSION_METHODS,
    ConfigError,
    SweepSpec,
    m2_to_dbsm,
    parse_config_file,
    parse_config_text,
    render_config_text,
)
from .engine import RNG_SCHEME, SweepRow, run_monte_carlo, sweep, sweep_rows

__all__ = ["main", "PRESETS"]

# Result columns: (SweepRow field, CSV and JSON name), in CSV order.
_RESULT_COLUMNS = [(f.name, "sigma_G_dBsm" if f.name == "sigma_g_dbsm" else f.name) for f in fields(SweepRow)]

# Named desk-scale sweep presets, one per standard parameter study.
PRESETS = {
    # Cell size with constant per-UAV coverage: area and altitude grow with d.
    "fig3": SweepSpec(
        parameter="cell_size_constant_coverage",
        values=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
        beamformers=("ls", "capon"),
        fusions=("avg", "prenorm"),
        sigma_g_dbsm=(-30.0, -10.0, 0.0),
        deltas=(0,),
    ),
    # Cell size at constant area and altitude; 4.0 and 10.0 produce grid
    # sides the uniform deployment cannot tile and are reported as invalid.
    "fig4": SweepSpec(
        parameter="cell_size_constant_area",
        values=(2.5, 4.0, 5.0, 10.0, 12.5, 25.0),
        beamformers=("ls", "capon"),
        fusions=("avg", "prenorm"),
        sigma_g_dbsm=(-30.0,),
        deltas=(0,),
    ),
    "fig5": SweepSpec(
        parameter="cell_size_constant_coverage",
        values=(2.0, 5.0),
        beamformers=("capon",),
        fusions=("avg",),
        sigma_g_dbsm=(-30.0, -10.0, 0.0),
        deltas=(0, 1, 2),
    ),
    "fig6": SweepSpec(
        parameter="antennas",
        values=(4.0, 6.0, 8.0, 12.0, 16.0),
        beamformers=("ls", "capon"),
        fusions=("avg", "prenorm"),
        sigma_g_dbsm=(-30.0, -10.0),
        deltas=(0,),
    ),
    # Altitudes spanning the 1x1, 3x3, and 5x5 per-UAV coverage regimes.
    "fig7": SweepSpec(
        parameter="altitude",
        values=(40.0, 70.0, 100.0, 130.0, 165.0, 200.0),
        beamformers=("capon",),
        fusions=("avg",),
        sigma_g_dbsm=(-30.0, -10.0),
        deltas=(0, 1, 2),
    ),
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def render_results_csv(rows: list[SweepRow]) -> str:
    """Plot-ready CSV; floats carry 17 significant digits so values round-trip."""
    lines = [",".join(column for _, column in _RESULT_COLUMNS)]
    for r in rows:
        lines.append(",".join(_fmt(getattr(r, name)) for name, _ in _RESULT_COLUMNS))
    return "\n".join(lines) + "\n"


# Environment variables that set the BLAS thread count; LS table builds run
# many times slower or faster depending on them.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _peak_rss_mb() -> float | None:
    """This process's peak resident set size in MB (1e6 bytes); None without the resource module."""
    try:
        import resource
    except ImportError:
        return None
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes on macOS, KiB elsewhere
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit / 1e6


def build_manifest(config, options, rows, errors, sweep_spec=None) -> dict:
    return {
        "tool": "uavsense",
        "version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
        "peak_rss_mb": _peak_rss_mb(),
        "rng_scheme": RNG_SCHEME,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config_text": render_config_text(config, options, sweep_spec),
        "errors": errors,
        "results": [{column: getattr(r, name) for name, column in _RESULT_COLUMNS} for r in rows],
    }


def _command(args) -> int:
    """Run the batches of what the command reads of --config and --preset, with its flags; write the rows."""
    preset = PRESETS.get(getattr(args, "preset", None))
    if args.config:
        config, options, sweep_spec = parse_config_file(args.config, args.command, preset)
    else:
        config, options, sweep_spec = parse_config_text("", args.command, preset)

    def given(**flags):
        return {name: value for name, value in flags.items() if value is not None}

    fast_path = None if args.fast_path is None else args.fast_path == "on"
    # Only `run` takes --beamformer and --fusion; a sweep's come from sweep.beamformers and sweep.fusions.
    design = {name: getattr(args, name, None) for name in ("beamformer", "fusion")}
    config = replace(config, **given(trials=args.trials, master_seed=args.seed))
    options = replace(options, **given(fast_path=fast_path, **design))
    if sweep_spec is None:
        stats, sigma, errors = run_monte_carlo(config, options), m2_to_dbsm(config.ground_rcs_m2), []
        rows = sweep_rows(stats, DELTAS, "none", 0.0, options.beamformer, options.fusion, sigma, config.master_seed)
    else:
        rows, errors = sweep(sweep_spec, config, options)
        for err in errors:
            print(f"invalid sweep point: {err}", file=sys.stderr)
        if not rows:
            print("no valid sweep points", file=sys.stderr)
            return 1
    if args.format == "json":
        text = json.dumps(build_manifest(config, options, rows, errors, sweep_spec), indent=2, sort_keys=True) + "\n"
    else:
        text = render_results_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="uavsense",
        description="Half-duplex UAV distributed sensing simulator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--trials", type=int, help="Monte Carlo trials")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--fast-path", dest="fast_path", choices=("on", "off"))

    p_run = sub.add_parser("run", help="one Monte Carlo batch at a fixed configuration")
    add_common(p_run)
    p_run.add_argument("--beamformer", choices=BEAMFORMERS)
    p_run.add_argument("--fusion", choices=FUSION_METHODS)
    p_sweep = sub.add_parser("sweep", help="parameter sweep, by preset or config sweep section")
    add_common(p_sweep)
    p_sweep.add_argument("--preset", choices=PRESETS)

    args = parser.parse_args(argv)
    try:
        return _command(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
