"""Byte identity of the command line's outputs between a git revision and this checkout.

    python3 identity/run.py REV

Extracts REV with ``git archive`` into a temporary directory, runs one fixed
set of uavsense commands in that tree and in this checkout's working tree
(one BLAS thread, the two trees side by side), and prints one line per
output: ``same`` or ``DIFF``, the SHA-256 of this checkout's output, and the
output's name, with REV's digest after a differing one. The exit code is 0
when every output is identical and 1 otherwise. Each command gives its exit
code, its stderr and its stdout (CSV or JSON); a JSON manifest is compared on
the fields that depend on neither the host nor the clock: ``config_text``,
``results`` and ``errors``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The manifest fields that a run's inputs decide; the others record the host, the clock or the memory used.
JSON_FIELDS = ("config_text", "results", "errors")

# Config files the commands read, by file name.
CONFIGS = {
    "small_ls.cfg": "scenario.uav_count = 4\nscenario.grid_side = 8\nscenario.area_side_m = 40.0\n"
    "scenario.array_side = 4\nrun.beamformer = ls\nrun.fusion = prenorm\n",
    "ground_rcs.cfg": "scenario.uav_count = 4\nscenario.grid_side = 8\nscenario.area_side_m = 40.0\n"
    "scenario.array_side = 4\nsweep.parameter = ground_rcs\nsweep.values = -30, -10\n"
    "sweep.beamformers = ls, capon\nsweep.fusions = avg, prenorm\n",
    "reference.cfg": "scenario.uav_count = 4\nscenario.grid_side = 8\nscenario.area_side_m = 40.0\n"
    "scenario.array_side = 4\nscenario.symbols_per_frame = 8\nscenario.subcarriers = 16\n",
}

# Output name -> command-line arguments; a config file is named by its CONFIGS key.
FIGURES = ("fig3", "fig4", "fig5", "fig6", "fig7")
COMMANDS = {f"sweep-{fig}.csv": ["sweep", "--preset", fig, "--trials", "20"] for fig in FIGURES}
COMMANDS |= {
    "run-defaults.csv": ["run", "--trials", "200"],
    "run-defaults.json": ["run", "--trials", "200", "--format", "json"],
    "run-4uav-ls-prenorm.csv": ["run", "--config", "small_ls.cfg", "--trials", "200"],
    "run-4uav-ls-prenorm.json": ["run", "--config", "small_ls.cfg", "--trials", "200", "--format", "json"],
    "sweep-ground-rcs.csv": ["sweep", "--config", "ground_rcs.cfg", "--trials", "20"],
    "sweep-ground-rcs.json": ["sweep", "--config", "ground_rcs.cfg", "--trials", "20", "--format", "json"],
    "run-reference.csv": ["run", "--config", "reference.cfg", "--fast-path", "off", "--trials", "5"],
    "run-reference.json": ["run", "--config", "reference.cfg", "--fast-path", "off", "--trials", "5", "--format=json"],
}


def comparable(name: str, data: bytes) -> bytes:
    """The bytes of output `name` that must not change: a JSON manifest's JSON_FIELDS, any other output whole."""
    if not name.endswith(".json"):
        return data
    try:
        manifest = json.loads(data)
    except ValueError:
        return data
    return json.dumps({key: manifest.get(key) for key in JSON_FIELDS}, indent=1, sort_keys=True).encode()


def compare(before: dict[str, bytes], after: dict[str, bytes]) -> tuple[list[str], bool]:
    """One line per output name of either side, after's order first, and whether every output is identical.
    A line reads 'same <digest> <name>', or 'DIFF <digest> <name> (was <digest>)', each digest the SHA-256 of
    the output's comparable bytes, '-' where the output is missing."""
    def digest(data: bytes | None) -> str:
        return "-" if data is None else hashlib.sha256(data).hexdigest()

    lines, identical = [], True
    for name in list(after) + [name for name in before if name not in after]:
        old, new = (None if o is None else comparable(name, o) for o in (before.get(name), after.get(name)))
        if new is not None and old == new:
            lines.append(f"same {digest(new)} {name}")
        else:
            lines.append(f"DIFF {digest(new)} {name} (was {digest(old)})")
            identical = False
    return lines, identical


def run_commands(tree: Path, workdir: Path) -> dict[str, bytes]:
    """Each command's outputs in the source tree `tree`, run from `workdir`: NAME (its stdout), NAME.stderr and
    NAME.exit."""
    env = os.environ | THREAD_ENV | {"PYTHONPATH": str(tree / "src")}
    outputs = {}
    for name, args in COMMANDS.items():
        done = subprocess.run([sys.executable, "-m", "uavsense", *args], cwd=workdir, env=env, capture_output=True)
        outputs |= {name: done.stdout, f"{name}.stderr": done.stderr, f"{name}.exit": str(done.returncode).encode()}
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare this checkout against")
    args = parser.parse_args(argv)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", args.rev], capture_output=True)
    if archive.returncode:
        print(archive.stderr.decode(errors="replace"), end="", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="uavsense-identity-") as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "rev")
        for name, text in CONFIGS.items():
            (tmp / name).write_text(text, encoding="utf-8")
        with ThreadPoolExecutor(max_workers=2) as pool:
            before, after = pool.map(run_commands, (tmp / "rev", ROOT), (tmp, tmp))
    lines, identical = compare(before, after)
    print("\n".join(lines))
    print(f"{'identical' if identical else 'DIFFERENT'}: {len(lines)} outputs against {args.rev}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
