"""SHA-256 digests of vmlab's golden outputs, and the environment that made
them. Rewrite ``tests/golden_digests.json`` from the working tree with

    PYTHONPATH=src python tests/golden_digests.py

which prints each (run, output) whose digest changed, with the old and the
new digest. ``tests/test_golden_digests.py`` hashes the same commands'
outputs, which ``tests/conftest.py`` makes once per test session, and
compares.

The bits of ``sin``, ``cos`` and ``exp`` depend on NumPy's version and on
the SIMD paths it dispatches to, so a digest holds only on the environment
recorded beside it. Each entry of ``RUNS`` is one command line; its value
writes that command's outputs into a directory and returns their names.
``Outputs`` runs each command once, so the ``fields-compare`` of the
golden_repr run reads the directory of that ``simulate`` command.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from vmlab import cli

DIGESTS = Path(__file__).with_name("golden_digests.json")
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def environment_key() -> dict:
    """NumPy version, machine, and the CPU features NumPy's dispatch has
    enabled (its baseline and dispatch targets that this CPU has)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:                      # NumPy < 2
        from numpy.core import _multiarray_umath as umath
    found = umath.__cpu_features__
    return {"numpy": np.__version__, "machine": platform.machine(),
            "cpu_dispatch": [f for f in (*umath.__cpu_baseline__,
                                         *umath.__cpu_dispatch__)
                             if found.get(f)]}


def _run_cli(argv: list, stdout: Path) -> None:
    """Run ``vmlab argv`` and write what it prints to ``stdout``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"vmlab {' '.join(argv)} exited {code}")
    stdout.write_text(buf.getvalue())


def _verify(out_dir: Path, outputs: Outputs) -> list:
    _run_cli(["verify", "all", "--seed", "3", "--count", "200000",
              "--out", str(out_dir / "verify.json")], out_dir / "stdout")
    return ["stdout", "verify.json"]


def _simulate(name: str, *extra: str):
    """``vmlab simulate`` of scenario ``name``: its CSVs, ``scenario.json``
    and stdout, and the ``extra`` outputs. ``manifest.json`` holds wall
    times and is left out."""
    def write(out_dir: Path, outputs: Outputs) -> list:
        _run_cli(["simulate", str(SCENARIOS / f"{name}.json"),
                  "--out", str(out_dir)], out_dir / "stdout")
        return ["diagnostics.csv", "ensemble.csv", "fields.csv",
                "scenario.json", "stdout", *extra]
    return write


def _fields_compare(out_dir: Path, outputs: Outputs) -> list:
    """``fields-compare`` of the golden_repr ``simulate`` run at its 20
    probes."""
    _run_cli(["fields-compare", str(outputs.dir(GOLDEN_REPR)),
              "--probes", str(SCENARIOS / "golden_repr_probes.json"),
              "--out", str(out_dir / "compare.json")], out_dir / "stdout")
    return ["compare.json", "stdout"]


# golden_25d, short and small, with its history stored: the 2.5d history
# file and the 2.5d cone sums of fields-compare
HISTORY_25D = dict(json.loads((SCENARIOS / "golden_25d.json").read_text()),
                   store_history=True, t_final=0.5, n_particles=4000)
PROBES_25D = [{"t": 0.5, "x": [10.0 + 4.0 * math.cos(math.pi * k / 3),
                               10.0 + 4.0 * math.sin(math.pi * k / 3)]}
              for k in range(6)]


def _history_25d(out_dir: Path, outputs: Outputs) -> list:
    """``simulate`` of ``HISTORY_25D``, then ``fields-compare`` of its run
    at ``PROBES_25D``."""
    run_dir = out_dir / "run"
    for name, obj in (("scenario.json", HISTORY_25D),
                      ("probes.json", PROBES_25D)):
        (out_dir / name).write_text(json.dumps(obj, sort_keys=True))
    _run_cli(["simulate", str(out_dir / "scenario.json"),
              "--out", str(run_dir)], out_dir / "simulate.stdout")
    _run_cli(["fields-compare", str(run_dir),
              "--probes", str(out_dir / "probes.json"),
              "--out", str(out_dir / "compare.json")], out_dir / "stdout")
    return ["run/history.npz", "simulate.stdout", "compare.json", "stdout"]


GOLDEN_REPR = "simulate golden_repr.json"
RUNS = {"verify all --seed 3 --count 200000": _verify,
        "simulate golden_2d.json": _simulate("golden_2d"),
        "simulate golden_25d.json": _simulate("golden_25d"),
        GOLDEN_REPR: _simulate("golden_repr", "history.npz"),
        "fields-compare <golden_repr run> --probes golden_repr_probes.json":
            _fields_compare,
        "simulate + fields-compare <short golden_25d with history>":
            _history_25d}


class Outputs:
    """The outputs of the ``RUNS`` commands, each in its own directory under
    ``root``. A command runs once, when its directory is first asked for."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self._made = {}                      # run: (directory, output names)

    def dir(self, run: str) -> Path:
        if run not in self._made:
            out = Path(tempfile.mkdtemp(dir=self.root))
            self._made[run] = (out, RUNS[run](out, self))
        return self._made[run][0]

    def digests(self, run: str) -> dict:
        """{output name: SHA-256 hex digest} of ``run``'s outputs."""
        out = self.dir(run)
        return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in sorted(self._made[run][1])}


def main() -> int:
    old = (json.loads(DIGESTS.read_text())["outputs"] if DIGESTS.exists()
           else {})
    with tempfile.TemporaryDirectory() as tmp:
        made = Outputs(Path(tmp))
        outputs = {run: made.digests(run) for run in RUNS}
    DIGESTS.write_text(json.dumps({"environment": environment_key(),
                                   "outputs": outputs},
                                  indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    for run in sorted(old.keys() | outputs.keys()):
        was, now = old.get(run, {}), outputs.get(run, {})
        for name in sorted(was.keys() | now.keys()):
            if was.get(name) != now.get(name):
                print(f"changed: {run}: {name}: "
                      f"{was.get(name)} -> {now.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
