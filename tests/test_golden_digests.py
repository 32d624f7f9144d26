"""The golden outputs keep their bytes: each run in ``golden_digests.RUNS``
writes files whose SHA-256 digests equal those in ``golden_digests.json``,
on the environment that made them. The runs are the session's
``golden_outputs`` (``tests/conftest.py``), which the acceptance checks
read as well."""

import json

import pytest

import golden_digests as gd

STORED = json.loads(gd.DIGESTS.read_text())


def test_every_run_has_stored_digests():
    assert sorted(STORED["outputs"]) == sorted(gd.RUNS)


@pytest.mark.parametrize("run", sorted(gd.RUNS))
def test_outputs_match_stored_digests(run, golden_outputs):
    env, made = gd.environment_key(), STORED["environment"]
    differ = sorted(k for k in env.keys() | made.keys()
                    if env.get(k) != made.get(k))
    if differ:
        pytest.skip(f"digests were made on another environment; "
                    f"keys that differ: {differ}")
    got = golden_outputs.digests(run)
    want = STORED["outputs"][run]
    changed = sorted(n for n in got.keys() | want.keys()
                     if got.get(n) != want.get(n))
    assert not changed, f"{run}: outputs whose bytes changed: {changed}"
