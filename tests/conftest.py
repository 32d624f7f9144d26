"""Fixtures shared by the test modules."""

import pytest

import golden_digests as gd


@pytest.fixture(scope="session")
def golden_outputs(tmp_path_factory):
    """The outputs of the ``golden_digests.RUNS`` commands, each run once a
    session through ``cli.main``, when a test first asks for it: the golden
    digests hash them, and the acceptance checks read the ``simulate`` runs
    of the golden scenarios back."""
    return gd.Outputs(tmp_path_factory.mktemp("golden"))
