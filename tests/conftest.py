"""Set-up shared by every test module.

When a hypothesis test fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to write a patch for the falsifying
example.  That module imports ``libcst``, whose first import emits a
``DeprecationWarning``.  ``pyproject.toml`` turns the warning into an
error, so the run would stop with an INTERNALERROR instead of reporting
the failure.  Importing the module here, with that warning ignored,
leaves nothing for the plugin's later import to warn about.

The reference runs of ``reference_runs.py`` are made once per session
and shared by the tests that read their outputs.
"""

import warnings

import pytest

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin writes no patch
        pass


@pytest.fixture(scope="session")
def reference_outputs(tmp_path_factory):
    """Output directory of each run in ``reference_runs.RUNS``, made once per session."""
    from reference_runs import run_references

    return run_references(tmp_path_factory.mktemp("reference"))
