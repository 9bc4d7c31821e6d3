"""Set-up shared by every test module.

When a hypothesis test fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to write a patch for the falsifying
example.  That module imports ``libcst``, whose first import emits a
``DeprecationWarning``.  ``pyproject.toml`` turns the warning into an
error, so the run would stop with an INTERNALERROR instead of reporting
the failure.  Importing the module here, with that warning ignored,
leaves nothing for the plugin's later import to warn about.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin writes no patch
        pass
