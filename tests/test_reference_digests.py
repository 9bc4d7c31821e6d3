"""Every file of the reference runs matches its recorded SHA-256.

The runs and the command that rewrites ``reference_digests.json`` after an
intended output change are in ``reference_runs.py``.
"""

import json

from reference_runs import DIGESTS, digests, fingerprint

REWRITE = "PYTHONPATH=src python tests/reference_runs.py"


def test_reference_outputs_match_their_digests(reference_outputs):
    recorded = json.loads(DIGESTS.read_text())
    here = fingerprint()
    differ = sorted(k for k in recorded["fingerprint"].keys() | here.keys()
                    if recorded["fingerprint"].get(k) != here.get(k))
    assert not differ, (f"digests were recorded with another {', '.join(differ)} "
                        f"({recorded['fingerprint']} here {here}); check the outputs "
                        f"and rewrite them with `{REWRITE}`")
    made = digests(reference_outputs)
    moved = sorted(k for k in recorded["digests"].keys() | made.keys()
                   if recorded["digests"].get(k) != made.get(k))
    assert not moved, f"{len(moved)} outputs differ from their digests: {moved}"
