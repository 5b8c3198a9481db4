"""Shared test setup.

The graph-verifier fixture descriptors reference deliberately-broken
operator classes by import path (``badops:...``); make that module
importable without polluting the installed package.

Hypothesis has a ``ci`` profile: the same examples on every run
(``derandomize``), and a failure prints the blob that reproduces it.
``HYPOTHESIS_PROFILE=ci`` selects it; without it the default (random)
profile runs.
"""

import os
import sys

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

_FIXTURE_OPS = os.path.join(os.path.dirname(__file__), "fixtures", "graphs")
if _FIXTURE_OPS not in sys.path:
    sys.path.insert(0, _FIXTURE_OPS)
