"""Shared test setup.

The graph-verifier fixture descriptors reference deliberately-broken
operator classes by import path (``badops:...``); make that module
importable without polluting the installed package.

Hypothesis has a ``ci`` profile: the same examples on every run
(``derandomize``), and a failure prints the blob that reproduces it.
``HYPOTHESIS_PROFILE=ci`` selects it; without it the default (random)
profile runs.

``--lock-witness PATH`` installs the runtime lock-order sanitizer
(:class:`repro.analysis.sanitizer.LockOrderSanitizer`, recording every
acquire) before any test module is imported, and writes its witness to
PATH when the session ends; ``repro analyze --lint src/repro --witness
PATH`` then fails on any lock-order cycle the session took.
"""

import os
import sys

import pytest
from hypothesis import settings

_SANITIZER = pytest.StashKey()


def pytest_addoption(parser):
    parser.addoption(
        "--lock-witness",
        metavar="PATH",
        default=None,
        help="record every lock-order edge the session takes and write "
        "the witness to PATH (for repro analyze --witness)",
    )


def pytest_configure(config):
    path = config.getoption("--lock-witness")
    if path:
        from repro.analysis.sanitizer import LockOrderSanitizer

        sanitizer = LockOrderSanitizer(duty=1.0)
        sanitizer.install()
        config.stash[_SANITIZER] = (sanitizer, path)


def pytest_unconfigure(config):
    sanitizer, path = config.stash.get(_SANITIZER, (None, None))
    if sanitizer is not None:
        sanitizer.uninstall()
        sanitizer.witness().dump(path)

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

_FIXTURE_OPS = os.path.join(os.path.dirname(__file__), "fixtures", "graphs")
if _FIXTURE_OPS not in sys.path:
    sys.path.insert(0, _FIXTURE_OPS)
