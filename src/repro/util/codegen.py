"""Compiling generated source under a name of its own.

The codecs, the chained hop and the send path run code generated when a
schema or a link is first seen.  :func:`run_generated` compiles it under
a filename that names its generator and subject, and registers the
source with :mod:`linecache`: a traceback through generated code shows
the generated line, and ``repro profile`` labels its frames by what
generated them instead of ``<string>``.
"""

from __future__ import annotations

import linecache
import re
import zlib
from typing import Any


def indent(lines: list[str], depth: int) -> list[str]:
    """``lines`` of source, indented ``depth`` levels."""
    return ["    " * depth + line for line in lines]


def run_generated(lines: list[str], generator: str, subject: str, scope: dict[str, Any]) -> None:
    """Run the source ``lines`` in ``scope``, compiled as the file
    ``<generator:subject:digest>``.

    The digest is of the source, so one subject generated two ways gets
    two names (and two ``linecache`` entries), and the same source
    generated again gets the same one.  ``/``, ``;`` and whitespace in
    ``subject`` become ``_``: the profiler's collapsed stacks split on
    them.
    """
    subject = re.sub(r"[/;\s]", "_", subject)
    source = "\n".join(lines) + "\n"
    # CRC-32, not hashlib: importing hashlib maps OpenSSL, +3.7 MiB of RSS.
    digest = f"{zlib.crc32(source.encode('utf-8')):08x}"
    filename = f"<{generator}:{subject}:{digest}>"
    # An mtime of None marks the entry as not backed by a file, so
    # ``linecache.checkcache`` keeps it.
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), scope)  # noqa: S102 - source is generated
