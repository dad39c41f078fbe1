#!/usr/bin/env python
"""Fail when a ``repro-shm-*`` shared-memory segment survives in /dev/shm.

Every segment :mod:`repro.utils.shm` creates is named
``repro-shm-<pid>-<seq>-<nonce>``; after a test or benchmark run none
may remain.  The suite's session fixture checks this from inside the
interpreter; this script re-checks from outside it, catching leaks that
only show after (or because of) interpreter teardown.

Usage::

    python tools/check_shm_leaks.py [WHEN]

``WHEN`` (default ``"after run"``) names the run in the error line.
Exits 1, listing the leaked segments, when any are found; a machine
without ``/dev/shm`` has nothing to leak.
"""

from __future__ import annotations

import sys
from pathlib import Path

SHM = Path("/dev/shm")
PREFIX = "repro-shm-"


def leaked_segments() -> list[str]:
    if not SHM.is_dir():
        return []
    return sorted(p.name for p in SHM.iterdir() if p.name.startswith(PREFIX))


def main(argv: list[str]) -> int:
    when = argv[0] if argv else "after run"
    leaked = leaked_segments()
    if leaked:
        print(f"::error::leaked shared-memory segments {when}:")
        print("\n".join(leaked))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
