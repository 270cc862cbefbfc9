"""Write ``session_v5.bin``, a session file the current reader must load.

Run from the repository root::

    PYTHONPATH=src python tests/golden/write_session_fixture.py

The script mines the parity tests' seeded ``random_database`` without its
last :data:`HELD_BACK` sequences and writes the session with
:func:`repro.io.write_session`.  ``tests/test_session_io.py``
(``TestCommittedSessionFile``) reads the committed file with the build under
test and checks it against a fresh mine of the same sequences: the result,
the byte-level occurrence store, every entry's instance tuples, and an
append of the held-back sequences against the scratch mine of all of them.
The file pins the pickled wire shape, so a change to the pickled state of
any session object breaks that test even when a same-build round trip
still passes.

The committed file was written by this script with the ``repro`` package
of commit ``6c6fc89`` (session format 5, the CSR occurrence store)::

    PYTHONPATH=<checkout of 6c6fc89>/src python tests/golden/write_session_fixture.py

run from the root of this tree under CPython 3.11.7 and NumPy 2.4.6.  Replace it only when
``repro.io.session_io.FORMAT_VERSION`` changes.

The file holds the node shape of that build: every ``EventNode`` and
``CombinationNode`` carries a ``bitmap``, a ``repro.core.bitmap.Bitmap``.
That class is gone; ``read_session`` reads those bitmaps into a stand-in and
drops them, and ``TestCommittedSessionFile`` checks that the loaded nodes
have exactly a fresh node's fields.  Running this script now writes the
current shape, without bitmaps, so the committed file is the only one that
covers the old shape.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import MiningConfig, MiningSession
from repro.io import write_session
from repro.timeseries import SequenceDatabase

TESTS_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(TESTS_DIR))
from test_engine_parity import random_database  # noqa: E402

FIXTURE = Path(__file__).resolve().parent / "session_v5.bin"

#: The mined configuration: it reaches level 3 on :func:`base_database`.
CONFIG = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)

#: Sequences of :func:`full_database` the file does not hold (the append).
HELD_BACK = 3


def full_database() -> SequenceDatabase:
    """Every sequence: the file's base plus the held-back delta."""
    return random_database(0, n_sequences=10, n_series=2)


def base_database() -> SequenceDatabase:
    """The sequences the file's session was mined from."""
    return SequenceDatabase(full_database().sequences[:-HELD_BACK])


def main() -> None:
    session = MiningSession(CONFIG)
    session.mine(base_database())
    path = write_session(session, FIXTURE)
    print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
