"""Write ``session_v<FORMAT_VERSION>.bin``, a session file later readers
must load.

Run from the repository root::

    PYTHONPATH=src python tests/golden/write_session_fixture.py

The script mines the parity tests' seeded ``random_database`` without its
last :data:`HELD_BACK` sequences and writes the session with
:func:`repro.io.write_session`.  ``tests/test_session_io.py``
(``TestCommittedSessionFile``) reads every committed file with the build
under test and checks it against a fresh mine of the same sequences: the
result, the byte-level occurrence store, every entry's instance tuples, and
an append of the held-back sequences against the scratch mine of all of
them.  A file pins the pickled wire shape, so a change to the pickled state
of any session object breaks that test even when a same-build round trip
still passes.  Write a new file only when
``repro.io.session_io.FORMAT_VERSION`` changes, and keep the older ones.

The committed files (:data:`FIXTURES`), each written by this script from
the root of this tree under CPython 3.11.7 and NumPy 2.4.6:

* ``session_v5.bin`` — with the ``repro`` package of commit ``6c6fc89``
  (session format 5, the CSR occurrence store: one sequence id per run and
  run bounds)::

      PYTHONPATH=<checkout of 6c6fc89>/src python tests/golden/write_session_fixture.py

  It holds the node shape of that build: every ``EventNode`` and
  ``CombinationNode`` carries a ``bitmap``, a ``repro.core.bitmap.Bitmap``.
  That class is gone; ``read_session`` reads those bitmaps into a stand-in
  and drops them, converts each entry to one sequence id per row, and
  ``TestCommittedSessionFile`` checks that the loaded nodes have exactly a
  fresh node's fields.  It is the only file that covers either old shape.
* ``session_v6.bin`` — with the ``repro`` package of the change that
  introduced format 6 (one sequence id per row), the child of commit
  ``d484bc7``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import MiningConfig, MiningSession
from repro.io import write_session
from repro.io.session_io import FORMAT_VERSION
from repro.timeseries import SequenceDatabase

TESTS_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(TESTS_DIR))
from test_engine_parity import random_database  # noqa: E402

GOLDEN = Path(__file__).resolve().parent
#: The committed files by format version.
FIXTURES = {version: GOLDEN / f"session_v{version}.bin" for version in (5, 6)}

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
    path = write_session(session, GOLDEN / f"session_v{FORMAT_VERSION}.bin")
    print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
