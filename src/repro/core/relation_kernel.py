"""Vectorized temporal-relation classification over columnar interval arrays.

Every pattern HTPGM mines is gated by pairwise relation classification (paper
Defs. 3.6–3.8, Alg. 1 lines 6–20).  The scalar reference implementation —
:func:`repro.core.relations.classify` over two :class:`EventInstance` objects —
costs a Python call, several attribute loads and an enum construction *per
pair*; on dense sequences the miner performs millions of such calls and spends
the bulk of its wall-clock in interpreter overhead.

This module is the batch counterpart: event instances are represented as
columnar ``float64`` start/end arrays (each level's flat
:class:`~repro.core.hpg.InstanceTable`) and :func:`classify_pairs`
classifies a whole block of chronologically ordered interval pairs in a
handful of NumPy kernel launches.  Relations are encoded as ``int8`` codes:

======  =============  ==========================================
code    relation       scalar definition
======  =============  ==========================================
``0``   Follow         ``e1.end - ε <= e2.start``
``1``   Contain        ``e1.start <= e2.start and e1.end + ε >= e2.end``
``2``   Overlap        ``e1.start < e2.start and e1.end + ε < e2.end``
                       ``and e1.end - e2.start >= d_o - ε``
``-1``  none           no relation (e.g. overlap below ``d_o``)
======  =============  ==========================================

The code values are the indices into
:data:`repro.core.relations.RELATIONS_BY_CODE`, and the masks are applied in
the exact priority of the scalar :func:`~repro.core.relations.classify` —
Follow ≻ Contain ≻ Overlap — so for every ordered pair the kernel and the
scalar function agree bit for bit (``tests/test_relation_kernel.py`` fuzzes
this equivalence).

:func:`expand_windows` turns per-anchor ``(lo, hi)`` partner windows (the
miner bounds them with ``searchsorted`` under ``tmax``) into explicit pair
index arrays in the same anchor-major enumeration order the scalar loops
use, so dense sequences never materialise the full instance cross product.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError

__all__ = [
    "FOLLOW_CODE",
    "CONTAIN_CODE",
    "OVERLAP_CODE",
    "NO_RELATION_CODE",
    "classify_pairs",
    "expand_windows",
]

#: ``int8`` relation codes returned by :func:`classify_pairs`; the non-negative
#: codes index :data:`repro.core.relations.RELATIONS_BY_CODE`.
FOLLOW_CODE: int = 0
CONTAIN_CODE: int = 1
OVERLAP_CODE: int = 2
NO_RELATION_CODE: int = -1


def classify_pairs(
    starts1: np.ndarray,
    ends1: np.ndarray,
    starts2: np.ndarray,
    ends2: np.ndarray,
    epsilon: float = 0.0,
    min_overlap: float = 1e-9,
) -> np.ndarray:
    """Classify a batch of chronologically ordered interval pairs.

    The four arrays describe the left (``1``) and right (``2``) interval of
    each pair and may have any mutually broadcastable shapes; the result is an
    ``int8`` array of relation codes in the broadcast shape.  Callers must
    order every pair chronologically (``starts1 <= starts2`` element-wise,
    the same precondition the scalar :func:`~repro.core.relations.classify`
    enforces); the miner always enumerates pairs that way.

    The three relation masks are evaluated exactly as the scalar predicates
    and applied in the scalar priority — Follow first, then Contain, then
    Overlap, ``-1`` when none holds — so the kernel is a drop-in batch
    replacement for per-pair ``classify`` calls.
    """
    if epsilon < 0:
        raise ConfigurationError(f"epsilon must be non-negative, got {epsilon}")
    if min_overlap <= 0:
        raise ConfigurationError(f"min_overlap must be positive, got {min_overlap}")
    follow = ends1 - epsilon <= starts2
    contain = (starts1 <= starts2) & (ends1 + epsilon >= ends2)
    overlap = (
        (starts1 < starts2)
        & (ends1 + epsilon < ends2)
        & (ends1 - starts2 >= min_overlap - epsilon)
    )
    # Priority by overwrite order: the last assignment wins, so Follow — the
    # highest-priority relation — is applied last.
    codes = np.full(follow.shape, NO_RELATION_CODE, dtype=np.int8)
    codes[overlap] = OVERLAP_CODE
    codes[contain] = CONTAIN_CODE
    codes[follow] = FOLLOW_CODE
    return codes


def expand_windows(
    lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-anchor ``[lo, hi)`` windows into explicit pair index arrays.

    Returns ``(left, right)`` where ``left[k]`` is the anchor index and
    ``right[k]`` runs over ``range(lo[left[k]], hi[left[k]])``.  Pairs are
    emitted anchor-major with ascending partner indices — exactly the
    enumeration order of the scalar nested loops, which is what keeps the
    occurrence insertion order (and therefore the mined output) byte-identical
    to the reference path.
    """
    counts = np.maximum(hi - lo, 0)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    left = np.repeat(np.arange(len(lo), dtype=np.intp), counts)
    heads = np.concatenate(([0], np.cumsum(counts)[:-1]))
    right = np.arange(total, dtype=np.intp) - np.repeat(heads, counts) + np.repeat(
        lo, counts
    )
    return left, right
