"""Property-based tests for tangle checkpoints (hypothesis).

Random tangles — a float64 or float32 arena, an optional
``compact(keep_last=...)``, random tags — are fuzzed for the
checkpoint's contracts:

- **round trip** — save → load preserves every transaction's id,
  parents, issuer, round and tags, the publish counter, the compaction
  epoch, the store dtype, and every row byte for byte;
- **fixed point** — saving the loaded tangle and loading that again
  gives identical rows and metadata;
- **torn files** — a file cut at any zip member boundary, or inside
  any member, raises ``CorruptTangleError`` naming the file.
"""

import os
import re
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dag import CorruptTangleError, Tangle, Transaction, load_tangle, save_tangle

# Tier-1 keeps the example budget small; the dedicated CI chaos job
# widens the sweep by exporting CHAOS_MAX_EXAMPLES.
CHAOS_EXAMPLES = int(os.environ.get("CHAOS_MAX_EXAMPLES", "0"))

SHAPES = ((3, 2), (2,), (1, 1, 3))

tag_dicts = st.dictionaries(
    st.sampled_from(["poisoned", "cluster", "note"]),
    st.one_of(st.booleans(), st.integers(-5, 5), st.text("abc", max_size=4)),
    max_size=3,
)


@st.composite
def tangles(draw):
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    tangle = Tangle([rng.normal(size=s) for s in SHAPES], store_dtype=dtype)
    tangle.genesis.tags.update(draw(tag_dicts))
    added = draw(st.integers(0, 12))
    for _ in range(added):
        ids = [tx.tx_id for tx in tangle.transactions()]
        parents = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=2, unique=True))
        issuer = draw(st.integers(0, 5))
        tangle.add(
            Transaction(
                tangle.next_tx_id(issuer),
                tuple(parents),
                [rng.normal(size=s) for s in SHAPES],
                issuer,
                draw(st.integers(0, 9)),
                tags=draw(tag_dicts),
            )
        )
    keep_last = draw(st.none() | st.integers(0, added))
    if keep_last is not None:
        tangle.compact(keep_last=keep_last)
    return tangle


def state(tangle):
    """Everything a checkpoint must carry, rows as raw bytes."""
    return (
        [
            (tx.tx_id, tx.parents, tx.issuer, tx.round_index, tx.tags)
            for tx in tangle.transactions()
        ],
        tangle._counter,
        tangle.compaction_epoch,
        tangle.arena.dtype,
        tangle.arena.rows(np.arange(len(tangle))).tobytes(),
    )


def cut_points(path: Path) -> list[int]:
    """Byte offsets at every zip member boundary and inside each member
    (and inside the central directory)."""
    size = path.stat().st_size
    with zipfile.ZipFile(path) as archive:
        boundaries = sorted(info.header_offset for info in archive.infolist())
        boundaries.append(archive.start_dir)
    cuts = set(boundaries)
    for start, end in zip(boundaries, boundaries[1:] + [size]):
        cuts.update({start + 1, (start + end) // 2, end - 1})
    return sorted(cut for cut in cuts if 0 <= cut < size)


@settings(deadline=None, max_examples=CHAOS_EXAMPLES or 10)
@given(tangle=tangles())
def test_save_load_round_trips_and_is_a_fixed_point(tangle):
    with tempfile.TemporaryDirectory() as tmp:
        loaded = load_tangle(save_tangle(tangle, Path(tmp) / "first"))
        assert state(loaded) == state(tangle)
        again = load_tangle(save_tangle(loaded, Path(tmp) / "second"))
        assert state(again) == state(loaded)
        assert sorted(os.listdir(tmp)) == ["first.npz", "second.npz"]


@settings(deadline=None, max_examples=CHAOS_EXAMPLES or 5)
@given(tangle=tangles())
def test_torn_checkpoint_names_the_file(tangle):
    with tempfile.TemporaryDirectory() as tmp:
        path = save_tangle(tangle, Path(tmp) / "whole")
        raw = path.read_bytes()
        for cut in cut_points(path):
            torn = Path(tmp) / f"torn-{cut}.npz"
            torn.write_bytes(raw[:cut])
            with pytest.raises(CorruptTangleError, match=re.escape(torn.name)):
                load_tangle(torn)
