"""The two rules by which sorted sources become one, newest per key.

* Compaction, :func:`merge_entries`: the largest sequence number wins,
  whatever order the sources come in, since a merge's inputs carry no
  age order.  Tombstones are dropped when the output lands in the last
  level: no older version can exist below.
* Range query, :func:`newest_first`: the sources come in probe order and
  the first version met wins, as for a point read.  No tombstone is
  returned.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain
from operator import itemgetter

from repro.sstable.entry import Entry

_key_of = itemgetter(0)


def merge_entries(
    sources: list[Iterable[Entry]],
    drop_tombstones: bool = False,
) -> list[Entry]:
    """Merge sorted entry sources with newest-wins deduplication.

    Each source must be strictly sorted by key with unique keys *within*
    the source; across sources the same key may appear with different
    sequence numbers.  Returns strictly sorted unique keys.

    The work is one C-level sort of the concatenated sources — ``Entry``
    tuples order by key, then ``seq`` ascending, and timsort merges the
    already-sorted sources as runs — followed by one dict pass: a dict
    keeps the first insertion's position and the last insertion's value,
    that is ascending key order and each key's newest version.  The same
    ``(key, seq)`` in two sources (a buffer file beside the run that
    re-wrote it, an adopted entry) is the same write, so which copy
    survives is not observable.
    """
    live = [source for source in sources if source]
    if len(live) == 1:
        merged = live[0]  # Sorted and unique already.
    else:
        pool = list(chain.from_iterable(live))
        pool.sort()
        merged = dict(zip(map(_key_of, pool), pool)).values()
    if drop_tombstones:
        return [entry for entry in merged if not entry.kind]
    return list(merged)


def merge_with_obsolete_count(
    sources: list[Sequence[Entry]],
    drop_tombstones: bool = False,
) -> tuple[list[Entry], int]:
    """Merge ``sources`` fully, returning (result, obsolete entry count).

    The obsolete count — how many input entries were shadowed by newer
    versions or dropped as expired tombstones — is what LSbM's freeze
    detector (Section IV-A) reacts to: when a merge into level ``i+1``
    drops data, the level received repeated keys and ``B(i+1)`` must be
    frozen.  ``sources`` must be sized sequences (lists, or the tuples
    files hand out) so they can be both counted and merged.
    """
    merged = merge_entries(sources, drop_tombstones)
    return merged, sum(map(len, sources)) - len(merged)


def newest_first(sources: list[Sequence[Entry]]) -> list[Entry]:
    """Combine sorted unique-key sources given newest first, dropping
    tombstones.

    One dict is updated from the oldest source to the newest, so each
    key ends on the first version probe order meets; then only the int
    keys are sorted, and no ``Entry`` is compared.
    """
    latest: dict[int, Entry] = {}
    for source in reversed(sources):
        latest.update(zip(map(_key_of, source), source))
    return [entry for entry in map(latest.__getitem__, sorted(latest))
            if not entry.kind]
