"""Super-files (Section IV-C).

The underlying LSM-tree wants large compaction units (fewer, bigger
sequential I/Os); the compaction buffer wants small trim units (precise
identification of frequently visited data).  The paper resolves the tension
with an extra index layer: "Each super-file mapping to a fixed number of
continuous files, and all these files stored in a continuous disk region.
A super-file is the basic operation unit for the underlying LSM-tree while
a file is the basic operation unit for the compaction buffer."

Here a super-file is no object of its own: it is the id that
:func:`group_into_superfiles` stamps on consecutively built
:class:`~repro.sstable.sstable.SSTableFile` objects.  Engines that compact
at super-file granularity consume the files sharing an id as one unit,
while the compaction buffer appends and trims the member files
individually.
"""

from __future__ import annotations

from repro.errors import TableError
from repro.sstable.sstable import SSTableFile


class SuperFileIdSource:
    """Monotonic super-file-id generator."""

    def __init__(self) -> None:
        self._next = 0

    def next_id(self) -> int:
        value = self._next
        self._next += 1
        return value


def group_into_superfiles(
    files: list[SSTableFile],
    files_per_superfile: int,
    ids: SuperFileIdSource,
) -> None:
    """Stamp consecutively built files with super-file ids of fixed arity.

    Each group of ``files_per_superfile`` files gets the next id; the
    trailing group may be smaller (the last super-file of a build is
    simply short).  A group's members must be sorted and disjoint.
    """
    if files_per_superfile < 1:
        raise TableError("files_per_superfile must be >= 1")
    for start in range(0, len(files), files_per_superfile):
        members = files[start : start + files_per_superfile]
        superfile_id = ids.next_id()
        for left, right in zip(members, members[1:]):
            if left.max_key >= right.min_key:
                raise TableError("super-file members must be sorted and disjoint")
        for member in members:
            member.superfile_id = superfile_id
