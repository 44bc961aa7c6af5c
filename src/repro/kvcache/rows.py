"""Dense row handles over int64 allocation columns, shared by the KV managers.

Each resident allocation owns one column of a ``(fields, capacity + 1)``
array; the column index is its *row handle*.  Field 0 is the token count and
reads -1 on every free column, including the last one, which is never handed
out and which handle -1 indexes: a batch gather sees a missing handle as -1.
"""

from __future__ import annotations

import numpy as np

#: field 0 of every table: tokens cached, -1 on a free column
TOKENS = 0


class AllocationRows:
    """Row handles of the resident allocations and their columns."""

    def __init__(self, fields: int, capacity: int = 64) -> None:
        self.columns = np.zeros((fields, capacity + 1), dtype=np.int64)
        self.columns[TOKENS] = -1
        #: sequence id -> row handle, in admission order (handles are reused)
        self.handles: dict[int, int] = {}
        self._free: list[int] = []

    def claim(self, sequence_id: int, values: tuple[int, ...]) -> int:
        """Give ``sequence_id`` a free row set to ``values``; return its handle."""
        if self._free:
            handle = self._free.pop()
        else:
            handle = len(self.handles)
            if handle == self.columns.shape[1] - 1:
                grown = np.zeros((len(self.columns), 2 * handle + 1), dtype=np.int64)
                grown[TOKENS] = -1
                grown[:, :handle] = self.columns[:, :handle]
                self.columns = grown
        self.columns[:, handle] = values
        self.handles[sequence_id] = handle
        return handle

    def release(self, sequence_id: int) -> int | None:
        """Free the row of ``sequence_id`` and return its handle (None if it
        has none); its other fields keep their values until reclaimed."""
        handle = self.handles.pop(sequence_id, None)
        if handle is not None:
            self.columns[TOKENS, handle] = -1
            self._free.append(handle)
        return handle
