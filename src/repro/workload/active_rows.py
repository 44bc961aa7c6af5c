"""Struct-of-arrays mirror of the scheduler's active list.

The epoch engine plans and advances every active sequence each epoch; reading
that state from :class:`~repro.workload.requests.Sequence` properties costs a
chain of attribute lookups per sequence per epoch.  The scheduler therefore
keeps it in one ``(field, sequence)`` int64 buffer whose column *i* describes
the *i*-th active sequence in admission order: a column is appended on
admission and deleted whenever a sequence leaves the active list, so the
buffer is never rebuilt on the hot path.  The sequences stay authoritative:
whoever advances them keeps the columns in step (the engine's batched advance
with :meth:`ActiveRows.advance`, the scalar walk with :meth:`ActiveRows.resync`).
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from .requests import Sequence

#: field rows of the buffer
REM_PREFILL = 0  #: prompt tokens still to prefill (including recompute)
REM_DECODE = 1  #: output tokens still to generate
POSITION = 2  #: context length: KV entries cached so far
GENERATED = 3  #: unique output tokens produced so far (survives evictions)
PROMPT = 4  #: the request's prompt length
FIELDS = 5


class ActiveRows:
    """Integer state of the active sequences, one column per sequence."""

    def __init__(self, capacity: int = 64) -> None:
        self._data: npt.NDArray[np.int64] = np.zeros(
            (FIELDS, max(1, capacity)), dtype=np.int64
        )
        #: number of live columns (== number of active sequences)
        self.size = 0

    def append(self, sequence: Sequence) -> None:
        """Add a column for a newly admitted sequence."""
        if self.size == self._data.shape[1]:
            grown = np.zeros((FIELDS, 2 * self.size), dtype=np.int64)
            grown[:, : self.size] = self._data
            self._data = grown
        self._data[:, self.size] = (
            sequence.remaining_prefill,
            sequence.remaining_decode,
            sequence.context_length,
            sequence.generated_tokens,
            sequence.request.prefill_length,
        )
        self.size += 1

    def delete(self, index: int) -> None:
        """Drop column ``index``, shifting the later columns left."""
        size = self.size
        self._data[:, index : size - 1] = self._data[:, index + 1 : size]
        self.size = size - 1

    def resync(self, sequences: list[Sequence]) -> None:
        """Re-derive every column from ``sequences`` (admission order)."""
        self.size = 0
        for sequence in sequences:
            self.append(sequence)

    def state(self) -> npt.NDArray[np.int64]:
        """A ``(FIELDS, size)`` copy of the live columns."""
        return self._data[:, : self.size].copy()

    def advance(
        self,
        prefill_takes: npt.NDArray[np.int64],
        decode_takes: npt.NDArray[np.int64],
    ) -> None:
        """Apply one epoch's per-sequence prefill and decode takes in place."""
        live = self._data[:, : self.size]
        live[REM_PREFILL] -= prefill_takes
        live[REM_DECODE] -= decode_takes
        live[POSITION] += prefill_takes + decode_takes
        live[GENERATED] += decode_takes
