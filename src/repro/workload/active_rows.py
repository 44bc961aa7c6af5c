"""Struct-of-arrays state of the scheduler's active list.

The epoch engine plans and advances every active sequence each epoch; reading
that state from :class:`~repro.workload.requests.Sequence` properties costs a
chain of attribute lookups per sequence per epoch.  The scheduler therefore
keeps it in one ``(field, sequence)`` int64 buffer whose column *i* describes
the *i*-th active sequence in admission order: a column is appended on
admission and removed whenever a sequence leaves the active list, so the
buffer is never rebuilt on the hot path.  Each column also carries the
sequence's KV row handle, by which the KV manager grows the batch.

The columns are authoritative: the engine's batched advance moves them alone
(:meth:`ActiveRows.advance`).  A sequence's progress and phase are written
from its column when the column is removed (completion, eviction,
preemption, fault recompute, quota shed), and for every column by
:meth:`ActiveRows.flush` before the engine's scalar walk, a checkpoint or a
fault injection reads the sequences.  The scalar walk advances the sequences
and re-derives the columns afterwards (:meth:`ActiveRows.resync`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import numpy.typing as npt

from .requests import Sequence, SequencePhase

#: field rows of the buffer
REM_PREFILL = 0  #: prompt tokens still to prefill (including recompute)
REM_DECODE = 1  #: output tokens still to generate
POSITION = 2  #: context length: KV entries cached so far
GENERATED = 3  #: unique output tokens produced so far (survives evictions)
PROMPT = 4  #: the request's prompt length
HANDLE = 5  #: the KV manager's row handle of the allocation (-1: none)
FIELDS = 6


class ActiveRows:
    """Integer state of the active sequences, one column per sequence.

    ``bind`` maps an admitted sequence to its KV row handle (the KV
    manager's ``bind_row``); without one every handle is -1.
    """

    def __init__(
        self, bind: Callable[[Sequence], int] | None = None, capacity: int = 64
    ) -> None:
        self._bind = bind
        self._data: npt.NDArray[np.int64] = np.zeros(
            (FIELDS, max(1, capacity)), dtype=np.int64
        )
        #: number of live columns (== number of active sequences)
        self.size = 0
        #: the columns hold progress the sequences have not been told
        self.ahead = False

    def _column(self, sequence: Sequence) -> tuple[int, ...]:
        return (
            sequence.remaining_prefill,
            sequence.remaining_decode,
            sequence.context_length,
            sequence.generated_tokens,
            sequence.request.prefill_length,
            -1 if self._bind is None else self._bind(sequence),
        )

    def _reserve(self, size: int) -> None:
        """Make room for ``size`` columns, keeping the live ones."""
        if size > self._data.shape[1]:
            grown = np.zeros((FIELDS, max(size, 2 * self.size)), dtype=np.int64)
            grown[:, : self.size] = self._data[:, : self.size]
            self._data = grown

    def append(self, sequence: Sequence) -> None:
        """Add a column for a newly admitted sequence."""
        self._reserve(self.size + 1)
        self._data[:, self.size] = self._column(sequence)
        self.size += 1

    def remove(self, index: int, sequence: Sequence) -> None:
        """Drop column ``index``, first flushing it into ``sequence``."""
        size = self.size
        if self.ahead:
            _flush(sequence, *self._data[: REM_DECODE + 1, index].tolist())
        self._data[:, index : size - 1] = self._data[:, index + 1 : size]
        self.size = size - 1

    def flush(self, sequences: list[Sequence]) -> None:
        """Flush every column into its sequence (admission order)."""
        if self.ahead:
            for sequence, remaining in zip(
                sequences, self._data[: REM_DECODE + 1, : self.size].T.tolist()
            ):
                _flush(sequence, *remaining)
            self.ahead = False

    def resync(self, sequences: list[Sequence]) -> None:
        """Re-derive every column from ``sequences`` (admission order)."""
        self.size = 0
        self.ahead = False
        self._reserve(len(sequences))
        if sequences:
            columns = [self._column(sequence) for sequence in sequences]
            self._data[:, : len(sequences)] = np.array(columns, dtype=np.int64).T
        self.size = len(sequences)

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
        self.ahead = True


def _flush(sequence: Sequence, rem_prefill: int, rem_decode: int) -> None:
    """Set a sequence's progress and phase from its column's remainders, as
    :meth:`Sequence.advance_tokens` would have left them."""
    sequence.prefill_progress = sequence.total_prefill_target - rem_prefill
    sequence.decode_progress = (
        sequence.request.decode_length - sequence.decode_offset - rem_decode
    )
    if rem_prefill > 0:
        sequence.phase = SequencePhase.PREFILL
    elif rem_decode > 0:
        sequence.phase = SequencePhase.DECODE
    else:
        sequence.phase = SequencePhase.COMPLETE
