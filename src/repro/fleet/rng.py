"""Batched views over the per-network random streams.

The sequential slot tier gives every :class:`~repro.core.network.SlottedNetwork`
its own PCG64 ``"slots"`` generator plus one ``"offset"`` generator per
tag (see :class:`~repro.sim.random.RandomStreams`).  The fleet engine
must consume *exactly the same* draws in *exactly the same* per-stream
order — byte-identical slot logs are the correctness contract — while
stepping a thousand networks per vectorised call.

The trick: numpy's bit generators produce identical value sequences
whether drawn one scalar at a time or as a block (``gen.random(k)``
equals ``k`` successive ``gen.random()`` calls, and likewise for
``gen.integers`` with fixed bounds).  So each stream is materialised
into a buffered *block* up front, and the engine consumes slices of the
block with a per-stream cursor — the cursor plays the role of a
counter-based stream's counter.  A bank holds no generator objects:
each stream is one row of PCG64 state (:func:`repro.phy.kernels.pcg64_seed`),
and :func:`repro.phy.kernels.pcg64_refill` tops every low stream up
with that generator's next draws in one call, advancing its row.
Cross-stream order never matters (streams are independent by
construction), so masked, vectorised consumption is free to reorder
*across* networks and tags as long as each stream's own cursor only
moves forward.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.phy import kernels

#: Default buffered block length for the per-network uniform streams.
UNIFORM_BLOCK = 1024

#: Default buffered block length for the per-(network, tag) offset
#: streams.  Offset draws only happen on migrations, so a small block
#: lasts a long time.
OFFSET_BLOCK = 64


def _none_short(cursor: np.ndarray, block: int, needed: int) -> bool:
    """Whether every cursor lies in ``[0, block - needed]``: no stream
    is short of ``needed`` draws, so a refill would change nothing.
    Anything else, a cursor outside its block included, goes to
    :func:`~repro.phy.kernels.pcg64_refill` and its checks.  Read as
    unsigned, a negative cursor exceeds every bound, so one reduction
    checks both ends."""
    return (
        cursor.size > 0
        and cursor.view(np.uint64).max() <= block - max(needed, 0)
    )


def _tail(
    states: np.ndarray, buf: np.ndarray, cursor: np.ndarray, stream: int
) -> Tuple[Dict[str, object], list]:
    return (
        kernels._pcg64_state(states[stream].tolist()),
        buf[stream, cursor[stream]:].tolist(),
    )


class UniformBank:
    """Block-buffered uniforms over N independent ``"slots"`` streams.

    One row per network, seeded as ``np.random.default_rng(seeds[i])``;
    the ``take_*`` methods return values in the same order the
    sequential simulator would have drawn them from each network's own
    generator.
    """

    def __init__(self, seeds: Sequence[int], block: int = UNIFORM_BLOCK) -> None:
        if block < 8:
            raise ValueError("block must be at least 8 draws")
        self._states = kernels.pcg64_seed(seeds)
        n = len(self._states)
        self._block = block
        self._buf = np.empty((n, block), dtype=np.float64)
        self._cursor = np.full(n, block, dtype=np.int64)
        self.ensure(block)
        self._rows = np.arange(n)

    def ensure(self, needed: int) -> None:
        """Guarantee every stream has ``needed`` buffered draws left.

        Streams running low are compacted (remaining values shift to the
        front — they were drawn first and must be consumed first) and
        topped up from their own generator.
        """
        if needed > self._block:
            raise ValueError(
                f"cannot guarantee {needed} draws from a {self._block}-wide buffer"
            )
        if _none_short(self._cursor, self._block, needed):
            return
        kernels.pcg64_refill(self._states, self._buf, self._cursor, needed)

    def take_grid(self, width: int) -> np.ndarray:
        """``width`` consecutive draws from every stream: shape (N, width).

        Column ``k`` is the (cursor + k)-th draw of each stream — the
        order the sequential loop draws per-tag beacon-loss uniforms.
        """
        if width == 0:
            return np.empty((len(self._cursor), 0), dtype=np.float64)
        idx = self._cursor[:, None] + np.arange(width)
        out = self._buf[self._rows[:, None], idx]
        self._cursor += width
        return out

    def take_ranked(self, ranks: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Variable-count consumption: stream ``i`` yields its next
        ``counts[i]`` draws; entry ``(i, j)`` of the result is that
        stream's draw of rank ``ranks[i, j]`` (callers pass the
        per-stream rank of each consumer, e.g. the cumulative index of
        each powered tag).  Entries whose rank is negative read the
        cursor draw but are meaningless — mask them off."""
        idx = self._cursor[:, None] + np.maximum(ranks, 0)
        out = self._buf[self._rows[:, None], idx]
        self._cursor += counts
        return out

    def take_rows(self, rows: np.ndarray) -> np.ndarray:
        """One draw from each of the (distinct) listed streams."""
        out = self._buf[rows, self._cursor[rows]]
        self._cursor[rows] += 1
        return out

    def take_scalar(self, stream: int) -> float:
        """One draw from a single stream (the scalar escape path)."""
        value = float(self._buf[stream, self._cursor[stream]])
        self._cursor[stream] += 1
        return value

    def tail(self, stream: int) -> Tuple[Dict[str, object], List[float]]:
        """Where ``stream`` stands: numpy's ``PCG64.state`` of its
        generator and the buffered draws not yet taken, which come
        before that generator's next draws."""
        return _tail(self._states, self._buf, self._cursor, stream)


class OffsetBank:
    """Block-buffered slot offsets over N*T independent ``"offset"`` streams.

    Stream ``(network, tag)`` buffers draws of ``integers(0, period)``
    with the tag's fixed period — the exact call the sequential
    :class:`~repro.core.state_machine.TagStateMachine` makes on every
    migration.  Consumption is masked: :meth:`take_masked` hands one
    fresh offset to every (network, tag) selected by a boolean matrix.
    """

    def __init__(
        self,
        seeds: Sequence[Sequence[int]],
        periods: Sequence[int],
        block: int = OFFSET_BLOCK,
    ) -> None:
        if block < 8:
            raise ValueError("block must be at least 8 draws")
        grid = np.asarray(seeds, dtype=np.uint64)
        t = len(periods)
        if grid.ndim != 2 or grid.shape[1] != t:
            raise ValueError("seed grid does not match the period list")
        n = grid.shape[0]
        self._block = block
        # Streams run row-major: stream n * t + j is (network n, tag j).
        self._states = kernels.pcg64_seed(grid)
        self._bounds = np.tile(np.asarray(periods, dtype=np.int64), n)
        self._buf = np.empty((n, t, block), dtype=np.int64)
        self._cursor = np.full((n, t), block, dtype=np.int64)
        self.ensure(block)

    def ensure(self, needed: int) -> None:
        """Guarantee ``needed`` buffered draws in every stream.

        A tag draws at most a handful of offsets per slot (feedback
        re-pick, RESET, loss demote, EMPTY-gate re-roll, brownout
        reboot), so callers ask for that small bound once per step.
        """
        if needed > self._block:
            raise ValueError(
                f"cannot guarantee {needed} draws from a {self._block}-wide buffer"
            )
        if _none_short(self._cursor, self._block, needed):
            return
        kernels.pcg64_refill(
            self._states,
            self._buf.reshape(-1, self._block),
            self._cursor.reshape(-1),
            needed,
            self._bounds,
        )

    def tail(self, network: int, tag: int) -> Tuple[Dict[str, object], List[int]]:
        """:meth:`UniformBank.tail` for stream ``(network, tag)``."""
        t = self._cursor.shape[1]
        return _tail(
            self._states,
            self._buf.reshape(-1, self._block),
            self._cursor.reshape(-1),
            network * t + tag,
        )

    def take_masked(self, mask: np.ndarray, out: np.ndarray) -> None:
        """Write one fresh offset into ``out`` wherever ``mask`` holds.

        Each selected stream's cursor advances by one; unselected
        streams are untouched, preserving their sequential alignment.
        """
        if not mask.any():
            return
        rows, cols = np.nonzero(mask)
        out[rows, cols] = self._buf[rows, cols, self._cursor[rows, cols]]
        self._cursor[rows, cols] += 1
