"""Row-stacked helpers for advancing R replications in lockstep.

Iterates, gradients and estimates of R replications are stacked as rows of
(R, dim) arrays.  Two things must then agree bit for bit with what one
replication computes on its own:

* `row_dot` takes one dot product per row with the same inner loop as
  `np.dot` on two 1-D vectors (a batched `einsum` or a sum of products
  rounds differently);
* `RowStreams` hands each row the next draws of that row's own generator,
  the same number for every row on every take, so a row's draws do not
  depend on the other rows.  With block 0 it reads no further ahead than
  asked, so a one-row stream leaves its generator where scalar draws
  would.
"""

from __future__ import annotations

from itertools import compress

import numpy as np

__all__ = ["row_dot", "RowStreams"]


def _stacked_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


# Dot product of each row of a with the same row of b, as 0.0 + np.dot(a[i], b[i]):
# a sum from +0.0, so a zero sum is +0.0 where np.dot of one-element rows keeps the product's sign.
row_dot = getattr(np, "vecdot", _stacked_dot)


class RowStreams:
    """The random streams of R rows, each read from its own generator.

    `take(n)` returns an (R, n) array whose row r holds the next n draws of
    generator r: every row takes the same block on every call.  `kind`
    names the generator method ("random" or "standard_normal"), and row
    r's values are exactly what successive scalar calls of that method on
    its generator return.  The generators are read ahead in blocks of at
    least `block` draws, so a take is usually a slice of a buffer; a
    generator then runs ahead of what its row has taken.
    """

    def __init__(self, rngs, kind: str | None, block: int):
        self.rngs = list(rngs)
        self.kind = kind
        self.block = block
        self._buf = np.empty((len(self.rngs), 0))
        self._pos = 0

    def take(self, n: int) -> np.ndarray:
        pos = self._pos
        if pos + n > self._buf.shape[1]:
            self._refill(n)
            pos = 0
        self._pos = pos + n
        return self._buf[:, pos : pos + n]

    def _refill(self, n: int) -> None:
        kept = self._buf.shape[1] - self._pos
        width = kept + max(n, self.block)
        buf = np.empty((len(self.rngs), width))
        buf[:, :kept] = self._buf[:, self._pos :]
        draw = getattr(np.random.Generator, self.kind)
        for row, rng in zip(buf[:, kept:], self.rngs):
            draw(rng, out=row)  # straight into the buffer: no array per row
        self._buf, self._pos = buf, 0

    def keep(self, mask: np.ndarray) -> None:
        """Drop the rows outside the bool mask, keeping only the draws not yet taken."""
        self.rngs = list(compress(self.rngs, mask.tolist()))
        self._buf, self._pos = self._buf[mask, self._pos :], 0
