"""Seeded random-number streams.

Every stochastic component of the simulation (slot-offset selection,
channel noise, beacon loss, charging-time jitter) draws from its own named
stream derived from a single master seed.  Independent streams mean a
change in how one component consumes randomness does not perturb the
others, which keeps regression tests stable and experiments reproducible.

Hot scalar consumers read their stream through a block-buffered view
(:class:`BufferedUniforms`, :class:`BufferedPicker`): the same values
in the same order, one list read per draw instead of one numpy call.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
from typing import Callable, Dict, Sequence, Type, TypeVar

import numpy as np

_T = TypeVar("_T")

#: Uniforms fetched per refill of a :class:`BufferedUniforms` (a
#: 12-tag network draws one per tag per slot).
UNIFORM_BLOCK = 512

#: Picks fetched per refill of a :class:`BufferedPicker`: offsets are
#: only re-drawn on migrations, so a small block lasts a long time.
PICK_BLOCK = 64


def as_index(value, name: str, error: Type[Exception] = ValueError) -> int:
    """``value`` as a plain ``int``, or ``error`` naming ``name``.

    Any integer passes, numpy's included; a float or a bool does not:
    ``int()`` would truncate a size or seed into another one (``0.5``
    into seed 0, ``True`` into one fault).
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")


class RandomStreams:
    """A registry of named, independently-seeded numpy Generators.

    >>> rs = RandomStreams(seed=7)
    >>> a = rs.stream("channel").integers(0, 100)
    >>> b = RandomStreams(seed=7).stream("channel").integers(0, 100)
    >>> int(a) == int(b)
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = as_index(seed, "seed")
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def seed_of(self, name: str) -> int:
        """The seed, in [0, 2**64), of ``name``'s generator.

        It hashes the master seed with the stream name, so streams are
        decorrelated but fully determined by (seed, name).
        """
        digest = hashlib.sha256(f"{self._seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for ``name``:
        ``np.random.default_rng(self.seed_of(name))``."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(self.seed_of(name))
        return self._streams[name]

    def fork(self, salt: str) -> "RandomStreams":
        """Derive a new independent registry, e.g. one per tag.

        ``fork("tag3").stream("offset")`` differs from
        ``fork("tag4").stream("offset")`` but both are reproducible.
        """
        digest = hashlib.sha256(f"{self._seed}/{salt}".encode()).digest()
        return RandomStreams(int.from_bytes(digest[:8], "little"))


def _served_in_blocks(
    fill: Callable[[], "list[_T]"], head: Sequence[_T] = ()
) -> Callable[[], _T]:
    """A zero-argument draw serving ``head``, then ``fill()``'s blocks
    in order.

    ``iter(fill, None)`` calls ``fill`` whenever the previous block is
    used up and ``chain`` flattens the blocks, so the returned
    ``__next__`` is C code: a draw runs no Python frame.
    """
    blocks = itertools.chain.from_iterable(iter(fill, None))
    if head:
        blocks = itertools.chain(head, blocks)
    return blocks.__next__


class BufferedUniforms:
    """A numpy Generator's ``random()`` draws, fetched a block at a time.

    ``gen.random(k)`` gives the same values as ``k`` successive
    ``gen.random()`` calls, so serving scalar draws from a block keeps
    the stream's sequence while each draw costs a list read instead of
    a numpy call, an order of magnitude less.  The generator runs up to
    one block ahead, so every consumer of the stream must draw through
    this object.  ``head`` holds draws already taken from ``gen`` (a
    block left unread), served before its next block.

    >>> gen = RandomStreams(3).stream("slots")
    >>> buffered = BufferedUniforms(RandomStreams(3).stream("slots"))
    >>> [buffered.random() for _ in range(9)] == [gen.random() for _ in range(9)]
    True
    """

    def __init__(
        self, gen: np.random.Generator, head: Sequence[float] = ()
    ) -> None:
        #: Next uniform in [0, 1), as ``gen.random()`` would return it.
        #: An attribute, not a method, so hot loops call C code directly.
        self.random: Callable[[], float] = _served_in_blocks(
            lambda: gen.random(UNIFORM_BLOCK).tolist(), head
        )


class BufferedPicker:
    """A numpy Generator's ``integers(0, high)`` picks for one fixed
    ``high``, fetched a block at a time.

    ``gen.integers(0, high, size=k)`` gives the same values as ``k``
    successive ``gen.integers(0, high)`` calls, so a picker whose bound
    never changes (a tag's period) can be served from blocks like
    :class:`BufferedUniforms`, ``head`` included.  Calling it with
    another bound is an error: the buffered values were drawn for
    ``high``.
    """

    def __init__(
        self, gen: np.random.Generator, high: int, head: Sequence[int] = ()
    ) -> None:
        #: The generator the picks come from.
        self.gen = gen
        self.high = high
        self._next: Callable[[], int] = _served_in_blocks(
            lambda: gen.integers(0, high, size=PICK_BLOCK).tolist(), head
        )

    def __call__(self, high: int) -> int:
        """Next pick in [0, ``high``); ``high`` must be the bound the
        picker was built for."""
        if high != self.high:
            raise ValueError(
                f"picker draws below {self.high}, asked for a bound of {high}"
            )
        return self._next()
