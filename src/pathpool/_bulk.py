"""Bulk helpers below the store, the scorers and the kernels.

The file loaders read ``LOAD_BLOCK`` lines at a time through
``line_blocks`` and size their arrays by ``count_lines`` (growing them
when a pipe cannot be counted ahead); ``utf8_errors`` reports a file that
is not UTF-8 as a ParseError. ``stable_order`` is the
stable argsort of small integer keys that the store's columns and the
kernels' CSR are built with.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import islice
from typing import BinaryIO, Iterable, Iterator, TypeVar

import numpy as np

from .errors import ParseError

T = TypeVar("T")

# lines per block of a loader: a block of a 64-dimension embedding table
# holds about 1 MB of text, one of a triple file about 25 kB
LOAD_BLOCK = 1024


def line_blocks(lines: Iterable[T]) -> Iterator[list[T]]:
    """The items of ``lines`` in lists of ``LOAD_BLOCK``, the last maybe shorter."""
    lines = iter(lines)
    while block := list(islice(lines, LOAD_BLOCK)):
        yield block


def count_lines(handle: BinaryIO) -> int:
    """At least as many lines as a text-mode read of the rest of ``handle``
    gives, or 0 when the handle cannot seek back (a pipe), so that it is
    read only once.

    The count is the ``\\n`` and ``\\r`` bytes plus one, as a text read
    also ends a line at a lone ``\\r`` and at the end of the file. The
    bytes are read into one reused buffer and counted by numpy, never
    decoded, which takes about half the time of a text-mode pass; the
    handle is then put back where it was.
    """
    if not handle.seekable():
        return 0
    start = handle.tell()
    n = 1
    buf = np.empty(1 << 18, dtype=np.uint8)
    while size := handle.readinto(buf):
        read = buf[:size]
        n += np.count_nonzero(read == 10) + np.count_nonzero(read == 13)
    handle.seek(start)
    return int(n)


@contextmanager
def utf8_errors(name: object) -> Iterator[None]:
    """Re-raise a UnicodeDecodeError in the body as a ParseError naming ``name``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name} is not valid UTF-8 ({exc.reason})") from None


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``keys.argsort(kind="stable")`` for integer keys in ``0..bound``.

    The keys are sorted in the narrowest dtype that holds ``bound``: numpy's
    stable sort is a radix sort for integers of 16 bits or fewer and a
    timsort for wider ones, and both give this one permutation.
    """
    return keys.astype(np.min_scalar_type(bound), copy=False).argsort(kind="stable")

