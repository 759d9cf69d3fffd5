"""Bounds-checked reading of the binary formats in docs/formats.md.

Models, tensors, Merkle proofs, one-step witnesses and witness bundles are
all parsed through a `Reader`: a field that runs past the end, or a byte
after the last field, is a `ParseError` naming its offset, never an
IndexError or a struct.error.
"""

from __future__ import annotations

import struct


class ParseError(ValueError):
    def __init__(self, offset: int, message: str):
        super().__init__(f"at byte {offset}: {message}")
        self.offset = offset


class Reader:
    """Cursor over `data[offset:stop]`; error offsets index `data`."""

    def __init__(self, data: bytes, offset: int = 0, stop: int | None = None):
        self.data, self.offset = bytes(data), offset
        self.stop = len(self.data) if stop is None else stop

    def take(self, n: int, what: str) -> bytes:
        # A count read from the input is checked here, before `struct` is
        # asked to build a format of that size.
        if n > self.stop - self.offset:
            raise ParseError(self.offset, f"truncated {what}")
        self.offset += n
        return self.data[self.offset - n : self.offset]

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u32(self, what: str) -> int:
        return int.from_bytes(self.take(4, what), "little")

    def u32s(self, n: int, what: str) -> tuple[int, ...]:
        return struct.unpack(f"<{n}I", self.take(4 * n, what))

    def i32s(self, n: int, what: str) -> tuple[int, ...]:
        return struct.unpack(f"<{n}i", self.take(4 * n, what))

    def part(self, n: int, what: str) -> Reader:
        """A reader over the next n bytes, which this one skips."""
        self.take(n, what)
        return Reader(self.data, self.offset - n, self.offset)

    def end(self, what: str) -> None:
        if self.offset != self.stop:
            raise ParseError(self.offset, f"trailing bytes after {what}")
