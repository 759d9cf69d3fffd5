"""Host-speed calibration: scales measured times to a reference host speed.

The benchmark runs on shared hosts whose speed drifts by up to half over
tens of seconds, uniformly across every kind of operation, so that two runs
of the same code minutes apart can differ by more than any useful
regression bound. To take that drift out, a fixed pure-Python kernel is
timed while every measured operation runs: a SIGALRM handler runs one
repetition every INTERVAL_S of wall time, and one more runs just before and
just after the operation. The kernel's time is taken out of the operation's.
The kernel does the same kinds of work as opml, in benchmark code that no
change to opml can touch: a persistent sha256 Merkle tree updated with path
copying, and register tuples rebuilt per step.

A time t measured while the kernel took a median of c seconds per
repetition is reported as t * REFERENCE_S / c: the time on a host where the
kernel takes REFERENCE_S. A change that makes opml faster lowers t and
leaves c alone.
"""

from __future__ import annotations

import hashlib
import signal
import statistics
import time

#: Seconds one kernel repetition takes on the reference host: about its time
#: on the 2-core x86-64 host (CPython 3.11) where the benchmark was defined.
#: It is fixed, so that scaled times compare across commits.
REFERENCE_S = 0.0035
#: Wall time between two kernel repetitions while an operation runs: about
#: 5% of its time goes to the kernel.
INTERVAL_S = 0.07

_UPDATES = 150
_DEPTH = 16


class _Node:
    __slots__ = ("digest", "left", "right")

    def __init__(self, digest: bytes, left, right):
        self.digest, self.left, self.right = digest, left, right


def _set(node, level: int, index: int, leaf: bytes, zeros: list[bytes]) -> _Node:
    if level == 0:
        return _Node(hashlib.sha256(b"\x00" + leaf).digest(), None, None)
    left = node.left if node is not None else None
    right = node.right if node is not None else None
    if (index >> (level - 1)) & 1:
        right = _set(right, level - 1, index, leaf, zeros)
    else:
        left = _set(left, level - 1, index, leaf, zeros)
    left_digest = left.digest if left is not None else zeros[level - 1]
    right_digest = right.digest if right is not None else zeros[level - 1]
    return _Node(hashlib.sha256(b"\x01" + left_digest + right_digest).digest(), left, right)


def kernel() -> bytes:
    """One repetition of the fixed calibration work; returns the tree root."""
    zeros = [hashlib.sha256(b"\x00" + bytes(4)).digest()]
    for _ in range(_DEPTH):
        zeros.append(hashlib.sha256(b"\x01" + zeros[-1] + zeros[-1]).digest())
    root, regs, x = None, (0,) * 32, 12345
    for _ in range(_UPDATES):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        r = x % 31 + 1
        value = (regs[r - 1] + x) & 0xFFFFFFFF
        regs = regs[:r] + (value,) + regs[r + 1:]
        root = _set(root, _DEPTH, x >> 16, value.to_bytes(4, "little"), zeros)
    return root.digest


def sample(reps: int = 1) -> list[float]:
    """Seconds each of `reps` kernel repetitions takes."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


class Ticker:
    """While its `with` block runs, times one kernel repetition every
    INTERVAL_S from a SIGALRM handler. `samples` holds their times; their sum
    is to be taken out of the block's time."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples += sample()

    def __enter__(self) -> "Ticker":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def factor(samples: list[float]) -> float:
    """Multiplier that takes times measured alongside `samples` to the reference host."""
    return REFERENCE_S / statistics.median(samples)
