"""Host-speed scaling of wall times.

On a shared 2-vCPU VM the host's speed changes by up to 1.7x within seconds,
and wall times with it. Every reported time is therefore divided by the
duration of a fixed stdlib-only kernel timed around it, and multiplied by
the kernel's duration on the uncontended host. The kernel does not call the
library, so a change to the library moves the scaled time as it moves the
wall time.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import defaultdict

HOST_REFERENCE_NS = 350_000
KERNEL_EVERY_NS = 10_000_000  # in a pass, between timed sections
now = time.perf_counter_ns


def host_kernel_ns() -> int:
    """The faster of two back-to-back runs: a run is only ever slowed by
    interruptions."""
    return min(_kernel_run_ns(), _kernel_run_ns())


def _kernel_run_ns() -> int:
    # The work's result is thrown away: it only has to take the same time
    # whenever the host runs at the same speed.
    start = now()
    sha256 = hashlib.sha256
    table = {}
    digest = bytes(32)
    acc = 0
    for i in range(400):
        digest = sha256(b"\x01" + digest + digest).digest()
        table[i & 63] = digest
        acc += int.from_bytes(digest[:8], "little") % (i + 1)
    return now() - start


def host_scale(*kernel_ns: int) -> float:
    return HOST_REFERENCE_NS / statistics.median(kernel_ns)


class HostClock:
    """Runs the kernel between timed sections, at most every
    KERNEL_EVERY_NS, and scales each timing by the mean of the kernel runs
    just before and just after the group of sections it belongs to. A
    section that lasts longer than KERNEL_EVERY_NS is its own group, so it
    is bracketed by the runs on either side of it.

    A timing is recorded as parts, each a (group, ns) pair, so that a time
    made of two sections in different groups (decomposition plus the engine
    call) has each part scaled by its own group."""

    def __init__(self) -> None:
        self.kernels = [host_kernel_ns()]
        self.parts: dict[str, list[tuple[tuple[int, int], ...]]] = defaultdict(list)
        self.last = now()

    @property
    def group(self) -> int:
        return len(self.kernels) - 1

    def tick(self, force: bool = False) -> None:
        if force or now() - self.last >= KERNEL_EVERY_NS:
            self.kernels.append(host_kernel_ns())
            self.last = now()

    def add(self, key: str, ns: int) -> None:
        """A timing of one section of the current group."""
        self.parts[key].append(((self.group, ns),))

    def add_parts(self, key: str, *parts: tuple[int, int]) -> None:
        self.parts[key].append(parts)

    def scales(self) -> list[float]:
        """One per closed group; call after a final tick(force=True)."""
        return [host_scale(before, after) for before, after in zip(self.kernels, self.kernels[1:])]

    def results(self) -> tuple[dict[str, list[float]], dict[str, list[int]]]:
        """Scaled and unscaled timings, by key, in the order recorded."""
        scales = self.scales()
        scaled = {key: [sum(ns * scales[g] for g, ns in p) for p in entries] for key, entries in self.parts.items()}
        wall = {key: [sum(ns for _, ns in p) for p in entries] for key, entries in self.parts.items()}
        return scaled, wall
