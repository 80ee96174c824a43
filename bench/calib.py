"""Host-speed calibration for the CPU-bound workload.

On a shared host the speed of a vCPU swings by 20-40 % over minutes, so
the wall time of a CPU-bound contract moves with the neighbours' load, not
with the program. `kernel` is a fixed pure-Python workload shaped like the
static layers (objects with slots, dicts keyed by names, adjacency lists,
a set-based walk and string rendering). Timed between the contracts of one
run, it slows down with the host in step with them, so

    calibrated time = wall time * NOMINAL_S / mean kernel time of the run

reads about the same on a fast phase and a slow one. NOMINAL_S is about
the kernel's time on a 2-vCPU Xeon VM with CPython 3.11, so calibrated
seconds are close to wall seconds there.

Each sample runs the kernel in a fresh interpreter (`python3 calib.py`
prints one timing), so the heap the program under test leaves behind does
not change the kernel's time.

The kernel is part of the benchmark's definition: changing it, or
NOMINAL_S, changes the unit of every calibrated metric, so it must stay
as it is for results to be comparable across commits.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

NOMINAL_S = 0.25
NODES = 36_000


class _Node:
    __slots__ = ("key", "succ")

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.succ: list[_Node] = []


def kernel() -> float:
    """Run the fixed workload once; return its wall time in seconds."""
    started = perf_counter()
    nodes = {f"f{i}.v{i % 7}": _Node((f"C{i % 50}", f"f{i}", i)) for i in range(NODES)}
    keys = list(nodes)
    for i, key in enumerate(keys):
        succ = nodes[key].succ
        succ.append(nodes[keys[(i + 1) % NODES]])
        succ.append(nodes[keys[(i * 13 + 1) % NODES]])
    seen: set[tuple] = set()
    stack = [nodes[keys[0]]]
    while stack:
        node = stack.pop()
        if node.key not in seen:
            seen.add(node.key)
            stack.extend(node.succ)
    text = "\n".join(f'"{a.key[1]}" -> "{b.key[1]}"' for a in nodes.values() for b in a.succ)
    if len(seen) != NODES or text.count("\n") != 2 * NODES - 1:
        raise AssertionError("calibration kernel computed a wrong result")
    del nodes, keys, seen, stack, text
    return perf_counter() - started


class Calibration:
    """Kernel timings taken between the timed steps of one run phase."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the kernel once in a fresh interpreter; return its time."""
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve())], capture_output=True, text=True, check=True
        )
        took = float(out.stdout)
        self.samples.append(took)
        return took

    def factor(self) -> float:
        """Multiply a wall time by this to get calibrated seconds."""
        return NOMINAL_S / statistics.fmean(self.samples)


if __name__ == "__main__":
    print(kernel())
