"""Host-speed probe, run as a child process of the benchmark.

The machines this benchmark runs on are shared: the same code can run
1.5-2x slower for minutes at a time.  The benchmark therefore scales
its host times to a reference speed.  This probe times one fixed CPU
kernel — pure-Python integer work, SHA-256 over JSON and NumPy uint64
bit operations, the three kinds of work the campaign pipeline does —
each time it reads a line on standard input, and answers with the
seconds it took.  It runs in its own process so that threads the
program leaves running in the benchmark process cannot slow it down.
"""

import hashlib
import json
import sys
import time

import numpy as np


def kernel() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    digest = b"x" * 64
    for i in range(8_000):
        digest = hashlib.sha256(
            digest + json.dumps([i, "probe"]).encode()).digest()
    lanes = np.arange(128_000, dtype=np.uint64).reshape(2000, 64)
    for _ in range(40):
        lanes = (lanes ^ (lanes >> np.uint64(3))) | (lanes << np.uint64(1))
    return time.perf_counter() - start


def main() -> None:
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)


if __name__ == "__main__":
    main()
