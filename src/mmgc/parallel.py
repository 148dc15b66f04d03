"""The thread budget and the one way work is spread over it.

Callers pass a budget (``--threads`` on ``mmgc cluster``, the only
subcommand that takes it; ``threads=`` on ``fit``); ``None`` means
``os.cpu_count()``.  It bounds one thing: k-means runs its ten restarts in
two lockstep groups of five (``kmeans._GROUP``), one thread per group, so on
at most two threads.  Everything else runs on the calling thread, as a
second thread bought it nothing on 2 cores with one BLAS thread.  A fit's
setup, the node-domain filter series of ``filters.node_filter`` in 64-column
blocks, took 11.4, 41.6 and 298 ms on one thread against 13.2, 51.2 and
297 ms with each block split in two (the benchmark's planted-1k, planted-4k
and nomod-16k graphs, medians of 15 alternations).  The loss layers and pruning read 26.2 against 25.9 ms
in the margin loss of three 1000 x 64 sets, and at n = 16000 85.5 against
86.2 ms in pruning and 56.8 against 59.3 ms in the neighborhood loss, while
whole fits with them on one thread read a 1-4% lower median time and about
1% lower peak RSS (``BENCH_28.json``).  A multi-threaded BLAS competes with
the restarts' threads for the cores, so the budget pays under one BLAS
thread per process; ``blas_pinned`` tells whether the environment sets that.

``map_indexed`` runs indexed work items on up to the budget's threads,
the calling thread included, and keeps each result at its index, so the
outcome never depends on the thread count.  numpy and scipy release the
interpreter lock inside the products and reductions that dominate each
item.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, TypeVar

T = TypeVar("T")


def thread_budget(threads: int | None) -> int:
    """The threads a budget allows (the CPU count for None); every routine that
    takes a budget refuses one below 1 through this check."""
    if threads is None:
        return os.cpu_count() or 1
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return threads


# the variables that set the BLAS thread count: OpenBLAS's, OpenMP's and MKL's
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_pinned() -> bool:
    """Whether the environment pins BLAS to one thread: one of
    ``BLAS_THREAD_VARIABLES`` is set, and every one that is set reads 1."""
    values = [os.environ.get(v, "").strip() for v in BLAS_THREAD_VARIABLES]
    given = [v for v in values if v]
    return bool(given) and all(v == "1" for v in given)


def map_indexed(work: Callable[[int], T], count: int, threads: int) -> list[T]:
    """``[work(i) for i in range(count)]`` on up to ``threads`` threads.

    Threads take the next index from a shared counter until none is left;
    one thread (or one item) starts no helper.  After an item raises, no
    new item starts, the helpers are joined and the exception of the
    earliest failed item reaches the caller.
    """
    results: list = [None] * count
    failures: dict[int, BaseException] = {}
    pending = iter(range(count))
    lock = threading.Lock()

    def run() -> None:
        while True:
            with lock:
                i = None if failures else next(pending, None)
            if i is None:
                return
            try:
                results[i] = work(i)
            except BaseException as exc:  # re-raised in the calling thread
                with lock:
                    failures[i] = exc
                return

    helpers = [threading.Thread(target=run, name=f"mmgc-worker-{t}")
               for t in range(min(count, threads) - 1)]
    for t in helpers:
        t.start()
    run()
    for t in helpers:
        t.join()
    if failures:
        raise failures[min(failures)]
    return results
