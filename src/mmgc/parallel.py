"""The thread budget and the one way work is spread over it.

Callers pass a budget (``--threads`` on ``mmgc cluster``, the only
subcommand that takes it; ``threads=`` on ``fit`` and ``forward``); ``None``
means ``os.cpu_count()``.  It bounds two things.  k-means runs its ten
restarts in two lockstep groups of five (``kmeans._GROUP``), one thread per
group, so on at most two threads.  The node-domain filter series splits the
columns of a sparse graph into one block per thread, down to one column
per block; a dense graph keeps one thread.  That series runs in one
routine, ``filters.node_filter``, which ``dual_filter`` calls before its
feature half; a fit calls it in its setup only, through one
``filters.filter_attributes`` per modality, in 64-column blocks.  A
multi-threaded BLAS competes with these threads for the cores, so the
gain needs one BLAS thread per process.

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
    """The number of threads a budget allows: ``threads``, or the CPU count for None."""
    if threads is None:
        return os.cpu_count() or 1
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return threads


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
