"""The thread budget and the one way work is spread over it.

Callers pass a budget (``--threads`` on ``mmgc cluster``, the only
subcommand that takes it; ``threads=`` on ``fit`` and ``forward``); ``None``
means ``os.cpu_count()``.  It bounds up to five things.  k-means runs its ten
restarts in two lockstep groups of five (``kmeans._GROUP``), one thread per
group, so on at most two threads.  The node-domain filter series splits the
columns into one block per thread, down to one column per block.  That
series runs in one routine, ``filters.node_filter``, which ``dual_filter``
calls before its feature half; a fit calls it in its setup only, through one
``filters.filter_attributes`` per modality, in 64-column blocks.  When
BLAS is pinned to one thread (``blas_pinned``), each training step also
runs the margin loss's modality pairs (``losses.cross_modality_loss``,
three pairs for two modalities) in waves of up to the budget, and the
neighborhood loss splits its scoring blocks; pruning, once per fit,
splits its scoring blocks.  On 2 cores with one BLAS thread, the margin
loss of three 1000 x 64 sets took 17.1-17.5 ms at budget 1, 14.3 ms at 2
and 14.4-14.5 ms at 3; at n = 16000, d = 64 the neighborhood loss took
42-43, 37 and 38-39 ms, and pruning on three sets 118-122, 75-78 and 76
ms (medians of 15, 9 and 5 calls), so a budget above the core count only
adds switching.  The neighborhood loss's sparse gradient products stay on
one thread: split by rows they made planted-1k's fit about 2% slower
(0.293 against 0.299 s, medians of 12 fresh-process fits) and saved about
4 ms a call at n = 16000.  A multi-threaded BLAS competes with these
threads for the cores, so the gain needs one BLAS thread per process.  Its
worker threads spin between calls, and the loss layers make many short
ones: with OpenBLAS's default thread count (one per core), 20 epochs of
planted-1k's config took 0.69-0.97 s with these layers on a budget of 2
against 0.61-0.62 s with them on one thread (fastest of 3 fits, 2 runs).
So they run on one thread unless the environment pins BLAS.

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
