"""ramsum.store: one byte budget over the Bernoulli rows, the oldest-built row
evicted first, and one oversize slot for a row larger than the whole budget.

Row n holds n + 1 ints: row 10 takes 308 bytes, row 20 624 and row 30 940.
"""

import sys
import threading

from ramsum import exactnum, store

ROWS = store.kept


def size(row):
    return sum(map(sys.getsizeof, row[0]))


def assert_exact_total():
    """The running total is the sum of the sizes of the rows kept within the
    budget, every kept row but the oversize one, and stays within it."""
    kept = {n: size(row) for n, row in ROWS.items() if n != store._oversize}
    assert store._built == kept
    assert store._nbytes == sum(kept.values()) <= store.BUDGET


def test_total_is_exact_after_every_keep(cleared):
    budget = 3 * 308
    cleared(budget)
    order, sizes = [], {}  # what the store must hold, oldest built first, and its sizes
    ns = (10, 8, 12, 10, 4, 14, 6, 16, 2, 10, 8)
    for n in ns:
        row = exactnum._bernoulli_row(n)
        if n in order:  # still kept: read, not built again
            assert ROWS[n] is row
        else:
            order.append(n)
            sizes[n] = size(row)
        while sum(map(sizes.get, order)) > budget:
            order.pop(0)
        assert list(store._built) == order
        assert_exact_total()
    assert len(order) < len(set(ns))


def test_one_oversize_slot(cleared):
    cleared(2 * 308)
    exactnum._bernoulli_row(10)
    row = exactnum._bernoulli_row(20)  # past the budget: kept alone, outside the total
    assert store._oversize == 20 and list(store._built) == [10]
    assert exactnum._bernoulli_row(20) is row
    exactnum._bernoulli_row(30)  # also past it: takes the slot
    assert store._oversize == 30 and list(ROWS) == [10, 30]
    exactnum._bernoulli_row(8)  # a budgeted row leaves the slot as it is
    assert store._oversize == 30 and list(store._built) == [10, 8]
    assert exactnum._bernoulli_row(20) is not row
    assert store._oversize == 20 and 30 not in ROWS
    assert_exact_total()


def test_clear_forgets_every_kept_value(cleared):
    cleared(308)
    exactnum._bernoulli_row(10)
    exactnum._bernoulli_row(20)
    assert store._nbytes and store._oversize
    store.clear()
    assert (store.kept, store._built, store._nbytes, store._oversize) == ({}, {}, 0, None)
    assert ROWS is store.kept is exactnum._kept


def test_keeping_from_four_threads_leaves_the_total_exact(cleared):
    cleared(1000)
    barrier = threading.Barrier(4)

    def keep(t):
        barrier.wait()
        for i in range(3000):
            # the threads keep the same keys, so they race to insert each one;
            # keys past any real row, with rows of 1 to 7 ints
            n = 10**6 + (i + t) % 500
            a = (1,) * (1 + n % 7)
            store.keep(n, (a, 1), sum(map(sys.getsizeof, a)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    threads = [threading.Thread(target=keep, args=(t,)) for t in range(4)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert_exact_total()
    assert store._oversize is None and len(ROWS) > 1
