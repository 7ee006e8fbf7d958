"""ramsum.store: one byte budget over the direct route's FFT spectra and the
Bernoulli rows, the oldest-built value of either kind evicted first, and one
oversize slot for a value larger than the whole budget.

Spectra of (100, 1), (101, 1) and (10, 2) have 51 bins, 408 bytes each;
(97, 1) has 49, 392 bytes.  Row n holds n + 1 ints, row 10 308 bytes.
"""

import sys
import threading

import numpy as np

from ramsum import exactnum, store
from ramsum.csum import csum_direct, csum_moebius

SPECTRA, ROWS = store.kept["spectrum"], store.kept["row"]
DIRECT_TOL = 1e-8


def build(kind, key):
    """Have the library build and keep one value: a spectrum after its cold
    call, or a Bernoulli row."""
    if kind == "spectrum":
        k, s = key
        csum_direct(k, 1, s)
        csum_direct(k, 2, s)
    else:
        exactnum._bernoulli_row(key)


def size(kind, value):
    return value.nbytes if kind == "spectrum" else sum(map(sys.getsizeof, value[0]))


def assert_exact_total():
    """The running total is the sum of the sizes of the values kept within the
    budget, every kept value but the oversize one, and stays within it."""
    kept = {(kind, key): size(kind, v) for kind, values in store.kept.items() for key, v in values.items()}
    kept.pop(store._oversize, None)
    assert store._built == kept
    assert store._nbytes == sum(kept.values()) <= store.BUDGET


def test_total_is_exact_after_every_keep(cleared):
    budget = 3 * 408
    cleared(budget)
    order, sizes = [], {}  # what the store must hold, oldest built first, and its sizes
    keys = [("spectrum", (100, 1)), ("row", 10), ("spectrum", (101, 1)), ("row", 8), ("spectrum", (10, 2))]
    keys += [("row", n) for n in (12, 14, 16)] + [("spectrum", (97, 1)), ("row", 4), ("row", 6)]
    for kind, key in keys:
        build(kind, key)
        order.append((kind, key))
        sizes[kind, key] = size(kind, store.kept[kind][key])
        while sum(map(sizes.get, order)) > budget:
            order.pop(0)
        assert list(store._built) == order
        assert_exact_total()
    assert len(order) < len(keys)


def test_spectrum_evicts_the_oldest_row_and_a_row_the_oldest_spectrum(cleared):
    cleared(2 * 408)
    build("row", 10)
    build("spectrum", (100, 1))  # 308 + 408 bytes fit
    build("spectrum", (101, 1))
    assert ROWS == {} and list(SPECTRA) == [(100, 1), (101, 1)]
    build("row", 10)
    assert list(SPECTRA) == [(101, 1)] and 10 in ROWS
    assert list(store._built) == [("spectrum", (101, 1)), ("row", 10)]
    assert_exact_total()


def test_one_oversize_slot_for_spectra_and_rows(cleared, monkeypatch):
    cleared(408)
    rfft = np.fft.rfft
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return rfft(x)

    monkeypatch.setattr(np.fft, "rfft", counted)
    build("spectrum", (100, 1))
    kept = SPECTRA[100, 1]
    for j in range(900):  # 451 bins, past the budget: answered, and kept alone
        assert abs(csum_direct(30, j, 2) - csum_moebius(30, j, 2)) < DIRECT_TOL, j
    assert store._oversize == ("spectrum", (30, 2)) and list(store._built) == [("spectrum", (100, 1))]
    for j in range(400):  # 201 bins, also past it: takes the slot
        assert abs(csum_direct(20, j, 2) - csum_moebius(20, j, 2)) < DIRECT_TOL, j
    assert store._oversize == ("spectrum", (20, 2)) and (30, 2) not in SPECTRA
    assert exactnum._bernoulli_row(20) is ROWS[20]  # 624 bytes: a row takes it the same way
    assert store._oversize == ("row", 20) and (20, 2) not in SPECTRA
    csum_direct(30, 1, 2)  # its mask is still in the window, its spectrum is gone
    assert store._oversize == ("spectrum", (30, 2)) and 20 not in ROWS
    assert sizes == [100, 900, 400, 900]
    assert SPECTRA[100, 1] is kept
    assert_exact_total()


def test_clear_forgets_every_kept_value(cleared):
    cleared(408)
    build("spectrum", (100, 1))
    build("row", 10)
    build("row", 20)
    assert store._nbytes and store._oversize
    store.clear()
    assert store.kept == {"spectrum": {}, "row": {}}
    assert (store._built, store._nbytes, store._oversize) == ({}, 0, None)
    assert SPECTRA is store.kept["spectrum"] and ROWS is store.kept["row"]


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
            store.keep("row", n, (a, 1), sum(map(sys.getsizeof, a)))

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
