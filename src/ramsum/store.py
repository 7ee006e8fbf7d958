"""One byte budget, BUDGET, for the direct route's FFT spectra, by (k, s), and
the integer Bernoulli rows, by n.  keep() evicts the oldest-built values of any
kind while the kept bytes pass BUDGET; a value larger than BUDGET is kept alone
in one slot outside that total until the next such value takes it."""

import threading

BUDGET = 1 << 23

# each kind's values by key, read with one dict.get and added to only by keep
kept: dict[str, dict] = {"spectrum": {}, "row": {}}
_built: dict[tuple, int] = {}  # (kind, key) -> bytes, oldest built first
_nbytes = 0
_oversize: tuple | None = None  # the (kind, key) in the oversize slot
_lock = threading.Lock()  # taken by keep and clear; a read takes none


def keep(kind: str, key, value, nbytes: int) -> None:
    """Keep value, of nbytes bytes, under key in kept[kind] unless one is
    kept there already."""
    global _nbytes, _oversize
    with _lock:
        if key in kept[kind]:
            return
        if nbytes > BUDGET:
            if _oversize:
                del kept[_oversize[0]][_oversize[1]]
            _oversize = kind, key
        else:
            _built[kind, key] = nbytes
            _nbytes += nbytes
            while _nbytes > BUDGET:
                old = next(iter(_built))
                _nbytes -= _built.pop(old)
                del kept[old[0]][old[1]]
        kept[kind][key] = value


def clear() -> None:
    """Forget every kept value."""
    global _nbytes, _oversize
    with _lock:
        for values in (*kept.values(), _built):
            values.clear()
        _nbytes, _oversize = 0, None
