"""One byte budget, BUDGET, for the integer Bernoulli rows, by n.  keep()
evicts the oldest-built rows while the kept bytes pass BUDGET; a row larger
than BUDGET is kept alone in one slot outside that total until the next such
row takes it."""

import threading

BUDGET = 1 << 23

kept: dict = {}  # the rows by n, read with one dict.get and added to only by keep
_built: dict = {}  # n -> bytes of the rows within the budget, oldest built first
_nbytes = 0
_oversize = None  # the n in the oversize slot
_lock = threading.Lock()  # taken by keep and clear; a read takes none


def keep(key, value, nbytes: int) -> None:
    """Keep value, of nbytes bytes, under key in kept unless one is kept
    there already."""
    global _nbytes, _oversize
    with _lock:
        if key in kept:
            return
        if nbytes > BUDGET:
            if _oversize is not None:
                del kept[_oversize]
            _oversize = key
        else:
            _built[key] = nbytes
            _nbytes += nbytes
            while _nbytes > BUDGET:
                old = next(iter(_built))
                _nbytes -= _built.pop(old)
                del kept[old]
        kept[key] = value


def clear() -> None:
    """Forget every kept value."""
    global _nbytes, _oversize
    with _lock:
        kept.clear()
        _built.clear()
        _nbytes, _oversize = 0, None
