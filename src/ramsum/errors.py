"""Shared exception types."""

import sys


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds its configured size cap.

    Raised instead of silently truncating a sum or table.
    """


# a fixed ceiling on a value built on request, whatever the int-to-str limit:
# the digits of a 2^20-bit integer, which Python 3.11 prints in about 2 s
CEILING_DIGITS = (1 << 20) * 30102 // 100000


def _refuse_past_digit_limit(what: str, past=None) -> None:
    """ResourceLimitError "{what} {limit} decimal digits, ..." when the
    int-to-str limit sys.get_int_max_str_digits() is set and past(limit)
    holds (or past is None), else "{what} {CEILING_DIGITS} decimal digits,
    ..." when past(CEILING_DIGITS) holds, whatever the limit.

    A limit of 0 means none; Python 3.10 before 3.10.7 has no such limit.
    Under the default limit of 4300 digits the ceiling is never the one met.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and (past is None or past(limit)):
        raise ResourceLimitError(
            f"{what} {limit} decimal digits, the int-to-str limit sys.get_int_max_str_digits()"
        ) from None
    if past is not None and past(CEILING_DIGITS):
        raise ResourceLimitError(f"{what} {CEILING_DIGITS} decimal digits, the ceiling of 2^20 bits on a built value")


class InternalConsistencyError(RuntimeError):
    """An exact invariant that should hold by construction was violated.

    Signals a bug in this library (or a numerical evaluator drifting far
    beyond its contract), never a property of the inputs.
    """
