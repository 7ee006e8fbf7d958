"""Shared exception types."""

import sys


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds its configured size cap.

    Raised instead of silently truncating a sum or table.
    """


def _refuse_past_digit_limit(what: str, past=lambda limit: True) -> None:
    """ResourceLimitError "{what} {limit} decimal digits, ..." when the
    int-to-str limit sys.get_int_max_str_digits() is set and past(limit) holds.

    A limit of 0 means none; Python 3.10 before 3.10.7 has no such limit.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and past(limit):
        raise ResourceLimitError(
            f"{what} {limit} decimal digits, the int-to-str limit sys.get_int_max_str_digits()"
        ) from None


class InternalConsistencyError(RuntimeError):
    """An exact invariant that should hold by construction was violated.

    Signals a bug in this library (or a numerical evaluator drifting far
    beyond its contract), never a property of the inputs.
    """
