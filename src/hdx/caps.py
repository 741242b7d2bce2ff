"""Enumeration caps for the exponential brute-force operations."""

from __future__ import annotations

from typing import Callable

from .errors import TooLarge

DEFAULT_CAP = 1 << 24


def check_enumeration(required: int, cap: int | None, what: str | Callable[[], str]) -> None:
    """A callable `what` is formatted only when the cap is exceeded."""
    limit = DEFAULT_CAP if cap is None else cap
    if required > limit:
        raise TooLarge(required, limit, what if isinstance(what, str) else what())
