"""Errors shared across the engine's modules."""

from __future__ import annotations


class InvariantError(AssertionError):
    """A load-bearing internal invariant does not hold.

    Raised explicitly rather than by `assert`, so the check still runs under
    `python -O`. It subclasses AssertionError so callers that treat a broken
    invariant as an assertion failure keep working.
    """
