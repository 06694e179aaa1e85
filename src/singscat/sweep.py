"""Grid-sweep helper: one serial, order-preserving path for every sweep."""

from __future__ import annotations

from typing import Callable, Sequence


def sweep_map(fn: Callable, items: Sequence) -> list:
    """Map fn over items serially; results come back in input order."""
    return [fn(item) for item in items]
