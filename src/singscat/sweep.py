"""Grid-sweep helper: one serial, order-preserving path for every sweep."""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .errors import SingscatError


def sweep_map(fn: Callable, items: Sequence, failed: Callable) -> list:
    """Map fn over items serially; results come back in input order.

    An item whose fn raises a SingscatError yields failed(item, tag), with
    the error's tag, instead of aborting the sweep.
    """
    out = []
    for item in items:
        try:
            out.append(fn(item))
        except SingscatError as exc:
            out.append(failed(item, exc.tag))
    return out
