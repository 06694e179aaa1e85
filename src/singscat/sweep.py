"""Grid-sweep helper: one serial, order-preserving path for every sweep."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

from .errors import SingscatError


def sweep_map(fn: Callable, items: Iterable, failed: Callable) -> Iterator:
    """Map fn over items serially and lazily; results come in input order.

    An item whose fn raises a SingscatError yields failed(item, tag), with
    the error's tag, instead of aborting the sweep.  Each item is mapped
    as its result is taken, so a sweep holds no more rows than its
    consumer keeps.
    """
    for item in items:
        try:
            yield fn(item)
        except SingscatError as exc:
            yield failed(item, exc.tag)
