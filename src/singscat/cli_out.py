"""The writer of --out, which cli loads only when --out is given."""

from __future__ import annotations

import os
import stat
from collections.abc import Iterable


def write_out(path: str, blocks: Iterable[str]) -> None:
    """Write the blocks to the file at path.

    The text goes to a temporary file in the directory of path (or of the
    file a symlink at path names), which replaces that file once the last
    block is written: a run that fails leaves no file, and no half-written
    one.  An existing file keeps its mode, and a read-only one is refused
    as open(path, "w") refuses it.  A path that is not a regular file,
    such as /dev/null or a pipe, is written in place.  path is examined as
    given: /dev/stdout or /proc/self/fd/1 on a pipe resolves to a name
    such as /proc/<pid>/fd/pipe:[56958], which no file has.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(blocks)
        return
    target = os.path.realpath(path)
    if mode is not None:
        os.close(os.open(target, os.O_WRONLY))
    temp = os.path.join(os.path.dirname(target), f".singscat-{os.getpid()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        if mode is not None:
            os.fchmod(fd, stat.S_IMODE(mode))
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(blocks)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise
