"""Desk-scale verification laboratory for mollified moments of zeta.

Subpackages build the concrete objects of the mollified-moment method
(arithmetic coefficient tables, the mollifier polynomial and its predicted
main terms, Dirichlet characters and Gauss sums, the generalised Vaughan
decomposition, critical-line zeros and empirical moments) and verify each
identity numerically or exactly at desk scale.
"""

import contextlib
import os

__version__ = "0.1.0"


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Write to a temporary file that replaces ``path`` (or the file a symlink
    names) when the block ends, so a failed or interrupted write leaves it absent
    or as it was; a pipe or a device is written in place.  An error creating or
    renaming the temporary file is raised against ``path``, as ``open`` would."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode) as fh:
            yield fh
        return
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, target)
    except OSError as exc:
        if exc.filename != tmp:
            raise
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
