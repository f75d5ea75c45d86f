"""Height-keyed file cache for zero lists and zeta'(rho).

One flat directory (env ZETALAB_CACHE or ./.zetalab_cache) holding, per
height T, ``zeros-{T!r}.npy``: a (3, N) float64 array of the ordinates up to T
and Re, Im zeta'(rho) there, computed once when the list enters the cache.
Coefficient tables are cheap to sieve and are not file-cached.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from . import atomic_open, zeta

ENV_VAR = "ZETALAB_CACHE"
DEFAULT_DIR = ".zetalab_cache"


def cache_dir(override: str | Path | None = None) -> Path:
    path = Path(override or os.environ.get(ENV_VAR, DEFAULT_DIR))
    path.mkdir(parents=True, exist_ok=True)
    return path


def zeros_path(T: float, directory: Path) -> Path:
    return directory / f"zeros-{float(T)!r}.npy"


def load_or_find_zeros(T: float, directory: str | Path | None = None,
                       enabled: bool = True) -> zeta.ZeroList:
    """Zeros up to T and zeta'(rho) from the cache in ``directory`` (see ``cache_dir``),
    found and stored on a miss, which a file that fails to load or validate is;
    ``enabled=False`` bypasses the cache and returns the ordinates alone."""
    if not enabled:
        return zeta.find_zeros(T)
    path = zeros_path(T, cache_dir(directory))
    try:  # mapped first: a header claiming more than the file holds fails unallocated
        table = np.load(path, mmap_mode="r", allow_pickle=False)
        if table.dtype == np.float64 and table.ndim == 2 and len(table) == 3:
            zeros = zeta.ZeroList(table[0], "computed", T, table[1:].T.copy().view(complex)[:, 0])
            zeta.warn_if_multiple(zeros.ordinates, zeros.zeta_prime)
            return zeros
    except (OSError, ValueError, EOFError):
        pass
    found = zeta.find_zeros(T)
    zeros = zeta.ZeroList(found.ordinates, found.source, T, zeta.zeta_prime_many(found.ordinates))
    with atomic_open(path, "wb") as fh:
        np.save(fh, np.stack([zeros.ordinates, zeros.zeta_prime.real, zeros.zeta_prime.imag]))
    return zeros
