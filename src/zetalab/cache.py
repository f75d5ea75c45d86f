"""Parameter-keyed file cache for zero lists.

One flat directory (env ZETALAB_CACHE or ./.zetalab_cache) holding zero
lists in the plain-text ordinate format; filenames carry a short hash of the
generating parameters.  Coefficient tables are cheap to sieve and are not
file-cached.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from . import zeta

ENV_VAR = "ZETALAB_CACHE"
DEFAULT_DIR = ".zetalab_cache"


def cache_dir(override: str | Path | None = None) -> Path:
    path = Path(override or os.environ.get(ENV_VAR, DEFAULT_DIR))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _key(**params) -> str:
    blob = ",".join(f"{k}={params[k]!r}" for k in sorted(params))
    return hashlib.sha1(blob.encode()).hexdigest()[:16]


def zeros_path(T: float, directory: Path) -> Path:
    return directory / f"zeros-{_key(T=T)}.txt"


def load_or_find_zeros(T: float, directory: str | Path | None = None,
                       enabled: bool = True) -> zeta.ZeroList:
    """Zeros up to T from the cache in ``directory`` (see ``cache_dir``), found
    and stored on a miss; ``enabled=False`` bypasses the cache entirely.  A
    file without a header count, or one it does not hold, is a miss and is
    overwritten."""
    if not enabled:
        return zeta.find_zeros(T)
    path = zeros_path(T, cache_dir(directory))
    if path.exists():
        try:
            header = zeta.table_header(path)
            declared = float(header["max_height"])
            if "count" in header and declared >= T:
                zeros = zeta.ingest_zeros(path, cross_check=False)
                return zeta.ZeroList(zeros.ordinates, "computed", declared)
        except (KeyError, ValueError):
            pass  # a file that fails validation is a miss
    zeros = zeta.find_zeros(T)
    zeta.write_zeros(zeros, path)
    return zeros
