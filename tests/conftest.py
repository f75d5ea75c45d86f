import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from zetalab import zeta

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def zeros_300():
    return zeta.find_zeros(300.0)


@pytest.fixture(scope="session")
def zeros_1000():
    return zeta.find_zeros(1000.0)


@pytest.fixture(scope="session")
def zeros_5000():
    return zeta.find_zeros(5000.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20250811)


@pytest.fixture(scope="module")
def perfbench_jobs():
    """``perfbench/jobs.py`` as a module, loaded without writing its bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_jobs", ROOT / "perfbench" / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module
