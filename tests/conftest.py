import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import storparity as sp


@pytest.fixture(scope="session")
def country_data():
    return sp.load_country_data()


@pytest.fixture(scope="session")
def default_econ():
    return sp.EconomicParams()


@pytest.fixture(scope="session")
def full_sweep(country_data, default_econ):
    """Default 612-scenario sweep, as its Scenarios and its ResultsTable, plus the serial
    wall time it took."""
    grid = sp.build_grid(list(country_data))
    start = time.perf_counter()
    results = sp.run_sweep(grid, country_data, default_econ)
    elapsed = time.perf_counter() - start
    assert len(results) == len(grid)
    return grid.rows(), results, elapsed
