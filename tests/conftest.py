import multiprocessing
import os
import shutil
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from regio.hierarchy import RegionHierarchy, RegionNode, SpatialLevel

DATA_DIR = Path(__file__).parent / "data"
TOY_PROJECT = DATA_DIR / "toy_project"

# The process pool tests fork two workers.
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or (os.cpu_count() or 1) < 2,
    reason="needs fork and two CPUs",
)


@pytest.fixture
def toy_project(tmp_path):
    """Fresh copy of the bundled toy project; returns its config path."""
    target = tmp_path / "toy_project"
    shutil.copytree(TOY_PROJECT, target)
    return target / "config.json"


def os_thread_count() -> int:
    """Threads of this process as the OS counts them (Python's fork warning
    counts them the same way on Linux)."""
    try:
        with open("/proc/self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[17])
    except OSError:
        return threading.active_count()


@pytest.fixture
def forks(monkeypatch):
    """Thread count seen in this process right after each fork.

    A pool thread of an earlier test can still be leaving the OS after
    Python has joined it, so first wait (up to 5 s) for the OS count to
    fall to the threads Python knows of."""
    deadline = time.monotonic() + 5.0
    while os_thread_count() > threading.active_count() and time.monotonic() < deadline:
        time.sleep(0.01)
    counts = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            counts.append(os_thread_count())
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return counts


def build_country(country, n_nuts1, n_nuts2, n_nuts3, n_lau):
    """One country subtree with fixed branching at each level."""
    nodes = [RegionNode(country, SpatialLevel.NUTS0, None, country)]
    for i in range(n_nuts1):
        n1 = f"{country}{i}"
        nodes.append(RegionNode(n1, SpatialLevel.NUTS1, country, country))
        for j in range(n_nuts2):
            n2 = f"{n1}{j}"
            nodes.append(RegionNode(n2, SpatialLevel.NUTS2, n1, country))
            for k in range(n_nuts3):
                n3 = f"{n2}{k}"
                nodes.append(RegionNode(n3, SpatialLevel.NUTS3, n2, country))
                for m in range(n_lau):
                    lau = f"{country}_{i}{j}{k}_{m:04d}"
                    nodes.append(RegionNode(lau, SpatialLevel.LAU, n3, country))
    return nodes


@pytest.fixture
def mini_hierarchy():
    """Two tiny countries, full NUTS0..LAU chains, 2 NUTS3 x 3 LAU each."""
    nodes = build_country("AA", 1, 1, 2, 3) + build_country("BB", 1, 1, 2, 3)
    return RegionHierarchy(nodes)


def random_hierarchy(rng: np.random.Generator, country="CC", min_leaves=1000):
    """Random branching, full 5-level chains, at least ``min_leaves`` LAUs."""
    nodes = [RegionNode(country, SpatialLevel.NUTS0, None, country)]
    leaves = 0
    i = 0
    while leaves < min_leaves or i < 2:
        n1 = f"{country}{i}"
        nodes.append(RegionNode(n1, SpatialLevel.NUTS1, country, country))
        for j in range(int(rng.integers(2, 4))):
            n2 = f"{n1}{j}"
            nodes.append(RegionNode(n2, SpatialLevel.NUTS2, n1, country))
            for k in range(int(rng.integers(3, 8))):
                n3 = f"{n2}{k}"
                nodes.append(RegionNode(n3, SpatialLevel.NUTS3, n2, country))
                n_lau = int(rng.integers(5, 16))
                for m in range(n_lau):
                    lau = f"{country}_{i}{j}{k}_{m:04d}"
                    nodes.append(RegionNode(lau, SpatialLevel.LAU, n3, country))
                leaves += n_lau
        i += 1
    return RegionHierarchy(nodes)
