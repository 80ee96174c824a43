"""Shared fixtures: checked-in programs, a generated batch corpus, a check
that no test leaves a thread-pool worker running, and one Hypothesis
profile for the suite."""

from __future__ import annotations

import atexit
import csv
import json
import random
import shutil
import tempfile
import threading
import time
from pathlib import Path

import pytest

import fixutil
import programs

fixutil.ensure_fixtures()

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the property tests skip themselves
    pass
else:
    # Every run draws the same examples, so a CI failure replays locally,
    # and no run keeps an example database. What else Hypothesis stores, a
    # cache of the constants in the package's source, goes to a temporary
    # directory, so no run writes .hypothesis/ into the checkout.
    settings.register_profile("ponzilens", derandomize=True, database=None)
    settings.load_profile("ponzilens")
    _hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(_hypothesis_home)
    atexit.register(shutil.rmtree, _hypothesis_home, ignore_errors=True)


@pytest.fixture(autouse=True)
def no_pool_worker_outlives_its_test():
    """Fail a test that leaves a ThreadPoolExecutor worker alive.

    Every pool the package starts, a batch's or a contract's chains', is
    shut down before the call that started it returns, interrupted or not.
    A worker gets a short join first, since an exiting thread may still be
    listed for a moment.
    """
    before = set(threading.enumerate())
    yield
    started = [
        t for t in threading.enumerate()
        if t not in before and t.name.startswith("ThreadPoolExecutor")
    ]
    deadline = time.monotonic() + 1.0
    for t in started:
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    alive = [t.name for t in started if t.is_alive()]
    if alive:
        pytest.fail(f"ThreadPoolExecutor workers outlived the test: {alive}")


@pytest.fixture(scope="session")
def batch_corpus(tmp_path_factory: pytest.TempPathFactory) -> tuple[Path, Path]:
    """100 labeled contracts (50 ponzi, 50 clean) and their CSV manifest.

    Session scoped: the batch and interruption acceptance checks share one
    corpus so their reports are comparable.
    """
    root = tmp_path_factory.mktemp("corpus")
    rng = random.Random(20240817)
    rows: list[tuple[str, str, str]] = []
    for i in range(50):
        for ponzi, prefix in ((True, "p"), (False, "n")):
            cid = f"{prefix}{i:03d}"
            _source, doc = programs.random_unit(rng, f"C{prefix.upper()}{i:03d}", ponzi)
            path = root / f"{cid}.json"
            path.write_text(json.dumps(doc, indent=1))
            rows.append((cid, str(path), "ponzi" if ponzi else "non_ponzi"))
    manifest = root / "manifest.csv"
    with manifest.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "path_or_address", "label"])
        writer.writerows(rows)
    return manifest, root
