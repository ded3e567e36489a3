"""Suite-wide fixtures.

The unit cache (`repro.pipeline.runtime`) has an on-disk tier that
defaults to ``.repro-cache/sweeps`` under the current directory.  Tests
must never read a developer's warm cache (stale hits would mask
simulator changes) nor clear it (``repro cache clear`` wipes the disk
tier), so the whole suite runs against a throwaway store.
"""

import pytest

from repro import pipeline


@pytest.fixture(scope="session", autouse=True)
def _isolated_sweep_cache(tmp_path_factory):
    pipeline.set_disk_store(tmp_path_factory.mktemp("sweep-cache"))
    yield
    pipeline.set_disk_store(None)
