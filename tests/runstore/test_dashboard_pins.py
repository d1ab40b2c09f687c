"""What ``repro serve`` answers over a database an older checkout left.

The v2 file of :mod:`tests.runstore.test_v2_database_pins` has fixed
``created_at`` and commit values, so the dashboard page and the
``/api/runs`` document are pinned byte for byte.  Only the database's
own path (a temporary directory) is masked first.
"""

import hashlib
import threading
import urllib.request

import pytest

from repro.runstore.dashboard import make_server
from tests.runstore.test_v2_database_pins import build_v2


@pytest.fixture
def served_v2(tmp_path):
    path = tmp_path / "old.db"
    build_v2(path)
    server = make_server(str(path), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", str(path)
    server.shutdown()
    server.server_close()


def _md5_of(url, path):
    with urllib.request.urlopen(url, timeout=10) as response:
        assert response.status == 200
        text = response.read().decode()
    return hashlib.md5(text.replace(path, "DB").encode()).hexdigest()


def test_dashboard_and_api_runs(served_v2):
    base, path = served_v2
    # The page names the schema version ("schema v4").
    assert _md5_of(f"{base}/", path) == "ccb22cbd83a48e808553da9a7720764c"
    assert _md5_of(f"{base}/api/runs", path) == \
        "be65fb6665970c47c47175a92b85c9d4"
