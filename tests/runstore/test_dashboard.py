"""Dashboard rendering and the live HTTP API."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.runstore.dashboard import make_server, render_dashboard
from repro.runstore.provenance import Provenance
from repro.runstore.schema import SCHEMA_VERSION
from repro.runstore.store import RunStore, StoreError


def populate(store, commits=("aaaa111111", "bbbb222222")):
    """Two designs across two commits: a minimal trajectory."""
    for i, commit in enumerate(commits):
        prov = Provenance(git_commit=commit, git_branch="main",
                          git_dirty=False, source_hash=f"src{i}")
        for design, value in (("LC", 100.0 + i * 10), ("LS", 150.0 + i)):
            store.record_run(
                {"kind": "oltp", "benchmark": "tpcc", "scale": 100,
                 "design": design, "profile": "small"},
                {"value": value, "latency_p99": 0.01, "waf": 1.2 + i},
                provenance=prov, metric_name="tpmC")


@pytest.fixture
def store(tmp_path):
    with RunStore(tmp_path / "runs.db") as s:
        populate(s)
        yield s


class TestRenderDashboard:
    def test_contains_svg_trajectories(self, store):
        page = render_dashboard(store)
        assert "<svg" in page
        assert "Throughput" in page
        assert "Write amplification" in page
        # One polyline per design per charted metric.
        assert page.count("<polyline") >= 2

    def test_lists_recent_runs_and_commits(self, store):
        page = render_dashboard(store)
        assert "aaaa111111"[:10] in page
        assert "tpcc/100/LC" in page
        assert "2 commits" in page

    def test_single_commit_note(self, tmp_path):
        with RunStore(tmp_path / "one.db") as one:
            populate(one, commits=("aaaa111111",))
            page = render_dashboard(one)
        assert "Single-commit history" in page

    def test_empty_store_renders(self, tmp_path):
        with RunStore(tmp_path / "empty.db") as empty:
            page = render_dashboard(empty)
        assert "no runs recorded" in page

    def test_design_filter(self, store):
        page = render_dashboard(store, design="LC")
        assert "tpcc/100/LC" in page
        assert "tpcc/100/LS" not in page


@pytest.fixture
def server(store):
    srv = make_server(str(store.path), port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    host, port = srv.server_address[:2]
    yield f"http://{host}:{port}"
    srv.shutdown()
    srv.server_close()


def get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode()


class TestHttpApi:
    def test_index_serves_dashboard(self, server):
        status, page = get(f"{server}/")
        assert status == 200
        assert "<svg" in page
        assert "repro run store" in page

    def test_api_runs(self, server):
        status, body = get(f"{server}/api/runs?design=LC")
        assert status == 200
        doc = json.loads(body)
        assert len(doc["runs"]) == 2
        assert all(run["design"] == "LC" for run in doc["runs"])
        assert doc["runs"][0]["metrics"]["value"] == 110.0

    def test_api_trajectory(self, server):
        status, body = get(f"{server}/api/trajectory?metric=waf")
        doc = json.loads(body)
        assert status == 200
        assert doc["metric"] == "waf"
        assert sorted(doc["series"]) == ["LC", "LS"]
        assert [p["value"] for p in doc["series"]["LC"]] == [1.2, 2.2]

    def test_healthz(self, server):
        status, body = get(f"{server}/healthz")
        assert status == 200
        assert json.loads(body)["schema_version"] == SCHEMA_VERSION

    @pytest.mark.parametrize("query, name", [
        ("scale=abc", "scale"),
        ("limit=-1", "limit"),
        ("limit=0", "limit"),
        ("limit=ten", "limit"),
    ])
    @pytest.mark.parametrize("path", ["/", "/api/runs"])
    def test_malformed_query_value_is_a_400_naming_it(self, server, path,
                                                      query, name):
        """``scale=abc`` dropped the filter (every run, where
        ``scale=999`` gave none), ``limit=-1`` was SQLite's no-limit and
        ``limit=0`` became the default."""
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(f"{server}{path}?{query}")
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert error.startswith(f"{name} must be an integer")

    def test_unknown_path_404s(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(f"{server}/nope")
        assert excinfo.value.code == 404

    def test_sees_runs_recorded_after_startup(self, server, store):
        before = json.loads(get(f"{server}/api/runs")[1])
        store.record_run(
            {"kind": "oltp", "benchmark": "tpcc", "scale": 100,
             "design": "DW", "profile": "small"},
            {"value": 90.0}, provenance=Provenance(git_commit="cccc"))
        after = json.loads(get(f"{server}/api/runs")[1])
        assert len(after["runs"]) == len(before["runs"]) + 1


class TestMakeServer:
    def test_broken_database_fails_fast(self, tmp_path):
        bad = tmp_path / "bad.db"
        bad.write_bytes(b"not sqlite" * 20)
        with pytest.raises(StoreError):
            make_server(str(bad), port=0)
