"""Provenance capture: git identity, source hash, host."""

from repro.runstore import provenance as prov_mod
from repro.runstore.provenance import capture, provenance_args


class TestCapture:
    def test_inside_this_repo(self):
        prov = capture(cwd=".", cached=False)
        # The repo under test is a git checkout, so git fields resolve.
        assert prov.git_commit and len(prov.git_commit) == 40
        assert prov.git_branch
        assert prov.git_dirty in (True, False)
        assert prov.source_hash
        assert prov.python

    def test_outside_a_repo_degrades(self, tmp_path):
        prov = capture(cwd=str(tmp_path), cached=False)
        assert prov.git_commit is None
        assert prov.git_branch is None
        assert prov.git_dirty is None
        # Non-git fields still record.
        assert prov.source_hash
        assert prov.python

    def test_cached_capture_reused(self, monkeypatch):
        monkeypatch.setattr(prov_mod, "_cached", None)
        first = capture()
        assert capture() is first

class TestProvenanceArgs:
    def test_queryable_subset_only(self):
        args = provenance_args()
        assert set(args) == {"git_commit", "git_branch", "git_dirty",
                             "source_hash"}
