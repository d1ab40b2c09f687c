"""Integration tests: whole-system runs reproducing the paper's
qualitative results at test-friendly scale."""

import pytest

from repro.harness.experiments import RunSpec, run, speedup_over_nossd


def oltp_runs(benchmark, scale, designs):
    """One 12 s tiny run per design, by design."""
    return {design: run(RunSpec(kind="oltp", benchmark=benchmark,
                                scale=scale, design=design, duration=12.0,
                                profile="tiny", nworkers=8))
            for design in designs}


@pytest.fixture(scope="module")
def tpcc():
    """The tpcc/400 runs the classes below share."""
    return oltp_runs("tpcc", 400, ("noSSD", "DW", "LC", "TAC"))


@pytest.fixture(scope="module")
def tpce():
    """The tpce/4 runs the classes below share."""
    return oltp_runs("tpce", 4, ("noSSD", "DW", "LC"))


def speedups_of(results):
    return speedup_over_nossd({design: result.steady_state_throughput()
                               for design, result in results.items()})


class TestTpccOrdering:
    """Figure 5(a–c)'s qualitative claims at miniature scale."""

    @pytest.fixture(scope="class")
    def speedups(self, tpcc):
        return speedups_of(tpcc)

    def test_every_ssd_design_beats_nossd(self, speedups):
        for design in ("DW", "LC", "TAC"):
            assert speedups[design] > 1.0, speedups

    def test_lc_wins_update_intensive(self, speedups):
        assert speedups["LC"] > speedups["DW"], speedups
        assert speedups["LC"] > speedups["TAC"], speedups

    def test_dw_at_least_matches_tac(self, speedups):
        """§4.2: DW performed better than TAC for all TPC-C databases."""
        assert speedups["DW"] >= speedups["TAC"] * 0.85, speedups


class TestTpceShape:
    def test_designs_are_similar_on_read_intensive(self, tpce):
        speedups = speedups_of(tpce)
        assert speedups["DW"] > 1.2
        assert speedups["LC"] > 1.2
        # §4.3: "the advantage of LC over DW is gone".
        assert speedups["LC"] < speedups["DW"] * 2.0


class TestTpchShape:
    def test_ssd_helps_and_designs_tie(self):
        results = {
            design: run(RunSpec(kind="tpch", benchmark="tpch", scale=30,
                                design=design, profile="tiny"))
            for design in ("noSSD", "DW", "LC")
        }
        assert results["DW"].qphh > results["noSSD"].qphh
        assert results["LC"].qphh > results["noSSD"].qphh
        ratio = results["LC"].qphh / results["DW"].qphh
        assert 0.5 < ratio < 2.0  # §4.4: similar performance


class TestTacWaste:
    def test_tac_wastes_frames_our_designs_do_not(self, tpcc):
        tac, dw = tpcc["TAC"], tpcc["DW"]
        assert tac.system.ssd_manager.table.invalid_count > 0
        assert dw.system.ssd_manager.table.invalid_count == 0


class TestRampUp:
    def test_ssd_fills_over_time(self, tpce):
        samples = tpce["DW"].sampler.samples
        assert samples[0].ssd_used < samples[-1].ssd_used

    def test_lc_dirty_fraction_grows_with_lambda_room(self):
        result = run(RunSpec(kind="oltp", benchmark="tpcc", scale=400,
                             design="LC", duration=12.0, profile="tiny",
                             nworkers=8, dirty_threshold=0.9))
        assert result.system.ssd_manager.dirty_frames > 0
