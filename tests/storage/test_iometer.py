"""Calibration tests: the device models must reproduce the paper's Table 1."""

import pytest

from repro.storage import HddArray, IoKind, Ssd
from repro.storage.iometer import Table1, measure_iops, run_table1


class TestMeasureIops:
    @pytest.mark.parametrize("duration", [0.0, -1.0, float("nan")])
    def test_refuses_a_duration_that_is_not_finite_and_positive(
            self, duration):
        with pytest.raises(ValueError, match="^duration must be"):
            measure_iops(Ssd, IoKind.RANDOM_READ, duration=duration)

    def test_hdd_random_read_matches_paper(self):
        iops = measure_iops(lambda env: HddArray(env), IoKind.RANDOM_READ,
                            duration=3.0)
        assert iops == pytest.approx(1_015, rel=0.05)

    def test_hdd_sequential_read_matches_paper(self):
        iops = measure_iops(lambda env: HddArray(env), IoKind.SEQUENTIAL_READ,
                            duration=3.0)
        assert iops == pytest.approx(26_370, rel=0.05)

    def test_ssd_random_read_matches_paper(self):
        iops = measure_iops(lambda env: Ssd(env), IoKind.RANDOM_READ,
                            duration=3.0)
        assert iops == pytest.approx(12_182, rel=0.05)

    def test_ssd_random_write_matches_paper(self):
        iops = measure_iops(lambda env: Ssd(env), IoKind.RANDOM_WRITE,
                            duration=3.0)
        assert iops == pytest.approx(12_374, rel=0.05)


class TestTable1:
    def test_all_eight_cells_within_tolerance(self):
        table = run_table1(duration=3.0)
        for name, measured, paper in table.rows():
            assert measured == pytest.approx(paper, rel=0.05), name

    def test_key_paper_ratios_hold(self):
        """The ratios the paper's analysis leans on: the SSD is ~12x the
        disks at random reads but the disks win sequential reads."""
        table = run_table1(duration=3.0)
        assert table.ssd_random_read / table.hdd_random_read > 10
        assert table.hdd_sequential_read > table.ssd_sequential_read

    def test_rows_cover_all_cells(self):
        table = run_table1(duration=1.0)
        assert len(list(table.rows())) == 8
        assert set(Table1.PAPER) == {name for name, _, __ in table.rows()}
