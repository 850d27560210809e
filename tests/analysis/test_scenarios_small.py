"""Scaled-down integration runs of every paper-figure scenario.

These use reduced client counts / durations so the whole module runs in
well under a minute, while still asserting the *shape* each figure
conveys.  The full-scale shapes are ``analysis.validation``'s
``PAPER_EXPECTATIONS``, checked by ``runner all --validate``.  Fig. 3, 4
and 6 are small already and run here at full scale.
"""

import pytest

from repro.analysis.scenarios import (
    run_fig3_lock_queuing,
    run_fig4_oracle_itl,
    run_fig6_worked_example,
    run_fig7_fig8_static_escalation,
    run_fig9_rampup,
    run_fig10_surge,
    run_fig11_dss_injection,
    run_fig12_reduction,
)


class TestFig3:
    def test_convoy_shape(self):
        result = run_fig3_lock_queuing()
        assert result.finding("shared_S_grant")
        assert result.finding("fifo_respected")
        assert result.finding("queue_while_held") == "X->S"


class TestFig4:
    def test_itl_blocks_free_rows(self):
        result = run_fig4_oracle_itl()
        assert result.finding("blocked_on_free_rows") > 0
        assert result.finding("row_conflicts") == 0
        assert result.finding("tunable_memory_pages") == 0

    def test_overhead_permanent(self):
        result = run_fig4_oracle_itl()
        assert result.finding("disk_overhead_bytes") == result.finding(
            "disk_overhead_after_commit_bytes"
        )


class TestFig6:
    def test_worked_example_timeline(self):
        result = run_fig6_worked_example()
        assert result.finding("t1_absorbed_without_sync_growth")
        assert result.finding("t3_used_sync_growth")
        assert result.finding("t4_overflow_restored_pct") == pytest.approx(
            10.0, abs=0.5
        )
        assert result.finding("per_interval_shrink_fraction") == pytest.approx(
            0.05, abs=0.02
        )
        # relaxation ends at the maxFree-free goal: alloc ~ used / 0.4
        assert result.finding("final_alloc_pct") == pytest.approx(5.0, abs=0.3)


class TestFig7Fig8:
    def test_static_catastrophe_small(self):
        result = run_fig7_fig8_static_escalation(
            clients=60, duration_s=90, include_adaptive_reference=True
        )
        assert result.finding("static_escalations") > 0
        # escalation reduced lock memory requirements (Figure 7)
        assert result.finding("static_used_drop_after_escalation") > 0
        # adaptive reference: no escalations, far more work done (Figure 8)
        assert result.finding("adaptive_escalations") == 0
        assert result.finding("adaptive_vs_static_commit_ratio") > 1.5


class TestFig9:
    def test_rampup_small(self):
        result = run_fig9_rampup(
            clients=60, ramp_duration_s=30, duration_s=120
        )
        assert result.finding("escalations") == 0
        assert result.finding("growth_factor") >= 4.0
        assert result.finding("convergence_time_s") <= 90


class TestFig10:
    def test_surge_small(self):
        # 50 -> 130 clients is the paper's own surge; the per-application
        # minLockMemory term only exceeds the 2 MB floor above 64 clients,
        # so smaller populations would not move the allocation at all.
        result = run_fig10_surge(
            before_clients=50, after_clients=130,
            switch_at_s=45, duration_s=120,
        )
        assert result.finding("escalations") == 0
        assert result.finding("growth_ratio") == pytest.approx(2.0, abs=0.35)
        assert result.finding("adaptation_delay_s") <= 60


class TestFig11:
    def test_dss_injection_small(self):
        result = run_fig11_dss_injection(
            oltp_clients=10, dss_rows=60_000,
            inject_at_s=45, acquisition_duration_s=15,
            hold_duration_s=10, duration_s=150,
        )
        assert result.finding("exclusive_escalations") == 0
        assert result.finding("growth_factor") >= 2.0
        assert result.finding("query_completed")
        # one application was allowed to dominate lock memory
        assert result.finding("min_maxlocks_percent") < 98.0


class TestFig12:
    def test_reduction_small(self):
        # before_clients must exceed 64 so the steady allocation sits
        # above the 2 MB floor and has room to relax after the drop.
        result = run_fig12_reduction(
            before_clients=130, after_clients=30,
            drop_at_s=60, duration_s=330,
        )
        assert result.finding("escalations") == 0
        assert result.finding("reduction_ratio") < 0.8
        assert result.finding("shrink_intervals") >= 3
        assert 0.01 <= result.finding("mean_per_interval_reduction") <= 0.15
