"""Overhead arithmetic, the frozen reference tables, local measurements,
and the deployment cost model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otcpki.analysis import (
    BenchRecord,
    CostComparison,
    CostModel,
    deployment_cost,
    format_table,
    overhead_percent,
    reference_timings,
    run_local_bench,
    to_csv,
)
from otcpki.crypto import SUITES

# Expected (label, total, overhead) for the reference series, recomputed by
# hand with Decimal arithmetic before the module was written and frozen here.
EXPECTED_RSA = [
    ("RSA-1024", 0.17, 1600),
    ("RSA-2240", 7.62, 4980),
    ("RSA-3072", 10.01, 4667),
    ("RSA-7680", 135.43, 8752),
    ("RSA-15360", 688.26, 7381),
]
EXPECTED_ECDSA = [
    ("ECDSA-163", 0.23, 53),
    ("ECDSA-233", 0.52, 53),
    ("ECDSA-283", 0.86, 46),
    ("ECDSA-409", 1.82, 54),
    ("ECDSA-571", 4.51, 47),
]


class TestOverheadPercent:
    def test_spot_values(self):
        assert overhead_percent(0.16, 0.01) == 1600
        assert overhead_percent(0.08, 0.15) == 53
        assert overhead_percent(9.80, 0.21) == 4667

    def test_rounds_half_up(self):
        assert overhead_percent(0.27, 0.59) == 46   # 45.76...
        assert overhead_percent(0.64, 1.18) == 54   # 54.23...
        assert overhead_percent(1.005, 1.0) == 101  # exactly .5 goes up

    def test_zero_keygen_is_zero(self):
        assert overhead_percent(0.0, 0.5) == 0

    def test_zero_sign_time_refused(self):
        with pytest.raises(ValueError):
            overhead_percent(0.1, 0.0)

    def test_negative_refused(self):
        with pytest.raises(ValueError):
            overhead_percent(-0.1, 0.5)

    @given(
        keygen=st.floats(min_value=0.001, max_value=1000),
        sign=st.floats(min_value=0.001, max_value=1000),
        factor=st.floats(min_value=1.1, max_value=10),
    )
    def test_monotone_in_keygen(self, keygen, sign, factor):
        assert overhead_percent(keygen * factor, sign) >= overhead_percent(keygen, sign)


class TestReferenceTables:
    def test_all_ten_rows_exact(self):
        rsa_rows, ecdsa_rows = reference_timings()
        for rows, expected in ((rsa_rows, EXPECTED_RSA), (ecdsa_rows, EXPECTED_ECDSA)):
            assert [r.label for r in rows] == [label for label, _, _ in expected]
            for record, (label, total, overhead) in zip(rows, expected):
                assert record.total_seconds == pytest.approx(total, abs=1e-12), label
                assert record.overhead_pct == overhead, label

    def test_rsa_always_costlier_than_signing(self):
        rsa_rows, ecdsa_rows = reference_timings()
        assert all(r.overhead_pct > 100 for r in rsa_rows)
        assert all(r.overhead_pct < 100 for r in ecdsa_rows)

    def test_table_output_carries_exact_columns(self):
        rsa_rows, _ = reference_timings()
        table = format_table(rsa_rows, title="RSA")
        assert "RSA-2240" in table
        assert "7.62" in table
        assert "4980%" in table


class TestBenchRecord:
    def test_from_times(self):
        record = BenchRecord("x", 0.5, 0.25)
        assert record.total_seconds == 0.75
        assert record.overhead_pct == 200


class TestLocalBench:
    def test_sane_record_for_p256(self):
        (record,) = run_local_bench([SUITES["ecdsa-p256"]], iterations=3)
        assert record.label == "ecdsa-p256"
        assert record.keygen_seconds > 0
        assert record.sign_seconds > 0
        assert record.total_seconds == pytest.approx(
            record.keygen_seconds + record.sign_seconds
        )

    def test_too_few_iterations(self):
        with pytest.raises(ValueError):
            run_local_bench([SUITES["ecdsa-p256"]], iterations=1)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_local_bench(["rsa-512"], iterations=3)

    def test_csv_shape(self):
        records = run_local_bench([SUITES["ecdsa-p256"]], iterations=3)
        lines = to_csv(records).splitlines()
        assert lines[0] == "suite,keygen_s,sign_s,total_s,overhead_pct"
        assert len(lines) == 2
        assert lines[1].startswith("ecdsa-p256,")
        assert len(lines[1].split(",")) == 5


class TestDeploymentCost:
    def test_hundred_million_user_scenario(self):
        model = CostModel(shared_cost=0.0, per_user_cost=1.0,
                          user_count=100_000_000, issuance_overhead=0.0)
        comparison = deployment_cost(model)
        assert comparison.traditional_total == 100_000_000
        assert comparison.otc_total == 0

    def test_no_users_means_only_delta_differs(self):
        model = CostModel(shared_cost=500.0, per_user_cost=3.0, user_count=0,
                          issuance_overhead=20.0)
        comparison = deployment_cost(model)
        assert comparison.traditional_total == 500.0
        assert comparison.otc_total == 520.0

    def test_negative_inputs_refused(self):
        with pytest.raises(ValueError):
            CostModel(shared_cost=-1, per_user_cost=1, user_count=1)
        with pytest.raises(ValueError):
            CostModel(shared_cost=1, per_user_cost=1, user_count=-1)

    @given(
        shared=st.floats(min_value=0, max_value=1e9),
        per_user=st.floats(min_value=0, max_value=1e3),
        users=st.integers(min_value=0, max_value=10**9),
        delta=st.floats(min_value=0, max_value=1e6),
    )
    def test_totals_are_the_model_algebra(self, shared, per_user, users, delta):
        comparison = deployment_cost(
            CostModel(shared, per_user, users, delta)
        )
        assert comparison.otc_total == shared + delta
        assert comparison.traditional_total == shared + per_user * users
        # <= not <: a tiny per-user term can be absorbed by float addition.
        if delta < per_user * users:
            assert comparison.otc_total <= comparison.traditional_total
