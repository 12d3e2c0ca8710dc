"""Benches for Table 1 and Table 2."""

from .conftest import run_once

from repro.experiments import table1, table2


def test_table1_centrace_summary(benchmark, bench_campaigns, report):
    """Table 1: CenTrace measurements per country."""
    result = run_once(benchmark, lambda: table1.run(campaigns=bench_campaigns))
    report(result)
    fractions = {row[0]: float(row[8]) for row in result.rows}
    assert fractions["KZ"] > fractions["RU"]


def test_table2_strategy_catalog(benchmark, report):
    """Table 2: CenFuzz strategies and permutation counts."""
    result = run_once(benchmark, table2.run)
    report(result)
    assert all(row[5] == "yes" for row in result.rows)
