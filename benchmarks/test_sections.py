"""Benches for the in-text experiments (§4.1, §4.3, §5.3, §6.3, §7.4)."""

from .conftest import run_once

from repro.experiments import (
    sec41_pathvar,
    sec43_quotes,
    sec53_banners,
    sec63_circumvention,
    sec74_correlations,
)


def test_sec41_path_variance_calibration(benchmark, report):
    """§4.1: path-variance calibration (reduced trace count)."""
    result = run_once(benchmark, lambda: sec41_pathvar.run(traceroutes=60))
    report(result)
    assert result.extra["max_unique_paths"] > 40


def test_sec43_quoted_packets(benchmark, bench_campaigns, report):
    """§4.3: RFC792/RFC1812 quoting and header deltas at blocking hops."""
    result = run_once(benchmark, lambda: sec43_quotes.run(campaigns=bench_campaigns))
    report(result)
    assert result.extra["rfc792_pct"] > 0


def test_sec53_device_banners(benchmark, bench_campaigns, bench_blockpage_campaign, report):
    """§5.3: banner case study and vendor inventory."""
    result = run_once(
        benchmark, lambda: sec53_banners.run(campaigns=bench_campaigns)
    )
    report(result)
    assert result.extra["label_mismatches"] == 0


def test_sec63_circumvention(benchmark, report):
    """§6.3: evasion vs circumvention from the KZ vantage."""
    result = run_once(benchmark, sec63_circumvention.run)
    report(result)
    assert result.extra["pokerstars_pad_circumvented"]


def test_sec74_vendor_correlations(benchmark, bench_campaigns, bench_blockpage_campaign, report):
    """§7.4: Spearman vendor-similarity correlations."""
    result = run_once(
        benchmark, lambda: sec74_correlations.run(campaigns=bench_campaigns)
    )
    report(result)
    within = result.extra["within_vendor"]
    assert within and result.extra["cross_vendor_mean"] < max(within.values())
