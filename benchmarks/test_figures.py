"""Benches for Figures 1, 3, 4, 5, 6, 9 and 10-12."""

from .conftest import run_once

from repro.experiments import fig1, fig3, fig4, fig5, fig6, fig9, fig10_12


def test_fig1_kz_in_country_map(benchmark, report):
    """Figure 1: CenTrace from the KZ in-country client."""
    result = run_once(benchmark, lambda: fig1.run(repetitions=2))
    report(result)
    assert result.extra["blocking_asns"] == [9198]


def test_fig3_blocking_type_and_location(benchmark, bench_campaigns, report):
    """Figure 3: blocking type x location per country."""
    result = run_once(benchmark, lambda: fig3.run(campaigns=bench_campaigns))
    report(result)
    assert result.extra["drops_and_resets_pct"] > 90


def test_fig4_inpath_onpath_hops(benchmark, bench_campaigns, report):
    """Figure 4: in-path vs on-path, hop distance from endpoint."""
    result = run_once(benchmark, lambda: fig4.run(campaigns=bench_campaigns))
    report(result)
    rows = result.row_dict()
    assert rows["AZ"][2] == 0 and rows["KZ"][2] == 0


def test_fig5_cenfuzz_success_rates(benchmark, bench_campaigns, report):
    """Figure 5: CenFuzz strategy success rates per country."""
    result = run_once(benchmark, lambda: fig5.run(campaigns=bench_campaigns))
    report(result)
    assert result.extra["trailing_pad_pct"] > result.extra["leading_pad_pct"]


def test_fig6_endpoint_clusters(benchmark, bench_campaigns, report):
    """Figure 6: DBSCAN clusters of blocked endpoints."""
    result = run_once(benchmark, lambda: fig6.run(campaigns=bench_campaigns))
    report(result)
    assert result.extra["n_clusters"] >= 3


def test_fig9_feature_importance(benchmark, bench_blockpage_campaign, report):
    """Figure 9: random-forest MDI feature importances."""
    result = run_once(benchmark, fig9.run)
    report(result)
    importance = result.extra["importance"]
    assert "CensorResponse" in importance.top(6)


def test_fig10_12_remote_path_maps(benchmark, bench_campaigns, report):
    """Figures 10-12: remote CenTrace path graphs for AZ/BY/KZ."""
    result = run_once(
        benchmark, lambda: fig10_12.run(campaigns=bench_campaigns)
    )
    report(result)
    az_links = result.extra["AZ_links"]
    assert any("Delta Telecom" in b for _, b, _ in az_links)
