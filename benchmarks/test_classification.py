"""Bench: §7.1 vendor classification of unlabeled devices."""

from .conftest import run_once

from repro.experiments import sec71_classify


def test_sec71_vendor_classification(benchmark, bench_campaigns, report):
    result = run_once(
        benchmark, lambda: sec71_classify.run(campaigns=bench_campaigns)
    )
    report(result)
    accuracy = result.extra["held_out_accuracy"]
    assert accuracy is None or accuracy >= 0.5
