"""Benchmark fixtures: shared campaigns and result reporting.

Every bench regenerates one of the paper's tables/figures and both
prints the rows (run with ``-s`` to see them live) and writes them to
``benchmarks/output/<experiment>.txt`` so the series are inspectable
after a quiet run.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

OUTPUT_DIR = Path(__file__).parent / "output"

# Scale knob: REPRO_BENCH_SCALE=1.0 runs the paper-scale worlds (slow).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.3"))
BENCH_REPETITIONS = int(os.environ.get("REPRO_BENCH_REPETITIONS", "2"))


@pytest.fixture(scope="session")
def bench_campaigns():
    from repro.experiments.campaign import get_campaign

    return {
        country: get_campaign(
            country, scale=BENCH_SCALE, repetitions=BENCH_REPETITIONS
        )
        for country in ("AZ", "BY", "KZ", "RU")
    }


@pytest.fixture(scope="session")
def bench_blockpage_campaign():
    from repro.experiments.fig9 import blockpage_campaign

    return blockpage_campaign()


@pytest.fixture
def report():
    """Print an ExperimentResult and persist it under benchmarks/output."""

    def _report(result) -> None:
        text = result.render()
        print()
        print(text)
        OUTPUT_DIR.mkdir(exist_ok=True)
        (OUTPUT_DIR / f"{result.experiment_id}.txt").write_text(text + "\n")

    return _report


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
