PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench chaos lint serve-smoke epochs-smoke localize-smoke

test:
	$(PYTHON) -m pytest -x -q

# Invariant lint suite (tools/lintkit): multi-pass AST analysis —
# RP101 wall-clock reads, RP2xx seeded-RNG discipline, RP3xx stable
# iteration order, RP4xx layer DAG + import cycles, RP5xx shared
# mutable state incl. RP503's NetContext-module counter guard. Covers
# the tooling itself (tools/, benchmarks/) as well as src/. Exit 1 on
# any violation; suppress a line with
# `# lint: ignore[RPxxx] -- justification`.
lint:
	$(PYTHON) -m tools.lintkit src tools benchmarks

# Campaign-service smoke (the CI service-smoke job): a 1k-request
# synthetic client swarm; fails unless coalescing hit rate >= 50% and
# every delivered result is byte-identical to a direct serial run.
serve-smoke:
	$(PYTHON) -m repro.cli serve --country AZ --seed 7 --scale 0.35 \
	  --requests 1000 --tenants 8 --interleave-seed 1 \
	  --min-hit-rate 0.5 --verify

# Longitudinal observatory smoke (the CI epochs-smoke job): a 3-epoch
# drifted KZ campaign into a temp dir, then 2 continuation epochs that
# must answer >= 80% of units from the persisted cache, then one
# transition query against the fact store. The plan flips the KZ
# ingress device (dev16, AS 9198) drop -> rst -> blockpage, so the
# transitions output shows TIMEOUT -> RST -> HTTP.
EPOCHS_PLAN := {"name":"smoke","ops":[ \
  {"epoch":1,"kind":"firmware","target":"dev16","action_kind":"rst"}, \
  {"epoch":2,"kind":"firmware","target":"dev16","action_kind":"blockpage"}]}
epochs-smoke:
	rm -rf /tmp/repro-epochs-smoke
	$(PYTHON) -m repro.cli epochs --country KZ --seed 11 --scale 0.35 \
	  --epochs 3 --drift-plan '$(EPOCHS_PLAN)' --repetitions 2 \
	  --max-endpoints 4 --fuzz-max-endpoints 2 --metrics \
	  --out /tmp/repro-epochs-smoke
	$(PYTHON) -m repro.cli epochs --country KZ --seed 11 --scale 0.35 \
	  --epochs 2 --drift-plan '$(EPOCHS_PLAN)' --repetitions 2 \
	  --max-endpoints 4 --fuzz-max-endpoints 2 --metrics \
	  --out /tmp/repro-epochs-smoke --min-reuse 0.8
	$(PYTHON) -m repro.cli facts query \
	  --store /tmp/repro-epochs-smoke/facts --transitions

# Localization cross-validation smoke (the CI localize-smoke job):
# sweeps a device over every link of the ECMP placement topology,
# localizes with churn tomography / path-inconsistency / CenTrace TTL
# probing, and fails unless tomography places >= 80% of devices within
# one link of simulator ground truth — without a single TTL probe.
localize-smoke:
	$(PYTHON) -m repro.cli localize --rounds 6 --probes-per-round 4 \
	  --seed 11 --metrics --min-accuracy 0.8

# Fault-injection invariant suite over the full fault-plan grid
# (the default `make test` runs only the fast chaos subset).
chaos:
	$(PYTHON) -m pytest -q -m chaos --runslow

# The performance benchmark (perfbench/, declared in BENCHMARK.json):
# every workload, one process each, reporting end-to-end metrics with
# their spread and checking each workload's pinned output digest.
bench:
	$(PYTHON) perfbench/run.py --workload all --seconds 10
