# Developer entry points. `make check` is the single pre-merge gate.

.PHONY: check build test vet race bench loc

check:
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...
	go run ./cmd/csi-vet -strict-ignores ./...

race:
	go test -race ./...

# The repository benchmark: one run per workload gated in BENCHMARK.json
# (see perfbench/README.md for the workloads and metrics).
bench:
	python3 perfbench/run.py --workload monitor-replay --seed 1 --seconds 30 --trace 0
	python3 perfbench/run.py --workload monitor-durable --seed 1 --seconds 30 --trace 0

# Go source lines per package, production and test apart (scripts/loc.sh),
# so changes report their LOC the same way.
loc:
	./scripts/loc.sh
