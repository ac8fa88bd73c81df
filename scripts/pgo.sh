#!/usr/bin/env bash
# Regenerates default.pgo, the CPU profile the simulators are built
# with (profile-guided optimization). Run from the repository root:
#
#   bash scripts/pgo.sh                  # rewrite the four cmd/*/default.pgo
#   bash scripts/pgo.sh 2000 /tmp/p.pgo  # 2,000 refs per thread, one file
#
# The first argument is the references per thread of each replay (the
# workloads' default, 60,000, when absent); the second, when given, is
# the one file to write instead of the copies in cmd/cmpsim,
# cmd/cmpsweep, cmd/cmpserved and cmd/cmpbench.
#
# The tools are built with -pgo=off, so no profile shapes the binaries
# that record the next one. cmpsim replays a TP, Trade2, NotesBench and
# CPW2 capture under each of the six policies, and cmpsweep runs one
# grid of 64 jobs over shorter captures of the same workloads, each
# with -cpuprofile. Every capture uses tracegen's built-in seed for its
# workload, so the benchmark's inputs, made from other seeds, are never
# profiled. go tool pprof -proto merges the profiles into one.
set -euo pipefail

refs=${1:-60000}
out=${2:-}
grid_refs=$((refs < 8000 ? refs : 8000))
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

go build -pgo=off -o "$work/bin/" ./cmd/tracegen ./cmd/cmpsim ./cmd/cmpsweep
profiles=()
grid=()
for w in tp trade2 notesbench cpw2; do
	"$work/bin/tracegen" -workload "$w" -refs "$refs" -o "$work/$w.cmps" >/dev/null
	"$work/bin/tracegen" -workload "$w" -refs "$grid_refs" -o "$work/grid-$w.cmps" >/dev/null
	grid+=("$work/grid-$w.cmps")
	for m in base wbht snarf combined reusedist hybridui; do
		profiles+=("$work/cmpsim-$w-$m.pprof")
		"$work/bin/cmpsim" -trace "$work/$w.cmps" -mechanism "$m" -json \
			-cpuprofile "${profiles[-1]}" >/dev/null
	done
done
profiles+=("$work/cmpsweep.pprof")
"$work/bin/cmpsweep" -traces "$(IFS=,; echo "${grid[*]}")" -mechanisms paper \
	-outstanding 1,2,4,6 -q -json - -cpuprofile "${profiles[-1]}" >/dev/null
go tool pprof -proto "${profiles[@]}" >"$work/default.pgo"

if [ -n "$out" ]; then
	cp "$work/default.pgo" "$out"
else
	for c in cmpsim cmpsweep cmpserved cmpbench; do
		cp "$work/default.pgo" "cmd/$c/default.pgo"
	done
fi
