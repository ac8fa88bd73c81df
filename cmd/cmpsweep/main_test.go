package main

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cmpcache/internal/config"
	"cmpcache/internal/sweep"
	"cmpcache/internal/system"
)

// TestPrintTableBaselinePerInput: two captures that share a base name
// in different directories share a row label, yet each variant row
// must read against its own capture's baseline.
func TestPrintTableBaselinePerInput(t *testing.T) {
	result := func(traceFile string, m config.Mechanism, cycles uint64) sweep.Result {
		return sweep.Result{
			Job:     sweep.Job{TraceFile: traceFile, Mechanism: m, Outstanding: 6},
			Results: &system.Results{Cycles: cycles},
		}
	}
	results := []sweep.Result{
		result("a/x.cmps", config.Baseline, 400_000),
		result("a/x.cmps", config.WBHT, 400_000),
		result("b/x.cmps", config.Baseline, 500_000),
		result("b/x.cmps", config.WBHT, 450_000),
	}
	var out strings.Builder
	if err := printTable(&out, results, 0); err != nil {
		t.Fatal(err)
	}
	var vsBase []string
	for _, cells := range tableRows(out.String()) {
		if cells["Mechanism"] == "wbht" {
			vsBase = append(vsBase, cells["vs base"])
		}
	}
	if want := []string{"+0.00%", "+10.00%"}; !slices.Equal(vsBase, want) {
		t.Fatalf("wbht rows read %q vs base, want %q:\n%s", vsBase, want, out.String())
	}
}

// TestPrintTableRowsTellJobsApart: two jobs of one mechanism that
// differ only in a knob, here a plug-in policy's table size, print
// different rows even when their results are identical.
func TestPrintTableRowsTellJobsApart(t *testing.T) {
	plan := sweep.Plan{Workloads: []string{"tp"}, Mechanisms: []config.Mechanism{config.WBHT,
		config.ReuseDist, config.HybridUI}, TableSizes: []int{512, 4096}}
	var results []sweep.Result
	for _, j := range plan.Jobs() {
		results = append(results, sweep.Result{Job: j, Results: &system.Results{Cycles: 1000}})
	}
	var out strings.Builder
	if err := printTable(&out, results, 0); err != nil {
		t.Fatal(err)
	}
	rows := tableRows(out.String())
	if len(rows) != len(results) {
		t.Fatalf("%d rows for %d jobs:\n%s", len(rows), len(results), out.String())
	}
	seen := make(map[string]bool)
	for _, cells := range rows {
		row := fmt.Sprint(cells)
		if seen[row] {
			t.Errorf("two jobs print the same row %s:\n%s", row, out.String())
		}
		seen[row] = true
	}
}

// tableRows parses printTable's markdown body into one map per row,
// keyed by column header.
func tableRows(md string) []map[string]string {
	var header []string
	var rows []map[string]string
	for _, line := range strings.Split(md, "\n") {
		if !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|-") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if header == nil {
			header = cells
			continue
		}
		row := make(map[string]string, len(cells))
		for i, c := range cells {
			row[header[i]] = c
		}
		rows = append(rows, row)
	}
	return rows
}
