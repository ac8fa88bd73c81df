package main

import (
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
	for _, line := range strings.Split(out.String(), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) > 7 && strings.TrimSpace(cells[2]) == "wbht" {
			vsBase = append(vsBase, strings.TrimSpace(cells[7]))
		}
	}
	if want := []string{"+0.00%", "+10.00%"}; !slices.Equal(vsBase, want) {
		t.Fatalf("wbht rows read %q vs base, want %q:\n%s", vsBase, want, out.String())
	}
}
