package profiling

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: %v, %v", p, fi, err)
		}
	}
}

// TestStopReportsFullDisk: /dev/full fails every write with ENOSPC, as a
// full disk does; stop must report it, naming the file.
func TestStopReportsFullDisk(t *testing.T) {
	const full = "/dev/full"
	if _, err := os.Stat(full); err != nil {
		t.Skip(full, "unavailable")
	}
	for _, tc := range []struct{ cpu, mem string }{{full, ""}, {"", full}} {
		stop, err := Start(tc.cpu, tc.mem)
		if err != nil {
			t.Fatal(err)
		}
		if err := stop(); err == nil || !strings.Contains(err.Error(), full) {
			t.Errorf("Start(%q, %q): stop() = %v, want an error naming %s", tc.cpu, tc.mem, err, full)
		}
	}
}

func TestStartNothing(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
