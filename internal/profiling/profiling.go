// Package profiling writes the CPU and heap profiles that cmpsim,
// cmpsweep and cmpbench take with -cpuprofile and -memprofile.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile into cpuPath when it is non-empty and
// returns stop, which ends that profile and then writes a heap profile
// into memPath when it is non-empty. stop reports the first failure,
// naming the file: a failed write or close included, so a profile cut
// short by a full disk is never reported as written. The caller must
// call stop before it exits, or the CPU profile is lost; stop may be
// called once.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *file
	if cpuPath != "" {
		if cpu, err = create("cpu profile", cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.f.Close()
			return nil, fmt.Errorf("cpu profile %s: %w", cpuPath, err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		mem, err := create("heap profile", memPath)
		if err != nil {
			return err
		}
		runtime.GC() // settle the heap so the profile shows retained allocations
		werr := pprof.WriteHeapProfile(mem)
		if err := mem.close(); err != nil {
			return err
		}
		if werr != nil {
			return fmt.Errorf("heap profile %s: %w", memPath, werr)
		}
		return nil
	}, nil
}

// file is a profile's destination. The CPU profiler's writer discards
// write errors, so file keeps the first one for close to report.
type file struct {
	what string // "cpu profile" or "heap profile", for errors
	f    *os.File
	err  error
}

func create(what, path string) (*file, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	return &file{what: what, f: f}, nil
}

func (w *file) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.f.Write(p)
	w.err = err
	return n, err
}

// close closes the file and returns the first write or close error.
func (w *file) close() error {
	err := w.f.Close()
	if w.err != nil {
		err = w.err
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.what, err)
	}
	return nil
}
