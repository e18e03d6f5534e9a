// Package prof backs the -cpuprofile and -memprofile flags of the
// simulation CLI's subcommands (cmd/cbar) with runtime/pprof. Profiling
// observes a run; it never changes what the simulation computes.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into cpuPath and returns a stop function
// that ends it and writes a heap profile to memPath. An empty path
// skips that profile; with both empty Start does nothing and stop is a
// no-op. The caller runs stop once, when the work being profiled is
// done — os.Exit skips deferred calls, so exit paths call it first.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		cpu, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
			cpu = nil
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("heap profile: %w", err)
		}
		runtime.GC() // so the profile shows live objects, not garbage awaiting collection
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("heap profile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("heap profile: %w", err)
		}
		return nil
	}, nil
}
