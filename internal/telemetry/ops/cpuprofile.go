package ops

import (
	"fmt"
	"os"
	"runtime/pprof"
)

// CPUProfile is the CLI convenience behind every -cpuprofile flag: with a
// non-empty path it starts a runtime/pprof CPU profile written to path and
// returns the function that stops it and closes the file; with an empty
// path it returns a no-op stop, so callers never branch. The profile is
// host-side like the ops trace and never belongs among a run's
// deterministic artifacts.
func CPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		return nil
	}, nil
}
