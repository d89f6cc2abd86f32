// Package profile backs the -cpuprofile and -memprofile flags of the
// command-line tools with runtime/pprof. The profiles are the only thing
// it writes: a run's other outputs are the same with or without them.
// Inspect them with `go tool pprof <binary> <file>`.
package profile

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Session is a started profile. End it with Stop, or with Exit where the
// command would otherwise call os.Exit (which skips deferred calls).
type Session struct {
	cpu     *os.File
	memPath string
}

// Start begins a CPU profile into cpuPath when it is non-empty, and
// remembers memPath (when non-empty) for the heap profile Stop writes.
func Start(cpuPath, memPath string) (*Session, error) {
	s := &Session{memPath: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		s.cpu = f
	}
	return s, nil
}

// Stop ends the CPU profile and writes the heap profile (in-use and
// cumulative allocations, after a GC). Call it once.
func (s *Session) Stop() error {
	var errs []error
	if s.cpu != nil {
		pprof.StopCPUProfile()
		errs = append(errs, s.cpu.Close())
	}
	if s.memPath != "" {
		errs = append(errs, writeHeap(s.memPath))
	}
	return errors.Join(errs...)
}

// Exit stops the session and exits the process with code, or with 1 when
// code is 0 and a profile could not be written.
func (s *Session) Exit(code int) {
	if err := s.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "error: profile:", err)
		code = max(code, 1)
	}
	os.Exit(code)
}

func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // up-to-date in-use statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
