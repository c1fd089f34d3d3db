// Package prof wires runtime/pprof into the command-line tools:
// bebop-sim exposes -cpuprofile and -memprofile flags through it, so a
// performance investigation starts from a profile instead of a guess.
// See README "Profiling the hot loop" for the workflow.
package prof

import (
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
)

// Handler returns the net/http/pprof surface mounted under
// /debug/pprof/, for servers that opt into live profiling (bebop-serve
// -pprof). The handlers are mounted explicitly rather than through the
// package's init side effect on http.DefaultServeMux, so a server that
// does not opt in exposes nothing.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

// StartCPU begins a CPU profile written to path and returns the function
// that stops it and closes the file. An empty path is a no-op.
func StartCPU(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeap captures an allocation profile to path after a GC, so the
// numbers reflect live steady-state memory rather than collectible
// garbage. An empty path is a no-op.
func WriteHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}
