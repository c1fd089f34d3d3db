package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"bebop/internal/isa"
	"bebop/internal/pipeline"
	"bebop/internal/specwindow"
	"bebop/internal/workload"
)

// TestProcessorReuseDeterministic exercises the processor pool the way
// engine workers do — many concurrent RunSourceCtx calls cycling processors
// through acquire/Reset/release — and checks every repetition of a job
// yields the identical result. This is the contract that lets the pool
// exist at all, and under -race it also proves pooled processors are
// never shared between two in-flight jobs.
func TestProcessorReuseDeterministic(t *testing.T) {
	jobs := []struct {
		bench string
		mk    ConfigFactory
	}{
		{"gcc", Baseline()},
		{"swim", BaselineVP("D-VTAGE")},
		{"mcf", EOLEBeBoP("Medium", MediumConfig())},
	}
	const reps = 4
	srcs := make([]workload.Source, len(jobs))
	for j := range jobs {
		srcs[j] = sampleProfile(t, jobs[j].bench)
	}
	results := make([][]pipeline.Result, len(jobs))
	var wg sync.WaitGroup
	for j := range jobs {
		results[j] = make([]pipeline.Result, reps)
		for r := 0; r < reps; r++ {
			wg.Add(1)
			go func(j, r int) {
				defer wg.Done()
				res, err := RunSourceCtx(context.Background(), srcs[j], 3000, 6000, jobs[j].mk)
				if err != nil {
					t.Error(err)
					return
				}
				results[j][r] = res
			}(j, r)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for j := range jobs {
		for r := 1; r < reps; r++ {
			if results[j][r] != results[j][0] {
				t.Fatalf("%s: repetition %d diverged:\n%+v\nvs\n%+v",
					jobs[j].bench, r, results[j][r], results[j][0])
			}
		}
	}
}

// panicSource wraps a source whose streams panic at instruction at,
// standing in for a simulator bug on a pathological input.
type panicSource struct {
	workload.Source
	at int64
}

func (s panicSource) Open(maxInsts int64) (isa.Stream, error) {
	st, err := s.Source.Open(maxInsts)
	if err != nil {
		return nil, err
	}
	return &panicStream{inner: st, at: s.at}, nil
}

type panicStream struct {
	inner isa.Stream
	n, at int64
}

func (p *panicStream) Next(in *isa.Inst) bool {
	if p.n++; p.n == p.at {
		panic(fmt.Sprintf("stream fault at instruction %d", p.at))
	}
	return p.inner.Next(in)
}

// TestBuildCheckpointsPanicNotPooled: a panic while building
// checkpoints becomes an error carrying the stack, and the processor it
// seized is never returned to the pool, so the next acquisition is a
// fresh pipeline.New.
func TestBuildCheckpointsPanicNotPooled(t *testing.T) {
	// Two collections empty procPool (the first demotes pooled
	// processors to the victim cache, the second drops them), so the
	// only candidate for reuse below is the poisoned processor.
	runtime.GC()
	runtime.GC()
	prof, _ := workload.ProfileByName("gcc")
	src := panicSource{Source: workload.ProfileSource{Prof: prof}, at: 3000}
	_, _, err := BuildCheckpoints(src, Baseline(), 1000, 10000)
	if err == nil || !strings.Contains(err.Error(), "panicked") ||
		!strings.Contains(err.Error(), "(*panicStream).Next") {
		t.Fatalf("panic not reported with its stack: %v", err)
	}
	newBefore, reusedBefore := mProcNew.Value(), mProcReused.Value()
	proc := acquireProc(Baseline()(), workload.New(prof, 1000))
	proc.Release()
	procPool.Put(proc)
	if mProcNew.Value() != newBefore+1 || mProcReused.Value() != reusedBefore {
		t.Fatalf("acquisition after the panic: new +%d, reused +%d; want a fresh processor",
			mProcNew.Value()-newBefore, mProcReused.Value()-reusedBefore)
	}
}

// TestFactoryPanicIsError: a configuration the predictor constructors
// reject (here a base table that is not a power of two, as a client can
// send to bebop-serve) fails the run with an error carrying the stack,
// on both run paths, instead of panicking out of the caller's goroutine.
func TestFactoryPanicIsError(t *testing.T) {
	prof, _ := workload.ProfileByName("swim")
	src := workload.ProfileSource{Prof: prof}
	bad := EOLEBeBoP("bad", BlockConfig(4, 100, 128, 8, 32, specwindow.PolicyDnRDnR))
	_, err := RunSourceCtx(context.Background(), src, 1000, 4000, bad)
	if err == nil || !strings.Contains(err.Error(), "powers of two") {
		t.Fatalf("RunSourceCtx: %v; want the recovered constructor panic", err)
	}
	sp := SamplingParams{Intervals: 2, IntervalInsts: 1000, Parallelism: 2}
	_, _, err = RunSampled(context.Background(), src, 0, 8000, bad, sp)
	if err == nil || !strings.Contains(err.Error(), "powers of two") {
		t.Fatalf("RunSampled: %v; want the recovered constructor panic", err)
	}
}
