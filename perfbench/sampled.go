package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bebop/internal/trace"
	"bebop/internal/workload"
	"bebop/sim"
)

// sampledInsts is the measured region of each sampled estimate; the
// recorded traces hold its warmup (half of it) plus the region itself.
const (
	sampledInsts     = 200_000
	sampledIntervals = 20
)

// sampledBench estimates each recorded trace in turn with
// checkpoint-restored sampled simulation under the baseline model.
type sampledBench struct {
	dir   string
	names []string
	specs []sim.RunSpec
	perOp []workCounts // work one estimate of specs[i] does, by layer
	led   *ledger
	next  int
	probe *probe
}

func setupSampled(ctx context.Context, e *env) (bench, error) {
	dir, err := os.MkdirTemp(e.work, "traces-")
	if err != nil {
		return nil, err
	}
	b := &sampledBench{dir: dir, led: newLedger(), probe: e.probe}
	for _, p := range e.profiles {
		path := filepath.Join(dir, p.Name+trace.Ext)
		if err := record(path, p, sampledInsts+sampledInsts/2); err != nil {
			b.close()
			return nil, err
		}
		spec := sim.RunSpec{
			Trace:    path,
			Config:   "baseline",
			Insts:    sampledInsts,
			Sampling: &sim.SamplingSpec{Intervals: sampledIntervals, Checkpoints: true},
		}
		// The first estimate builds the trace's checkpoint side-file; its
		// output is the reference for every later estimate.
		hash, err := estimate(ctx, spec)
		if err != nil {
			b.close()
			return nil, err
		}
		b.led.reference(p.Name, hash)
		b.names = append(b.names, p.Name)
		b.specs = append(b.specs, spec)
	}
	return b, nil
}

// record writes the first n instructions of profile p to a .bbt file.
func record(path string, p workload.Profile, n int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, _, err := trace.Record(f, workload.New(p, n), trace.WriterOptions{Name: p.Name, Seed: p.Seed}); err != nil {
		f.Close()
		return fmt.Errorf("record %s: %w", p.Name, err)
	}
	return f.Close()
}

// estimate runs one sampled estimate and hashes its report.
func estimate(ctx context.Context, spec sim.RunSpec) (string, error) {
	rep, err := sim.Run(ctx, spec)
	if err != nil {
		return "", err
	}
	return reportHash(rep)
}

// countWork runs each estimate once more, untimed, with telemetry, and
// keeps the work it gave each layer; only a traced phase needs it. The
// reports double as a check that telemetry leaves the outputs alone.
func (b *sampledBench) countWork(ctx context.Context) error {
	for i, spec := range b.specs {
		rep, err := sim.FromSpec(spec, sim.WithTelemetry()).Run(ctx)
		if err != nil {
			return err
		}
		cf, err := trace.LoadCheckpoints(trace.CheckpointPath(spec.Trace, rep.Config))
		if err != nil {
			return err
		}
		w := runWork(rep.Telemetry, true, false)
		w.ckptPoints = float64(len(cf.Points))
		b.perOp = append(b.perOp, w)
		rep.Telemetry = nil
		hash, err := reportHash(rep)
		if err != nil {
			return err
		}
		b.led.reference(b.names[i], hash)
	}
	return nil
}

func (b *sampledBench) measure(ctx context.Context, d time.Duration, minOps int, tr *tracer) (phase, error) {
	if tr != nil && b.perOp == nil {
		if err := b.countWork(ctx); err != nil {
			return phase{}, err
		}
	}
	var p phase
	represented := float64(sampledInsts + sampledInsts/2)
	m0 := mallocs()
	t0, probed := time.Now(), b.probe.spent
	br := b.probe.bracket()
	var round time.Time
	var roundInsts float64
	var roundLat []float64
	// Whole rounds only, so every trace weighs the same in the phase.
	for time.Since(t0) < d || len(p.latMs) < minOps || b.next%len(b.specs) != 0 {
		i := b.next % len(b.specs)
		if i == 0 {
			round, roundInsts, roundLat = time.Now(), 0, roundLat[:0]
		}
		b.next++
		ts := time.Now()
		id := tr.start("sim.Run sampled "+b.specs[i].Trace, 0)
		hash, err := estimate(ctx, b.specs[i])
		tr.end(id)
		el := time.Since(ts)
		b.led.record(b.names[i], hash, err)
		roundLat = append(roundLat, ms(el))
		if err == nil {
			p.insts += int64(represented)
			roundInsts += represented
			if tr != nil {
				p.work.add(b.perOp[i])
			}
		}
		if b.next%len(b.specs) == 0 {
			rate := roundInsts / time.Since(round).Seconds()
			speed := br.next()
			p.round(rate, speed)
			for _, l := range roundLat {
				p.op(l, speed)
			}
		}
	}
	p.wall = time.Since(t0) - (b.probe.spent - probed)
	p.mallocs = mallocs() - m0
	return p, nil
}

func (b *sampledBench) finish(context.Context) (*ledger, error) { return b.led, nil }
func (b *sampledBench) peakRSSMB() float64                      { return selfPeakRSSMB() }

func (b *sampledBench) close() { os.RemoveAll(b.dir) }
