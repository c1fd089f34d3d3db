package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"bebop/internal/core"
	"bebop/internal/engine"
	"bebop/internal/experiments"
	"bebop/internal/isa"
	"bebop/internal/pipeline"
	"bebop/internal/workload"
)

// sweepInsts is the measured budget per (configuration, workload) cell of
// the Fig. 8 sweep, the one of the recorded `bebop-sweep -exp fig8 -n
// 60000` runs; each cell also warms for sweepInsts/2.
const sweepInsts = 60_000

// sweepBench regenerates Fig. 8 (7 configurations x 6 workloads) with a
// fresh experiments.Runner per op, so the engine cache never carries a
// result from one sweep to the next.
type sweepBench struct {
	e   *env
	cat *workload.Catalog
	led *ledger

	mu     sync.Mutex
	opened map[string]time.Time // workload -> when a worker last opened its stream
}

// openClock is a workload source that notes when a worker opens its
// stream: the cell's simulation starts there, after any wait for a
// worker slot. Fig8 runs one configuration's six cells to completion
// before the next, so a workload has at most one cell in flight.
type openClock struct {
	workload.ProfileSource
	b *sweepBench
}

func (s openClock) Open(maxInsts int64) (isa.Stream, error) {
	s.b.mu.Lock()
	s.b.opened[s.Name()] = time.Now()
	s.b.mu.Unlock()
	return s.ProfileSource.Open(maxInsts)
}

func setupSweep(ctx context.Context, e *env) (bench, error) {
	cat := workload.NewCatalog()
	b := &sweepBench{e: e, cat: cat, led: newLedger(), opened: map[string]time.Time{}}
	for _, p := range e.profiles {
		if err := cat.Add(openClock{workload.ProfileSource{Prof: p}, b}); err != nil {
			return nil, err
		}
	}
	// The unmeasured pass fills the host processor pools; its outputs are
	// the references the timed sweeps are checked against.
	cells, _, err := b.sweep(ctx, nil, 0)
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		b.led.reference(c.id, c.hash)
	}
	return b, nil
}

type sweepCell struct {
	id, hash string
	vp       bool // the configuration runs a value predictor
	latMs    float64
}

// sweep runs one Fig. 8 sweep and returns its cells with their output
// hashes, plus the engine's job statistics.
func (b *sweepBench) sweep(ctx context.Context, tr *tracer, parent int) ([]sweepCell, engine.Stats, error) {
	var done []sweepCell
	r := experiments.NewRunner(experiments.Options{
		Insts:     sweepInsts,
		Workloads: benchNames,
		Catalog:   b.cat,
		Parallel:  b.e.nproc,
		OnProgress: func(ev engine.Event) {
			if ev.Kind != engine.EventDone || ev.Cached {
				return
			}
			end := time.Now()
			b.mu.Lock()
			start := b.opened[ev.Bench]
			done = append(done, sweepCell{id: ev.Key + "|" + ev.Bench, vp: ev.Key != "Baseline_6_60", latMs: ms(end.Sub(start))})
			b.mu.Unlock()
			if tr != nil {
				tr.add("experiments.cell "+ev.Key+" "+ev.Bench, parent, start, end)
			}
		}}).WithContext(ctx)
	r.Fig8()
	if err := r.Err(); err != nil {
		return nil, engine.Stats{}, fmt.Errorf("fig8 sweep: %w", err)
	}
	st := r.Engine().Stats()

	// Every cell is now cached: asking for it again returns its result
	// without simulating, which lets the check see per-cell outputs.
	byKey := map[string]map[string]pipeline.Result{}
	for i, c := range done {
		key, bench, _ := strings.Cut(c.id, "|")
		res, ok := byKey[key]
		if !ok {
			res = r.Results(key, core.Baseline())
			byKey[key] = res
		}
		if out, ok := res[bench]; ok {
			raw, _ := json.Marshal(out)
			done[i].hash = hashBytes(raw)
		}
	}
	if after := r.Engine().Stats(); after.Runs != st.Runs {
		return nil, engine.Stats{}, fmt.Errorf("fig8 check re-simulated %d cells: cell keys no longer match the sweep", after.Runs-st.Runs)
	}
	return done, st, nil
}

func (b *sweepBench) measure(ctx context.Context, d time.Duration, minOps int, tr *tracer) (phase, error) {
	var p phase
	cellInsts := int64(sweepInsts + sweepInsts/2)
	m0 := mallocs()
	t0, probed := time.Now(), b.e.probe.spent
	br := b.e.probe.bracket()
	for time.Since(t0) < d || len(p.latMs) < minOps {
		ts := time.Now()
		id := tr.start("experiments.Runner.Fig8", 0)
		cells, st, err := b.sweep(ctx, tr, id)
		tr.end(id)
		if err != nil {
			return phase{}, err
		}
		rate := float64(int64(len(cells))*cellInsts) / time.Since(ts).Seconds()
		speed := br.next()
		for _, c := range cells {
			b.led.record(c.id, c.hash, nil)
			p.op(c.latMs, speed)
			p.work.genInsts += float64(cellInsts)
			p.work.detailedInsts += float64(cellInsts)
			p.work.resets++
			if c.vp {
				p.work.vpInsts += float64(cellInsts)
			}
		}
		p.work.engineJobs += float64(st.Hits + st.Misses)
		p.work.engineHits += float64(st.Hits)
		p.insts += int64(len(cells)) * cellInsts
		p.round(rate, speed)
	}
	p.wall = time.Since(t0) - (b.e.probe.spent - probed)
	p.mallocs = mallocs() - m0
	return p, nil
}

func (b *sweepBench) finish(context.Context) (*ledger, error) { return b.led, nil }
func (b *sweepBench) peakRSSMB() float64                      { return selfPeakRSSMB() }
func (b *sweepBench) close()                                  {}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
