package main

import (
	"sync"
	"time"
)

// The speed of a shared host drifts: on the two-vCPU KVM guest this
// benchmark was tuned on, the same run read up to 40% apart ten minutes
// later, on every workload at once, and a run is too short to average
// such drift out. So every time metric is stated at a reference host
// speed. Between rounds (and around each set-up) the benchmark times a
// fixed loop of its own, not the program's, on nproc goroutines while
// the program is idle. A round's times are multiplied, and its rates
// divided, by the loop's mean speed over probeRef at the round's two
// ends. A change to the program moves the metrics as before; a change
// in the host's speed moves the loop as well and cancels out. The raw
// figures are printed too.
const (
	probeWords = 1 << 16 // 256 KB per goroutine, like a predictor table
	probeSpan  = 25 * time.Millisecond
	probeChunk = 1 << 13
	// probeRef is the loop's iterations per second summed over the
	// goroutines at about the tuning host's typical speed (two vCPUs), so
	// normalized figures read close to raw ones there.
	probeRef = 130e6
)

// bracket hands out the host speed over successive rounds: the mean of
// the measurements at a round's start and end, the end being the next
// round's start.
type bracket struct {
	p    *probe
	last float64
}

func (p *probe) bracket() *bracket { return &bracket{p, p.speed()} }

// next measures the host speed now and returns the mean speed over the
// round that just ended.
func (b *bracket) next() float64 {
	s := b.p.speed()
	f := (b.last + s) / 2
	b.last = s
	return f
}

type probe struct {
	tables [][]uint32
	sinks  []uint32      // the loops' results, kept so the loops are not optimized away
	spent  time.Duration // total time measuring, to keep out of phase walls
}

func newProbe(n int) *probe {
	p := &probe{tables: make([][]uint32, n), sinks: make([]uint32, n)}
	for i := range p.tables {
		p.tables[i] = make([]uint32, probeWords)
	}
	p.speed() // page the tables in
	return p
}

// speed runs the loop on every table at once for probeSpan and returns
// the host's speed relative to probeRef: the iterations all goroutines
// completed per second, each over its own time. A workload that spreads
// its work over the CPUs sees the same sum, also when one CPU is slower
// than the other.
func (p *probe) speed() float64 {
	var wg sync.WaitGroup
	rates := make([]float64, len(p.tables))
	t0 := time.Now()
	deadline := t0.Add(probeSpan)
	for i, t := range p.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start, seed, n := time.Now(), uint32(i+1), 0
			for time.Now().Before(deadline) {
				seed = probeLoop(t, probeChunk, seed) | 1
				n += probeChunk
			}
			rates[i] = float64(n) / time.Since(start).Seconds()
			p.sinks[i] = seed
		}()
	}
	wg.Wait()
	p.spent += time.Since(t0)
	sum := 0.0
	for _, r := range rates {
		sum += r
	}
	return sum / probeRef
}

// probeLoop mixes what the simulator's inner loops do: dependent loads
// and stores at pseudo-random places in a table of some hundred KB, integer
// arithmetic and a data-dependent branch.
func probeLoop(t []uint32, iters int, seed uint32) uint32 {
	x, acc := seed*2654435761|1, uint32(0)
	mask := uint32(len(t) - 1)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := (x ^ acc) & mask
		v := t[j]
		if v&1 != 0 {
			acc += v
		} else {
			acc ^= v >> 1
		}
		t[j] = v + x
	}
	return acc
}
