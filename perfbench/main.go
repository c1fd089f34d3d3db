// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time, checks every simulated output, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer costs and a
// share table) as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload sweep-fig8 --seed 1 --seconds 15 --trace 0
//
// run.sh builds this program and bebop-serve from the checkout it is
// started in; see README.md for the workloads and the layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"bebop/internal/workload"
)

// benchNames are the six Table II workloads every workload draws from:
// two FP loop nests (swim, milc), two control-flow heavy integer codes
// (gcc, xalancbmk), a pointer chaser (mcf) and a compressor (bzip2).
var benchNames = []string{"swim", "gcc", "mcf", "bzip2", "xalancbmk", "milc"}

// A run repeats its set-up at least setupReps times and until setupMin
// has passed, so a set-up of milliseconds is sampled as often as one of
// seconds; setup_s is the median. A traced run alternates traceChunks
// untraced and traced slices.
const (
	setupReps   = 3
	setupMin    = time.Second
	traceChunks = 8
	runLimit    = 170 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload receives: the generated inputs and where it
// may put files.
type env struct {
	seed     uint64
	seconds  time.Duration
	nproc    int
	profiles []workload.Profile
	work     string // scratch directory inside the checkout, removed at exit
	serveBin string
	probe    *probe
}

// phase is one timed closed-loop measurement. Each round (one sweep,
// one pass over the six traces, or one second of requests) and each op
// carries the host speed over its round (see calib.go).
type phase struct {
	wall    time.Duration
	insts   int64     // represented simulated instructions over results returned
	latMs   []float64 // per-op latency
	latF    []float64 // host speed of each op's round
	rounds  []float64 // represented insts/s of each round
	roundF  []float64 // host speed of each round
	mallocs uint64    // heap allocations in this process during the phase
	work    workCounts
}

func (p *phase) op(latMs, speed float64) {
	p.latMs = append(p.latMs, latMs)
	p.latF = append(p.latF, speed)
}

func (p *phase) round(rate, speed float64) {
	p.rounds = append(p.rounds, rate)
	p.roundF = append(p.roundF, speed)
}

func (p *phase) merge(q phase) {
	p.wall += q.wall
	p.insts += q.insts
	p.latMs = append(p.latMs, q.latMs...)
	p.latF = append(p.latF, q.latF...)
	p.rounds = append(p.rounds, q.rounds...)
	p.roundF = append(p.roundF, q.roundF...)
	p.mallocs += q.mallocs
	p.work.add(q.work)
}

// normLatMs is every op's latency at the reference host speed.
func (p phase) normLatMs() []float64 {
	out := make([]float64, len(p.latMs))
	for i, l := range p.latMs {
		out[i] = l * p.latF[i]
	}
	return out
}

// instsPerSec is the median throughput over the phase's rounds at the
// reference host speed. The median keeps a burst of host contention in
// one round out of the figure.
func (p phase) instsPerSec() float64 {
	rates := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		rates[i] = r / p.roundF[i]
	}
	return median(rates)
}

// bench is one workload after set-up.
type bench interface {
	// measure runs the closed loop for at least d and at least minOps ops,
	// recording spans into tr when it is non-nil.
	measure(ctx context.Context, d time.Duration, minOps int, tr *tracer) (phase, error)
	// finish checks outputs that need more than the timed phase saw (the
	// in-process references of serve-runs) and returns the ledger.
	finish(ctx context.Context) (*ledger, error)
	// peakRSSMB is the peak resident memory of the simulating process.
	peakRSSMB() float64
	close()
}

type workloadDef struct {
	name  string
	setup func(ctx context.Context, e *env) (bench, error)
	// reseed: the seed re-seeds the profiles. serve-runs names catalog
	// workloads in its requests, so its seed orders the requests instead.
	reseed bool
}

var workloads = []workloadDef{
	{"sweep-fig8", setupSweep, true},
	{"sampled-trace", setupSampled, true},
	{"serve-runs", setupServe, false},
}

func main() {
	name := flag.String("workload", "", "workload: sweep-fig8, sampled-trace or serve-runs")
	seed := flag.Uint64("seed", 0, "input seed: 0 keeps the catalog profiles unchanged; 20150207 is held out for confirming claims")
	seconds := flag.Int("seconds", 15, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 prints per-layer costs instead of end-to-end metrics")
	serveBin := flag.String("serve-bin", "", "bebop-serve binary (serve-runs)")
	workDir := flag.String("work", ".bench_build/perfbench", "scratch directory root")
	flag.Parse()

	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	work, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e := &env{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		nproc:    runtime.GOMAXPROCS(0),
		profiles: profiles(0),
		work:     work,
		serveBin: *serveBin,
		probe:    newProbe(runtime.GOMAXPROCS(0)),
	}
	if def.reseed {
		e.profiles = profiles(*seed)
	}
	// A run must end within runLimit whatever hangs; sim.Run, the engine
	// and the HTTP requests all stop on this context.
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	res, err := run(ctx, def, e, *traced == 1)
	cancel()
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// profiles returns the benchmark's profiles re-seeded by seed. Seed 0
// returns the catalog profiles unchanged.
func profiles(seed uint64) []workload.Profile {
	out := make([]workload.Profile, 0, len(benchNames))
	for _, n := range benchNames {
		p, ok := workload.ProfileByName(n)
		if !ok {
			panic("perfbench: missing catalog profile " + n)
		}
		if seed != 0 {
			p.Seed = splitmix(p.Seed ^ splitmix(seed))
		}
		out = append(out, p)
	}
	return out
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

func run(ctx context.Context, def *workloadDef, e *env, traced bool) (result, error) {
	var setups, rawSetups []float64
	var b bench
	br := e.probe.bracket()
	for start := time.Now(); len(setups) < setupReps || time.Since(start) < setupMin; {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if b, err = def.setup(ctx, e); err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		el := time.Since(t0).Seconds()
		rawSetups = append(rawSetups, el)
		setups = append(setups, el*br.next())
	}
	defer b.close()

	minOps := minSamples(0.9)
	res := result{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	var p, plain phase
	var err error
	if !traced {
		if p, err = b.measure(ctx, e.seconds, minOps, nil); err != nil {
			return result{}, err
		}
	} else {
		// Untraced and traced rounds alternate, so host drift falls on
		// both alike: the difference of their throughputs is the tracing
		// overhead. End-to-end metrics come only from untraced runs.
		tr := newTracer()
		chunk := e.seconds / traceChunks
		for i := 0; i < traceChunks; i++ {
			into, with := &plain, (*tracer)(nil)
			if i%2 == 1 {
				into, with = &p, tr
			}
			q, err := b.measure(ctx, chunk, 1, with)
			if err != nil {
				return result{}, err
			}
			into.merge(q)
		}
		if err := tr.write(filepath.Join(filepath.Dir(e.work), fmt.Sprintf("spans-%s-seed%d.json", def.name, e.seed))); err != nil {
			return result{}, err
		}
		put("tracing.overhead_insts_per_s", p.instsPerSec()-plain.instsPerSec(), "insts/s")
	}
	led, err := b.finish(ctx)
	if err != nil {
		return result{}, err
	}
	if err := ctx.Err(); err != nil {
		return result{}, fmt.Errorf("run did not finish within %v: %w", runLimit, err)
	}
	res.Attempted, res.Failed = led.attempted, led.failed
	res.Correct = led.failed == 0 && led.attempted > 0
	for _, n := range led.notes {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", n)
	}

	lat := p.normLatMs()
	p50, _ := percentile(lat, 0.5)
	p90, _ := percentile(lat, 0.9)
	raw50, _ := percentile(p.latMs, 0.5)
	raw90, _ := percentile(p.latMs, 0.9)
	fq1, fmed, fq3 := quartiles(append(p.roundF, p.latF...))
	fmt.Printf("%s seed %d: %d ops in %.2f s, %d set-ups\n", def.name, e.seed, len(p.latMs), p.wall.Seconds(), len(setups))
	fmt.Printf("  host speed   %.3f of reference (q1 %.3f q3 %.3f); the metrics are at reference speed, raw figures in brackets\n", fmed, fq1, fq3)
	fmt.Printf("  insts_per_s  %.0f insts/s  (raw: rounds median %.0f, whole phase %.0f; n=%d rounds)\n",
		p.instsPerSec(), median(p.rounds), float64(p.insts)/p.wall.Seconds(), len(p.rounds))
	fmt.Printf("  op_p50_ms    %.3f ms  op_p90_ms %.3f ms  (raw %.3f / %.3f, n=%d)\n", p50, p90, raw50, raw90, len(p.latMs))
	fmt.Printf("  setup_s      %.4f s  (raw %.4f)  peak_rss_mb %.1f MB\n", median(setups), median(rawSetups), b.peakRSSMB())
	fmt.Printf("  failed_frac  %.4f frac (%d of %d ops)\n", led.failedFrac(), led.failed, led.attempted)
	fmt.Printf("  digest       %s\n", led.digest())

	if !traced {
		put("insts_per_s", p.instsPerSec(), "insts/s")
		put("op_p50_ms", p50, "ms")
		put("op_p90_ms", p90, "ms")
		put("setup_s", median(setups), "s")
		put("peak_rss_mb", b.peakRSSMB(), "MB")
		return res, nil
	}
	lc, err := measureLayers(ctx, e)
	if err != nil {
		return result{}, err
	}
	for _, m := range lc.metrics() {
		put(m.name, m.value, m.unit)
	}
	// Allocations come from the untraced slices: the tracer allocates too.
	allocs := 0.0
	if plain.mallocs > 0 {
		allocs = float64(plain.mallocs) / (float64(plain.insts) / 1000)
	}
	put("run.allocs_per_kinst", allocs, "count")
	hit := 0.0
	if p.work.engineJobs > 0 {
		hit = p.work.engineHits / p.work.engineJobs
	}
	put("engine.cache_hit_ratio", hit, "frac")
	var split serveSplit
	if sb, ok := b.(*serveBench); ok {
		split = sb.split
		p.work = sb.work
	}
	for k, v := range split.metrics() {
		res.Metrics[k] = v
	}
	sh := shares(p.work, lc, p.wall, e.nproc)
	fmt.Printf("  share of %.2f s x %d cpus (traced phase):\n", p.wall.Seconds(), e.nproc)
	for _, s := range sh {
		fmt.Printf("    %-14s %6.1f%%\n", s.layer, 100*s.frac)
		put("share."+s.layer, s.frac, "frac")
	}
	return res, nil
}

// selfPeakRSSMB is this process's peak resident set.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
