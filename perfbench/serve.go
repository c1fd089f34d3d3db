package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bebop/sim"
)

// The serve-runs request mix. Every serveRepeatEvery-th request repeats
// an earlier spec exactly; every other request is a spec not sent
// before: one of the six workloads x serveConfigs, one in
// serveSampledEvery sampled with serveIntervals intervals, at a budget of
// serveMinInsts + 8*k, k uniform. New specs come in blocks that hold
// every (workload, configuration, sampled) class in its share, in a
// seeded order, so the mix of a run does not drift with the seed.
//
// No record of real request traffic exists, so every share and budget
// here is an assumption, not a measurement: the two configurations are
// the ones the paper compares; budgets of 10K-14K instructions keep a
// simulation short (about 15 ms) so per-request overhead shows; one in
// four sampled and one in four repeated make each a visible minority.
// The repeat share caps what a run cache could gain on this workload: at
// most a quarter of the requests can be served from it.
const (
	serveRepeatEvery  = 4
	serveSampledEvery = 4
	serveMinInsts     = 10_000
	serveBudgets      = 500
	serveIntervals    = 4
	serveWindow       = time.Second
)

var serveConfigs = []string{"baseline", "eole-bebop/Medium"}

// serveBench drives a bebop-serve child process with nproc closed-loop
// clients POSTing RunSpecs to /v1/runs.
type serveBench struct {
	e      *env
	cmd    *exec.Cmd
	exited chan struct{}
	base   string
	client *http.Client

	mu  sync.Mutex
	rng *rand.Rand
	// classes is what is left of the current block of new specs: each
	// (workload, configuration, sampled or not) class once, in a seeded
	// order, so every stretch of requests holds the mix in its shares.
	classes []int
	issued  []sim.RunSpec // distinct specs, in the order first sent
	ids     []string      // canonical JSON of issued[i]
	insts   []int64       // represented instructions of issued[i]
	seen    map[string]bool
	nreq    int
	ops     []serveOp
	warmed  bool

	hwmMB float64
	split serveSplit // summed over every timed phase
	// work is what the traced phases' requests gave each layer, counted
	// by finish from in-process runs of the same specs.
	work workCounts
}

// serveOp is one timed request. Its body is decoded and checked after
// the phase, so the check takes no CPU from the server while it is timed.
type serveOp struct {
	spec   int // index into issued
	body   []byte
	err    error
	traced bool
}

// serveSplit is what timed phases tell about the server from outside:
// counts from the client side and /metrics deltas across each phase.
type serveSplit struct {
	ops, repeats int
	rttSum       float64 // seconds
	delta        promSample
	// scrapeS bounds the server time of /metrics scrapes that fell
	// inside a phase's delta: their count times a scrape's round trip.
	scrapeS float64
}

func setupServe(ctx context.Context, e *env) (bench, error) {
	if e.serveBin == "" {
		return nil, fmt.Errorf("serve-runs needs -serve-bin")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(e.serveBin, "-addr", addr, "-n", strconv.Itoa(serveMinInsts), "-max-insts", "100000")
	// The server must not outlive the benchmark, even one that crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	b := &serveBench{
		e: e, cmd: cmd, exited: make(chan struct{}),
		base: "http://" + addr,
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxIdleConnsPerHost: e.nproc, DisableCompression: true,
		}},
		rng:  rand.New(rand.NewPCG(e.seed, 0x5e77e)),
		seen: map[string]bool{},
	}
	go func() { cmd.Wait(); close(b.exited) }()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(250 * time.Microsecond) {
		if resp, err := b.client.Get(b.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return b, nil
			}
		}
		select {
		case <-b.exited:
			return nil, fmt.Errorf("bebop-serve exited before answering /healthz")
		default:
		}
		if time.Now().After(deadline) {
			b.close()
			return nil, fmt.Errorf("bebop-serve did not answer /healthz within 30 s")
		}
	}
}

// nextSpec returns the next request of the seeded sequence, its index
// in issued and whether it repeats an earlier one.
func (b *serveBench) nextSpec() (sim.RunSpec, int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nreq++
	if b.nreq%serveRepeatEvery == 0 && len(b.issued) > 0 {
		i := b.rng.IntN(len(b.issued))
		return b.issued[i], i, true
	}
	if len(b.classes) == 0 {
		b.classes = b.rng.Perm(len(benchNames) * len(serveConfigs) * serveSampledEvery)
	}
	c := b.classes[0]
	b.classes = b.classes[1:]
	spec := sim.RunSpec{
		Workload: benchNames[c%len(benchNames)],
		Config:   serveConfigs[c/len(benchNames)%len(serveConfigs)],
	}
	if c/(len(benchNames)*len(serveConfigs)) == 0 {
		spec.Sampling = &sim.SamplingSpec{Intervals: serveIntervals}
	}
	for {
		spec.Insts = int64(serveMinInsts + 8*b.rng.IntN(serveBudgets))
		raw, _ := json.Marshal(spec)
		id := string(raw)
		if b.seen[id] {
			continue
		}
		v, err := spec.Validate()
		if err != nil {
			panic(fmt.Sprintf("perfbench: invalid serve spec %s: %v", id, err))
		}
		b.seen[id] = true
		b.issued = append(b.issued, spec)
		b.ids = append(b.ids, id)
		b.insts = append(b.insts, *v.Warmup+v.Insts)
		return spec, len(b.issued) - 1, false
	}
}

// post sends one RunSpec and returns the response body and the round
// trip time, taken once the body has been read.
func (b *serveBench) post(ctx context.Context, body []byte) ([]byte, time.Duration, error) {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, time.Since(t0), err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	rtt := time.Since(t0)
	if err != nil {
		return nil, rtt, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, rtt, fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
	}
	return raw, rtt, nil
}

// responseHash hashes a server response in the encoding the SDK gives
// its report, so it compares byte for byte with an in-process run.
func responseHash(raw []byte) (string, error) {
	var rep sim.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return "", fmt.Errorf("decode report: %w", err)
	}
	return reportHash(rep)
}

// reportHash hashes a report as the SDK encodes it. A recorded trace's
// directory differs between runs, so the hash sees only its file name.
func reportHash(rep sim.Report) (string, error) {
	if rep.Spec.Trace != "" {
		rep.Spec.Trace = filepath.Base(rep.Spec.Trace)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	return hashBytes(out), nil
}

// warm sends one unmeasured request per (workload, configuration) at a
// budget below the timed mix, so no timed request repeats it.
func (b *serveBench) warm(ctx context.Context) error {
	for _, w := range benchNames {
		for _, c := range serveConfigs {
			body, _ := json.Marshal(sim.RunSpec{Workload: w, Config: c, Insts: serveMinInsts / 2})
			if _, _, err := b.post(ctx, body); err != nil {
				return fmt.Errorf("warm-up request: %w", err)
			}
		}
	}
	return nil
}

func (b *serveBench) measure(ctx context.Context, d time.Duration, minOps int, tr *tracer) (phase, error) {
	if !b.warmed {
		if err := b.warm(ctx); err != nil {
			return phase{}, err
		}
		b.warmed = true
	}
	sp := &b.split
	before, scrapeRTT, err := b.scrape()
	if err != nil {
		return phase{}, err
	}
	var p phase
	t0, probed := time.Now(), b.e.probe.spent
	br := b.e.probe.bracket()
	// One round is serveWindow of requests from every client; the
	// clients stop between rounds while the host speed is measured.
	for time.Since(t0) < d || len(p.latMs) < minOps {
		var r serveRound
		ws := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < b.e.nproc; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(ws) < serveWindow {
					b.request(ctx, tr, &r)
				}
			}()
		}
		wg.Wait()
		rate := r.insts / time.Since(ws).Seconds()
		speed := br.next()
		p.round(rate, speed)
		p.insts += int64(r.insts)
		for _, l := range r.latMs {
			p.op(l, speed)
		}
	}
	p.wall = time.Since(t0) - (b.e.probe.spent - probed)
	after, _, err := b.scrape()
	if err != nil {
		return phase{}, err
	}
	if sp.delta == nil {
		sp.delta = promSample{}
	}
	for k, v := range after {
		sp.delta[k] += v - before[k]
	}
	// The "before" scrape may be counted after its own snapshot.
	sp.scrapeS += (after.routeCount("GET /metrics") - before.routeCount("GET /metrics")) * scrapeRTT.Seconds()
	return p, nil
}

// serveRound is what one round's requests returned.
type serveRound struct {
	latMs []float64
	insts float64
}

// request sends the next request of the sequence and records it in r.
func (b *serveBench) request(ctx context.Context, tr *tracer, r *serveRound) {
	spec, i, repeat := b.nextSpec()
	body, _ := json.Marshal(spec)
	sid := tr.start("POST /v1/runs", 0)
	raw, rtt, err := b.post(ctx, body)
	tr.end(sid)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ops = append(b.ops, serveOp{i, raw, err, tr != nil})
	r.latMs = append(r.latMs, ms(rtt))
	b.split.ops++
	b.split.rttSum += rtt.Seconds()
	if repeat {
		b.split.repeats++
	}
	if err == nil {
		r.insts += float64(b.insts[i])
	}
}

// finish checks every response against an in-process sim.Run of the same
// spec and records the server's peak memory before it is stopped. When
// some requests were traced, the in-process runs also record telemetry,
// from which the work of those requests is counted.
func (b *serveBench) finish(ctx context.Context) (*ledger, error) {
	b.hwmMB = procHWM(b.cmd.Process.Pid)
	var opts []sim.Option
	for _, op := range b.ops {
		if op.traced {
			opts = []sim.Option{sim.WithTelemetry()}
			break
		}
	}
	led := newLedger()
	refs := make([]string, len(b.issued))
	work := make([]workCounts, len(b.issued))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < b.e.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rep, err := sim.FromSpec(b.issued[i], opts...).Run(ctx)
				if err != nil {
					refs[i] = "error: " + err.Error()
					continue
				}
				if rep.Telemetry != nil {
					work[i] = runWork(rep.Telemetry, false, b.issued[i].Config != "baseline")
					rep.Telemetry = nil
				}
				if refs[i], err = reportHash(rep); err != nil {
					refs[i] = "error: " + err.Error()
				}
			}
		}()
	}
	for i := range b.issued {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, id := range b.ids {
		led.reference(id, refs[i])
	}
	for _, op := range b.ops {
		hash, err := "", op.err
		if err == nil {
			hash, err = responseHash(op.body)
		}
		led.record(b.ids[op.spec], hash, err)
		if op.traced && op.err == nil {
			b.work.add(work[op.spec])
		}
	}
	// The digest covers the specs every run sends, whatever its speed.
	led.digestIDs = b.ids[:min(len(b.ids), distinctIn(minSamples(0.9)))]
	return led, nil
}

// distinctIn is the number of distinct specs among the first n requests.
func distinctIn(n int) int {
	return n - n/serveRepeatEvery
}

func (b *serveBench) peakRSSMB() float64 { return b.hwmMB }

// close stops the server the way an operator would (SIGTERM, drain) and
// kills it if the drain hangs.
func (b *serveBench) close() {
	b.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-b.exited:
	case <-time.After(10 * time.Second):
		b.cmd.Process.Kill()
		<-b.exited
	}
}

// promSample maps series (name plus labels) to values from /metrics.
type promSample map[string]float64

// scrape reads /metrics and returns it with the request's round trip.
func (b *serveBench) scrape() (promSample, time.Duration, error) {
	t0 := time.Now()
	resp, err := b.client.Get(b.base + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out := promSample{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, time.Since(t0), sc.Err()
}

// routeCount is the number of requests served on a mux route, over all
// status codes.
func (s promSample) routeCount(route string) float64 {
	n := 0.0
	prefix := `bebop_serve_requests_total{route="` + route + `",`
	for k, v := range s {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return n
}

// metrics reports the timed phases as server time, transport time,
// shedding, repeats and processor-pool reuse; all zero for a workload
// that sends no requests.
func (s serveSplit) metrics() map[string]metric {
	d := s.delta
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// The latency histogram covers every route: take the scrapes out.
	serverS := ratio(d["bebop_serve_request_seconds_sum"]-s.scrapeS, d.routeCount("POST /v1/runs"))
	transS := 0.0
	if s.ops > 0 {
		transS = s.rttSum/float64(s.ops) - serverS
	}
	shed := 0.0
	for _, dec := range []string{"shed_rate", "shed_queue", "shed_drain"} {
		shed += d[`bebop_admission_requests_total{decision="`+dec+`"}`]
	}
	reused := d[`bebop_core_proc_pool_total{outcome="reused"}`]
	fresh := d[`bebop_core_proc_pool_total{outcome="new"}`]
	return map[string]metric{
		"serve.server_ms_mean":    {1000 * serverS, "ms"},
		"serve.transport_ms_mean": {1000 * transS, "ms"},
		"serve.shed":              {shed, "count"},
		"serve.repeat_share":      {ratio(float64(s.repeats), float64(s.ops)), "frac"},
		"serve.pool_reuse_ratio":  {ratio(reused, reused+fresh), "frac"},
	}
}

// procHWM is a process's peak resident set (VmHWM) in MB.
func procHWM(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
