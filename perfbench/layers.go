package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bebop/internal/branch"
	"bebop/internal/cache"
	"bebop/internal/core"
	"bebop/internal/engine"
	"bebop/internal/isa"
	"bebop/internal/pipeline"
	"bebop/internal/predictor"
	"bebop/internal/trace"
	"bebop/internal/workload"
	"bebop/sim"
)

// Per-layer costs are measured from outside the program: each layer is
// timed through calls to its public functions, fed with the
// instructions of the workload's own profiles. layerInsts bounds the
// stream per profile; every timing loop runs once untimed (tables paged in,
// predictors trained, as in a pooled processor) and then layerReps timed
// times, keeping the median.
const (
	layerInsts = 60_000
	layerReps  = 3
	ckptEvery  = layerInsts / sampledIntervals
	simPairs   = 40
	callReps   = 20 // calls per timed rep of the per-call timings
)

// workCounts is how much work a timed phase gave each layer, counted from
// its ops and their inputs.
type workCounts struct {
	genInsts, decodeInsts, opens, seeks, ckptPoints      float64
	detailedInsts, vpInsts, warmInsts, ffInsts, restores float64
	resets, engineJobs, engineHits, simRuns              float64
}

// runWork counts the work one sim.Run gave each layer from the phase
// spans of its telemetry (sim.WithTelemetry), so the benchmark holds no
// copy of the interval scheduler. Every detailed span is one pooled
// processor re-armed; warming, fast-forward and detailed spans carry
// their instruction counts; a restore span is a seek plus a checkpoint
// restore. A trace-backed run decodes what it warms and simulates, seeks
// instead of fast-forwarding, and opens the trace once per interval plus
// once to check its checkpoint side-file. A generated run generates every
// instruction it fast-forwards, warms or simulates. vp marks a
// configuration with a value predictor.
func runWork(t *sim.TelemetryReport, traceBacked, vp bool) workCounts {
	w := workCounts{simRuns: 1}
	for _, sp := range t.Spans {
		n := float64(sp.Insts)
		streamed := 0.0 // instructions the span takes from the stream
		switch sp.Name {
		case "restore":
			w.seeks++
			w.restores++
		case "fast-forward":
			if traceBacked {
				w.seeks++
			} else {
				w.ffInsts += n
				streamed = n
			}
		case "warming":
			w.warmInsts += n
			streamed = n
		case "detailed":
			w.resets++
			w.detailedInsts += n
			if vp {
				w.vpInsts += n
			}
			streamed = n
		}
		if traceBacked {
			w.decodeInsts += streamed
		} else {
			w.genInsts += streamed
		}
	}
	if traceBacked {
		w.opens = w.resets + 1
	}
	return w
}

func (w *workCounts) add(o workCounts) {
	w.genInsts += o.genInsts
	w.decodeInsts += o.decodeInsts
	w.opens += o.opens
	w.seeks += o.seeks
	w.ckptPoints += o.ckptPoints
	w.detailedInsts += o.detailedInsts
	w.vpInsts += o.vpInsts
	w.warmInsts += o.warmInsts
	w.ffInsts += o.ffInsts
	w.restores += o.restores
	w.resets += o.resets
	w.engineJobs += o.engineJobs
	w.engineHits += o.engineHits
	w.simRuns += o.simRuns
}

// layerCosts are the isolated per-op costs of each layer.
type layerCosts struct {
	genNs                                float64 // workload.New(..).Next, per instruction
	decodeNs, decodeAllocsK, bytesPerIns float64 // trace.Reader.Next drain
	openUs, seekUs, ckptLoadUs           float64 // ckptLoadUs per checkpoint point
	ckptBuildS                           float64
	tageNs, branchesPerInst              float64
	dvtageNs                             float64 // per fetch block
	cacheNs, accessesPerInst             float64
	pipeNs, bebopExtraNs, warmNs, ffNs   float64 // per instruction
	resetUs, restoreUs, restoreAllocs    float64
	engineUs                             float64 // per no-op job
	simOverheadUs                        float64
}

type namedValue struct {
	name  string
	value float64
	unit  string
}

func (lc layerCosts) metrics() []namedValue {
	return []namedValue{
		{"workload.ns_per_inst", lc.genNs, "ns"},
		{"trace.decode_ns_per_inst", lc.decodeNs, "ns"},
		{"trace.allocs_per_kinst", lc.decodeAllocsK, "count"},
		{"trace.bytes_per_inst", lc.bytesPerIns, "count"},
		{"trace.open_us", lc.openUs, "us"},
		{"trace.seek_us", lc.seekUs, "us"},
		{"trace.ckpt_load_us_per_point", lc.ckptLoadUs, "us"},
		{"branch.tage_ns_per_branch", lc.tageNs, "ns"},
		{"predictor.dvtage_ns_per_block", lc.dvtageNs, "ns"},
		{"cache.ns_per_access", lc.cacheNs, "ns"},
		{"pipeline.ns_per_inst", lc.pipeNs, "ns"},
		{"pipeline.bebop_extra_ns_per_inst", lc.bebopExtraNs, "ns"},
		{"pipeline.warm_ns_per_inst", lc.warmNs, "ns"},
		{"pipeline.fastforward_ns_per_inst", lc.ffNs, "ns"},
		{"pipeline.reset_us", lc.resetUs, "us"},
		{"pipeline.restore_us", lc.restoreUs, "us"},
		{"pipeline.restore_allocs", lc.restoreAllocs, "count"},
		{"core.checkpoint_build_s", lc.ckptBuildS, "s"},
		{"engine.overhead_us_per_job", lc.engineUs, "us"},
		{"sim.overhead_us", lc.simOverheadUs, "us"},
	}
}

// sliceStream replays pre-decoded instructions, so a pipeline timing
// sees the pipeline and not the generator.
type sliceStream struct {
	insts []isa.Inst
	i     int
}

func (s *sliceStream) Next(in *isa.Inst) bool {
	if s.i >= len(s.insts) {
		return false
	}
	*in = s.insts[s.i]
	s.i++
	return true
}

// timeReps calls prepare then run once untimed, then layerReps more
// times timing only run, and returns the median. prepare may be nil.
func timeReps(prepare, run func()) time.Duration {
	ds := make([]float64, layerReps)
	for i := -1; i < layerReps; i++ {
		if prepare != nil {
			prepare()
		}
		t0 := time.Now()
		run()
		if i >= 0 {
			ds[i] = float64(time.Since(t0))
		}
	}
	return time.Duration(median(ds))
}

// layerAcc sums one layer timing's median time and op count over the profiles.
type layerAcc struct {
	ns, ops float64
}

func (a *layerAcc) add(d time.Duration, ops int) {
	a.ns += float64(d)
	a.ops += float64(ops)
}

func (a layerAcc) per() float64 {
	if a.ops == 0 {
		return 0
	}
	return a.ns / a.ops
}

// streamStats holds one profile's stream, pre-decoded, and the per-layer
// op streams drawn from it.
type streamStats struct {
	insts  []isa.Inst
	brs    []isa.Inst // conditional branches
	accs   []access   // loads and stores
	blocks []vpBlock  // fetch blocks as D-VTAGE sees them
}

func decodeStream(p workload.Profile) streamStats {
	var s streamStats
	g := workload.New(p, layerInsts)
	for in := (isa.Inst{}); g.Next(&in); {
		s.insts = append(s.insts, in)
	}
	for i := range s.insts {
		in := &s.insts[i]
		if in.Kind == isa.BranchCond {
			s.brs = append(s.brs, *in)
		}
		for u := 0; u < in.NumUOps; u++ {
			if c := in.UOps[u].Class; c == isa.ClassLoad || c == isa.ClassStore {
				s.accs = append(s.accs, access{in.PC, in.UOps[u].Addr, c == isa.ClassStore})
			}
		}
	}
	s.blocks = vpBlocks(s.insts, core.MediumConfig().Predictor.NPred)
	return s
}

func measureLayers(ctx context.Context, e *env) (layerCosts, error) {
	var gen, decode, open, seek, load, tage, dvt, mem, pipe, bebop, warm, ff, reset, restore layerAcc
	var decodeAllocs, restoreAllocs, fileBytes, totalInsts, branches, accesses float64
	var build time.Duration
	dir, err := os.MkdirTemp(e.work, "layers-")
	if err != nil {
		return layerCosts{}, err
	}
	defer os.RemoveAll(dir)
	base, bb := core.Baseline(), core.EOLEBeBoP("Medium", core.MediumConfig())

	for _, p := range e.profiles {
		var g *workload.Generator
		gen.add(timeReps(func() { g = workload.New(p, layerInsts) }, func() {
			var in isa.Inst
			for g.Next(&in) {
			}
		}), layerInsts)

		s := decodeStream(p)
		totalInsts += float64(len(s.insts))
		branches += float64(len(s.brs))
		accesses += float64(len(s.accs))
		tage.add(timeReps(nil, driveTAGE(s.brs)), len(s.brs))
		mem.add(timeReps(nil, driveCache(s.accs)), len(s.accs))
		dvt.add(timeReps(nil, driveDVTAGE(s.blocks)), len(s.blocks))

		proc := pipeline.New(base(), &sliceStream{})
		rearm := func(mk core.ConfigFactory) func() {
			return func() { proc.Reset(mk(), &sliceStream{insts: s.insts}) }
		}
		n := len(s.insts)
		pipe.add(timeReps(rearm(base), func() { proc.Run(0) }), n)
		bebop.add(timeReps(rearm(bb), func() { proc.Run(0) }), n)
		warm.add(timeReps(rearm(base), func() { proc.Warm(int64(n)) }), n)
		ff.add(timeReps(rearm(base), func() { proc.FastForward(int64(n)) }), n)
		reset.add(timeReps(nil, func() {
			for i := 0; i < callReps; i++ {
				proc.Reset(base(), &sliceStream{})
			}
		}), callReps)

		path := filepath.Join(dir, p.Name+trace.Ext)
		if err := record(path, p, layerInsts); err != nil {
			return layerCosts{}, err
		}
		if st, err := os.Stat(path); err == nil {
			fileBytes += float64(st.Size())
		}
		var drainErr error
		decode.add(timeReps(nil, func() { drainErr = drainTrace(path) }), layerInsts)
		m0 := mallocs()
		drainTrace(path)
		decodeAllocs += float64(mallocs() - m0)
		open.add(timeReps(nil, func() {
			for i := 0; i < callReps; i++ {
				r, err := trace.OpenFile(path)
				if err != nil {
					drainErr = err
					return
				}
				r.Close()
			}
		}), callReps)
		if drainErr != nil {
			return layerCosts{}, drainErr
		}

		t0 := time.Now()
		points, name, err := core.BuildCheckpoints(trace.NewFileSource(path), base, ckptEvery, layerInsts)
		build += time.Since(t0)
		if err != nil {
			return layerCosts{}, err
		}
		r, err := trace.OpenFile(path)
		if err != nil {
			return layerCosts{}, err
		}
		seek.add(timeReps(nil, func() {
			for _, ck := range points {
				if err := r.SeekInst(ck.InstOffset); err != nil {
					drainErr = err
				}
			}
		}), len(points))
		hdr := r.Header()
		r.Close()
		if drainErr != nil {
			return layerCosts{}, drainErr
		}
		cpath := trace.CheckpointPath(path, name)
		if err := trace.WriteCheckpoints(cpath, &trace.CheckpointFile{
			TraceName: hdr.Name, TraceInsts: int64(hdr.Insts), ConfigName: name, Points: points,
		}); err != nil {
			return layerCosts{}, err
		}
		load.add(timeReps(nil, func() {
			if _, err := trace.LoadCheckpoints(cpath); err != nil {
				drainErr = err
			}
		}), len(points))
		proc.Reset(base(), &sliceStream{})
		restoreAll := func() {
			for _, ck := range points {
				if err := proc.Restore(ck); err != nil {
					drainErr = err
				}
			}
		}
		restore.add(timeReps(nil, restoreAll), len(points))
		m0 = mallocs()
		restoreAll()
		restoreAllocs += float64(mallocs() - m0)
		if drainErr != nil {
			return layerCosts{}, drainErr
		}
	}

	engUs, err := engineOverheadUs(ctx, e.nproc)
	if err != nil {
		return layerCosts{}, err
	}
	simUs, err := simOverheadUs(ctx, e.profiles)
	if err != nil {
		return layerCosts{}, err
	}
	return layerCosts{
		genNs:           gen.per(),
		decodeNs:        decode.per(),
		decodeAllocsK:   decodeAllocs / (decode.ops / 1000),
		bytesPerIns:     fileBytes / totalInsts,
		openUs:          open.per() / 1e3,
		seekUs:          seek.per() / 1e3,
		ckptLoadUs:      load.per() / 1e3,
		ckptBuildS:      build.Seconds(),
		tageNs:          tage.per(),
		branchesPerInst: branches / totalInsts,
		dvtageNs:        dvt.per(),
		cacheNs:         mem.per(),
		accessesPerInst: accesses / totalInsts,
		pipeNs:          pipe.per(),
		bebopExtraNs:    bebop.per() - pipe.per(),
		warmNs:          warm.per(),
		ffNs:            ff.per(),
		resetUs:         reset.per() / 1e3,
		restoreUs:       restore.per() / 1e3,
		restoreAllocs:   restoreAllocs / restore.ops,
		engineUs:        engUs,
		simOverheadUs:   simUs,
	}, nil
}

func drainTrace(path string) error {
	r, err := trace.OpenFile(path)
	if err != nil {
		return err
	}
	defer r.Close()
	var in isa.Inst
	for r.Next(&in) {
	}
	return r.Err()
}

// driveTAGE returns a loop that predicts and trains every conditional
// branch of a stream.
func driveTAGE(brs []isa.Inst) func() {
	h := new(branch.History)
	h.EnableFolds()
	t := branch.NewTAGE(branch.DefaultTAGEConfig())
	t.RegisterFolds(h)
	return func() {
		for i := range brs {
			in := &brs[i]
			p := t.Predict(in.PC, h)
			t.Update(in.PC, h, &p, in.Taken)
			h.Push(in.Taken, in.Target)
		}
	}
}

type access struct {
	pc, addr uint64
	store    bool
}

// driveCache returns a loop that replays a stream's loads and stores
// through the data-side hierarchy, one cycle per access.
func driveCache(accs []access) func() {
	h := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	now := int64(0)
	return func() {
		for _, a := range accs {
			if a.store {
				h.WriteData(a.pc, a.addr, now)
			} else {
				h.ReadData(a.pc, a.addr, now)
			}
			now++
		}
	}
}

// vpBlock is one fetch block's value-producing µ-ops, as D-VTAGE sees
// them: up to NPred slots, attributed by byte offset.
type vpBlock struct {
	pc     uint64
	n      int
	vals   [predictor.MaxNPred]uint64
	tags   [predictor.MaxNPred]uint8
	branch bool
	taken  bool
	target uint64
}

func vpBlocks(insts []isa.Inst, npred int) []vpBlock {
	var out []vpBlock
	for i := range insts {
		in := &insts[i]
		pc := isa.BlockPC(in.PC)
		if len(out) == 0 || out[len(out)-1].pc != pc || out[len(out)-1].branch {
			out = append(out, vpBlock{pc: pc})
		}
		b := &out[len(out)-1]
		for u := 0; u < in.NumUOps && b.n < npred; u++ {
			if mo := &in.UOps[u]; mo.Eligible() {
				b.vals[b.n], b.tags[b.n] = mo.Value, uint8(isa.BlockOffset(in.PC))
				b.n++
			}
		}
		if in.Kind == isa.BranchCond {
			b.branch, b.taken, b.target = true, in.Taken, in.Target
		}
	}
	return out
}

// driveDVTAGE returns a loop that looks up, predicts and trains every
// fetch block on a predictor of the Table III Medium geometry.
func driveDVTAGE(blocks []vpBlock) func() {
	d := predictor.NewDVTAGE(core.MediumConfig().Predictor)
	h := new(branch.History)
	h.EnableFolds()
	d.RegisterFolds(h)
	return func() {
		for i := range blocks {
			b := &blocks[i]
			bl := d.Lookup(b.pc, h)
			u := predictor.UpdateBlock{BlockPC: b.pc, Lookup: bl}
			for s := 0; s < b.n; s++ {
				has := bl.LVTHit && bl.HasLast[s]
				pred, _ := d.PredictSlot(&bl, s, bl.Last[s], has)
				u.Slots[s] = predictor.SlotUpdate{Used: true, Actual: b.vals[s], Predicted: pred, WasPredicted: has, ByteTag: b.tags[s]}
			}
			d.Update(&u)
			if b.branch {
				h.Push(b.taken, b.target)
			}
		}
	}
}

// engineOverheadUs is the engine's cost per job: scheduling, caching and
// result reduction of jobs that do nothing.
func engineOverheadUs(ctx context.Context, workers int) (float64, error) {
	const jobs = 4000
	var eng *engine.Engine[int]
	batch := make([]engine.Job[int], jobs)
	for i := range batch {
		batch[i] = engine.Job[int]{Key: "noop", Bench: fmt.Sprint(i), Run: func(context.Context) (int, error) { return 0, nil }}
	}
	var runErr error
	d := timeReps(func() { eng = engine.New[int](engine.Options{Workers: workers}) }, func() {
		if _, err := eng.RunBatch(ctx, batch); err != nil {
			runErr = err
		}
	})
	return float64(d) / jobs / 1e3, runErr
}

// simOverheadUs is what sim.Run adds to core.RunSourceCtx on the same
// input: spec validation, source and factory resolution, report building.
// Tiny runs keep the simulation itself small next to that overhead, and
// alternating the two calls spreads drift evenly over both.
func simOverheadUs(ctx context.Context, profs []workload.Profile) (float64, error) {
	const insts = 200
	var diffs []float64
	for _, p := range profs {
		p := p
		spec := sim.RunSpec{Profile: &p, Config: "baseline", Insts: insts}
		var viaSim, viaCore []float64
		for i := 0; i < simPairs; i++ {
			t0 := time.Now()
			if _, err := sim.Run(ctx, spec); err != nil {
				return 0, err
			}
			viaSim = append(viaSim, float64(time.Since(t0)))
			t0 = time.Now()
			if _, err := core.RunSourceCtx(ctx, workload.ProfileSource{Prof: p}, insts/2, insts, core.Baseline()); err != nil {
				return 0, err
			}
			viaCore = append(viaCore, float64(time.Since(t0)))
		}
		diffs = append(diffs, median(viaSim)-median(viaCore))
	}
	return median(diffs) / 1e3, nil
}

type share struct {
	layer string
	frac  float64
}

// shares splits a traced phase's CPU time (wall x cpus) by layer: each
// layer's isolated cost per op times the ops the phase gave it. Branch
// and cache work happen inside the pipeline timings, so the
// pipeline row is what remains of those once they are taken out. The
// unattributed row is the remainder (negative when the isolated costs
// overestimate the in-situ ones).
func shares(w workCounts, lc layerCosts, wall time.Duration, cpus int) []share {
	total := float64(wall) * float64(cpus)
	inPipe := w.detailedInsts + w.warmInsts
	br := inPipe * lc.branchesPerInst * lc.tageNs
	mem := inPipe * lc.accessesPerInst * lc.cacheNs
	rows := []share{
		{"workload", w.genInsts * lc.genNs},
		{"trace", w.decodeInsts*lc.decodeNs + 1e3*(w.opens*lc.openUs+w.seeks*lc.seekUs+w.ckptPoints*lc.ckptLoadUs)},
		{"branch", br},
		{"cache", mem},
		{"vp", w.vpInsts * lc.bebopExtraNs},
		{"pipeline", w.detailedInsts*lc.pipeNs + w.warmInsts*lc.warmNs + w.ffInsts*lc.ffNs - br - mem},
		{"reset", 1e3 * w.resets * lc.resetUs},
		{"restore", 1e3 * w.restores * lc.restoreUs},
		{"engine", 1e3 * w.engineJobs * lc.engineUs},
		{"sim", 1e3 * w.simRuns * lc.simOverheadUs},
	}
	left := total
	for i := range rows {
		left -= rows[i].frac
		rows[i].frac /= total
	}
	return append(rows, share{"unattributed", left / total})
}
