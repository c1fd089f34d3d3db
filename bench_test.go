// Package bebop_bench holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (Section VI). One benchmark
// per artefact; each reports the paper's headline metric (geometric-mean
// speedup, per-config summaries) as testing.B custom metrics, and prints
// the full series under -v.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The default instruction budget keeps a full run laptop-scale; set
// BEBOP_BENCH_INSTS to raise it (the sweeps in EXPERIMENTS.md use the
// default so they are reproducible as-is).
package bebop_bench

import (
	"context"
	"os"
	"strconv"
	"strings"
	"testing"

	"bebop/internal/core"
	"bebop/internal/experiments"
	"bebop/internal/workload"
)

// benchOpts picks the instruction budget and workload subset for benches.
func benchOpts() experiments.Options {
	insts := int64(60_000)
	if s := os.Getenv("BEBOP_BENCH_INSTS"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v > 0 {
			insts = v
		}
	}
	var names []string
	if os.Getenv("BEBOP_BENCH_FULL") == "" {
		// A 12-benchmark core spanning the predictability spectrum keeps
		// `go test -bench=.` under a few minutes; set BEBOP_BENCH_FULL=1
		// for the whole Table II suite.
		names = []string{
			"swim", "applu", "wupwise", "bzip2", "gcc", "mcf",
			"xalancbmk", "milc", "hmmer", "povray", "twolf", "GemsFDTD",
		}
	}
	return experiments.Options{Insts: insts, Workloads: names}
}

// BenchmarkTable2BaselineIPC regenerates Table II: baseline IPC per
// workload; reports the mean measured IPC.
func BenchmarkTable2BaselineIPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOpts())
		rows := r.Table2()
		sum := 0.0
		for _, row := range rows {
			sum += row.IPC
		}
		b.ReportMetric(sum/float64(len(rows)), "meanIPC")
		if b.N == 1 && testing.Verbose() {
			experiments.RenderTable2(os.Stdout, rows)
		}
	}
}

// BenchmarkFig5aPredictors regenerates Fig. 5(a): 2d-Stride, VTAGE,
// VTAGE-2d-Stride and D-VTAGE speedups over Baseline_6_60.
func BenchmarkFig5aPredictors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOpts())
		series := r.Fig5a()
		for _, s := range series {
			b.ReportMetric(s.Summary.GMean, metric("gmean-", s.Name))
		}
		if b.N == 1 && testing.Verbose() {
			experiments.RenderSeriesTable(os.Stdout, "Fig 5(a)", series)
		}
	}
}

// BenchmarkFig5bEOLE regenerates Fig. 5(b): EOLE_4_60 over
// Baseline_VP_6_60 (the issue-width reduction should be near-free).
func BenchmarkFig5bEOLE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOpts())
		s := r.Fig5b()
		b.ReportMetric(s.Summary.GMean, "gmean")
		b.ReportMetric(s.Summary.Min, "min")
	}
}

// BenchmarkFig6aNpred regenerates Fig. 6(a): predictions per entry.
func BenchmarkFig6aNpred(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOpts())
		series := r.Fig6a()
		for _, s := range series {
			b.ReportMetric(s.Summary.GMean, metric("gmean-", s.Name))
		}
		if b.N == 1 && testing.Verbose() {
			experiments.RenderSummaries(os.Stdout, "Fig 6(a)", series)
		}
	}
}

// BenchmarkFig6bSizes regenerates Fig. 6(b): structure size sweep.
func BenchmarkFig6bSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOpts())
		series := r.Fig6b()
		for _, s := range series {
			b.ReportMetric(s.Summary.GMean, metric("gmean-", s.Name))
		}
	}
}

// BenchmarkPartialStrides regenerates the Section VI-B(a) partial stride
// study: 64/32/16/8-bit strides at near-constant performance.
func BenchmarkPartialStrides(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOpts())
		rows := r.PartialStrides()
		for _, row := range rows {
			b.ReportMetric(row.Series.Summary.GMean, metric("gmean-", row.Series.Name))
			b.ReportMetric(row.StorageKB, metric("KB-", row.Series.Name))
		}
		if b.N == 1 && testing.Verbose() {
			experiments.RenderStrides(os.Stdout, rows)
		}
	}
}

// BenchmarkFig7aRecovery regenerates Fig. 7(a): recovery policies.
func BenchmarkFig7aRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOpts())
		series := r.Fig7a()
		for _, s := range series {
			b.ReportMetric(s.Summary.GMean, metric("gmean-", s.Name))
		}
	}
}

// BenchmarkFig7bWindow regenerates Fig. 7(b): speculative window sizes.
func BenchmarkFig7bWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOpts())
		series := r.Fig7b()
		for _, s := range series {
			b.ReportMetric(s.Summary.GMean, metric("gmean-", s.Name))
		}
		if b.N == 1 && testing.Verbose() {
			experiments.RenderSummaries(os.Stdout, "Fig 7(b)", series)
		}
	}
}

// BenchmarkFig8Final regenerates Fig. 8: the Table III configurations over
// Baseline_6_60 — the paper's headline result (Medium ~32KB keeps most of
// the idealistic speedup).
func BenchmarkFig8Final(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOpts())
		series := r.Fig8()
		for _, s := range series {
			b.ReportMetric(s.Summary.GMean, metric("gmean-", s.Name))
		}
		if b.N == 1 && testing.Verbose() {
			experiments.RenderSeriesTable(os.Stdout, "Fig 8", series)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (µ-ops
// simulated per wall second) — the cost of one Baseline_6_60 run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prof, _ := workload.ProfileByName("gcc")
	src := workload.ProfileSource{Prof: prof}
	b.ResetTimer()
	totalUOps := uint64(0)
	for i := 0; i < b.N; i++ {
		res, err := core.RunSourceCtx(context.Background(), src, 25_000, 50_000, core.Baseline())
		if err != nil {
			b.Fatal(err)
		}
		totalUOps += res.UOps
	}
	b.ReportMetric(float64(totalUOps)/b.Elapsed().Seconds(), "µops/s")
}

// BenchmarkSimulatorThroughputBeBoP measures the fully loaded hot path —
// EOLE pipeline plus the block-based BeBoP infrastructure — so predictor-
// side allocation or speed regressions are visible next to the baseline
// number.
func BenchmarkSimulatorThroughputBeBoP(b *testing.B) {
	prof, _ := workload.ProfileByName("gcc")
	src := workload.ProfileSource{Prof: prof}
	mk := core.EOLEBeBoP("Medium", core.MediumConfig())
	b.ResetTimer()
	totalUOps := uint64(0)
	for i := 0; i < b.N; i++ {
		res, err := core.RunSourceCtx(context.Background(), src, 25_000, 50_000, mk)
		if err != nil {
			b.Fatal(err)
		}
		totalUOps += res.UOps
	}
	b.ReportMetric(float64(totalUOps)/b.Elapsed().Seconds(), "µops/s")
}

// metric builds a ReportMetric unit from a series label (units must not
// contain whitespace).
func metric(prefix, name string) string {
	r := strings.NewReplacer(" ", "", "+", "_", "/", "-")
	return prefix + r.Replace(name)
}

// BenchmarkAblationLineages compares the predictor lineages of Section
// VII: {LVP, Stride, FCM, VTAGE, D-FCM, D-VTAGE} on Baseline_VP_6_60.
func BenchmarkAblationLineages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOpts())
		for _, s := range r.Ablations() {
			b.ReportMetric(s.Summary.GMean, metric("gmean-", s.Name))
		}
	}
}
