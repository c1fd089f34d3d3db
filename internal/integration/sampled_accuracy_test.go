package integration

import (
	"context"
	"math"
	"testing"

	"bebop/internal/core"
)

// TestSampledAccuracyWithinCI is the accuracy gate for sampled
// simulation: for both pinned configurations on gcc and mcf, the
// sampled IPC estimate must lie within its own reported 95% confidence
// interval of the full-detail IPC over the same measured region. The
// whole stack is deterministic, so this is a fixed property of the
// chosen sampling parameters, not a statistical coin flip.
func TestSampledAccuracyWithinCI(t *testing.T) {
	if testing.Short() {
		t.Skip("full-detail reference runs are slow")
	}
	const warmup, insts = 200_000, 800_000
	sp := core.SamplingParams{
		Intervals:     20,
		IntervalInsts: 8_000,
		WarmupInsts:   60_000,
		DetailWarmup:  2_000,
	}
	for _, cfg := range pinnedConfigs() {
		cfg := cfg
		for _, bench := range []string{"gcc", "mcf"} {
			bench := bench
			t.Run(cfg.Name+"/"+bench, func(t *testing.T) {
				t.Parallel()
				src := recordTestTrace(t, t.TempDir(), bench, warmup+insts)
				full, err := core.RunSourceCtx(context.Background(), src, warmup, insts, cfg.Mk)
				if err != nil {
					t.Fatalf("full-detail run: %v", err)
				}
				_, st, err := core.RunSampled(context.Background(), src, warmup, insts, cfg.Mk, sp)
				if err != nil {
					t.Fatalf("sampled run: %v", err)
				}
				if st.IPCCI95 <= 0 {
					t.Fatalf("degenerate confidence interval %v", st.IPCCI95)
				}
				if diff := math.Abs(st.IPCMean - full.IPC); diff > st.IPCCI95 {
					t.Errorf("sampled IPC %.4f ± %.4f misses full-detail IPC %.4f (error %.4f)",
						st.IPCMean, st.IPCCI95, full.IPC, diff)
				}
			})
		}
	}
}
