package integration

import (
	"testing"

	"bebop/internal/pipeline"
	"bebop/internal/workload"
)

// TestIncrementalFoldsBitIdentical is the behavior pin for the folded
// history register refactor: for every Table II profile and every pinned
// perf configuration (the plain baseline and the full BeBoP EOLE stack),
// a run served by the incremental folded registers must produce exactly
// the same pipeline.Result as a run forced onto the from-scratch
// reference fold path — the pre-refactor implementation, kept alive by
// Config.DisableIncrementalFolds. Bit-identical means everything:
// cycles, IPC, branch and value prediction statistics, cache misses.
func TestIncrementalFoldsBitIdentical(t *testing.T) {
	const insts = 6000
	for _, cfg := range pinnedConfigs() {
		cfg := cfg
		for _, prof := range workload.Profiles() {
			prof := prof
			t.Run(cfg.Name+"/"+prof.Name, func(t *testing.T) {
				t.Parallel()
				run := func(disable bool) pipeline.Result {
					c := cfg.Mk()
					c.DisableIncrementalFolds = disable
					p := pipeline.New(c, workload.New(prof, insts+insts/2))
					return p.RunWarm(insts/2, 0)
				}
				fast, ref := run(false), run(true)
				if fast != ref {
					t.Fatalf("incremental folds diverge from reference path:\nfast: %+v\nref:  %+v", fast, ref)
				}
			})
		}
	}
}
