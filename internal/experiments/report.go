package experiments

import (
	"fmt"

	"bebop/internal/engine"
	"bebop/internal/util"
)

// experiment is one registry entry: the id a sweep selects, the title of
// its table, and the builder that runs the sweep and lays out the
// table's columns and rows.
type experiment struct {
	id, title string
	build     func(*Runner) (engine.Report, error)
}

// registry lists every experiment in the order `all` runs them. It is
// the only id dispatch: ExperimentIDs and Report both read it, and text,
// JSON and CSV all render the engine.Report it builds.
var registry = []experiment{
	{"table2", "Table II: baseline IPC per workload", table2Report},
	{"fig5a", "Fig. 5(a): predictors over Baseline_6_60", seriesTable((*Runner).Fig5a)},
	{"fig5b", "Fig. 5(b): EOLE_4_60 over Baseline_VP_6_60", seriesTable(func(r *Runner) []Series {
		return []Series{r.Fig5b()}
	})},
	{"fig6a", "Fig. 6(a): predictions per entry (speedup over EOLE_4_60)", summaryTable((*Runner).Fig6a)},
	{"fig6b", "Fig. 6(b): structure sizes (speedup over EOLE_4_60)", summaryTable((*Runner).Fig6b)},
	{"partial", "Partial strides (Section VI-B(a))", strideReport},
	{"fig7a", "Fig. 7(a): recovery policies (speedup over EOLE_4_60)", summaryTable((*Runner).Fig7a)},
	{"fig7b", "Fig. 7(b): speculative window size (speedup over EOLE_4_60)", summaryTable((*Runner).Fig7b)},
	{"table3", "Table III: final predictor configurations", table3Report},
	{"fig8", "Fig. 8: final configurations over Baseline_6_60", seriesTable((*Runner).Fig8)},
	{"ablation", "Ablation: predictor lineages over Baseline_6_60", summaryTable((*Runner).Ablations)},
	{"probe", "Probe cliff curves: accuracy vs geometry pressure", probeReport},
}

// ExperimentIDs lists the sweep identifiers usable with cmd/bebop-sweep,
// in registry order.
func ExperimentIDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// Report runs the named experiment and returns its table. A scheduling
// failure (e.g. context cancellation) yields an error, never a partial
// table.
func (r *Runner) Report(id string) (engine.Report, error) {
	for _, e := range registry {
		if e.id != id {
			continue
		}
		rep, err := e.build(r)
		if err != nil {
			return engine.Report{}, err
		}
		if r.err != nil {
			return engine.Report{}, r.err
		}
		rep.ID, rep.Title = e.id, e.title
		return rep, nil
	}
	return engine.Report{}, fmt.Errorf("experiments: %w", util.UnknownName("experiment", id, ExperimentIDs()))
}

// Reports runs several experiments and collects their reports.
func (r *Runner) Reports(ids []string) ([]engine.Report, error) {
	out := make([]engine.Report, 0, len(ids))
	for _, id := range ids {
		rep, err := r.Report(id)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}

func table2Report(r *Runner) (engine.Report, error) {
	rep := engine.Report{Columns: []string{"suite", "type", "ipc", "paper_ipc"}}
	for _, b := range r.Table2() {
		typ := "FP"
		if b.INT {
			typ = "INT"
		}
		rep.Rows = append(rep.Rows, engine.Row{Label: b.Bench, Cells: []any{
			engine.Str(b.Suite), engine.Str(typ), engine.Num(b.IPC), engine.Num(b.PaperIPC),
		}})
	}
	return rep, nil
}

// seriesTable lays series out like Fig. 5/8: one row per benchmark, one
// column per series, plus a final gmean row.
func seriesTable(run func(*Runner) []Series) func(*Runner) (engine.Report, error) {
	return func(r *Runner) (engine.Report, error) {
		series := run(r)
		var rep engine.Report
		for _, s := range series {
			rep.Columns = append(rep.Columns, s.Name)
		}
		if len(series) == 0 {
			return rep, nil
		}
		for i, b := range series[0].Bench {
			row := engine.Row{Label: b}
			for _, s := range series {
				v := 0.0
				if i < len(s.Speedup) {
					v = s.Speedup[i]
				}
				row.Cells = append(row.Cells, engine.Num(v))
			}
			rep.Rows = append(rep.Rows, row)
		}
		gm := engine.Row{Label: "gmean"}
		for _, s := range series {
			gm.Cells = append(gm.Cells, engine.Num(s.Summary.GMean))
		}
		rep.Rows = append(rep.Rows, gm)
		return rep, nil
	}
}

// summaryTable lays series out like Fig. 6/7: one row per configuration
// with its box-plot summary.
func summaryTable(run func(*Runner) []Series) func(*Runner) (engine.Report, error) {
	return func(r *Runner) (engine.Report, error) {
		rep := engine.Report{Columns: []string{"min", "q1", "median", "q3", "max", "gmean"}}
		for _, s := range run(r) {
			rep.Rows = append(rep.Rows, engine.Row{Label: s.Name, Cells: []any{
				engine.Num(s.Summary.Min), engine.Num(s.Summary.Q1), engine.Num(s.Summary.Median),
				engine.Num(s.Summary.Q3), engine.Num(s.Summary.Max), engine.Num(s.Summary.GMean),
			}})
		}
		return rep, nil
	}
}

func strideReport(r *Runner) (engine.Report, error) {
	rep := engine.Report{Columns: []string{"gmean", "min", "size_kb"}}
	for _, sr := range r.PartialStrides() {
		rep.Rows = append(rep.Rows, engine.Row{Label: fmt.Sprintf("%d-bit", sr.Bits), Cells: []any{
			engine.Num(sr.Series.Summary.GMean), engine.Num(sr.Series.Summary.Min), engine.Num(sr.StorageKB),
		}})
	}
	return rep, nil
}

func table3Report(*Runner) (engine.Report, error) {
	rep := engine.Report{Columns: []string{"npred", "base_entries", "specwin", "stride_bits", "kb", "paper_kb"}}
	for _, r := range Table3() {
		rep.Rows = append(rep.Rows, engine.Row{Label: r.Name, Cells: []any{
			engine.Int(r.NPred), engine.Int(r.BaseEnts), engine.Int(r.WinSize),
			engine.Int(r.StrideBit), engine.Num(r.KB), engine.Num(r.PaperKB),
		}})
	}
	return rep, nil
}
