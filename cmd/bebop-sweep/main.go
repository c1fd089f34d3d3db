// Command bebop-sweep regenerates the paper's tables and figures: for each
// experiment id it runs the corresponding configuration sweep over the
// Table II workload suite and prints the same rows/series the paper
// reports. It drives the bebop/sim Sweeper, so baselines shared between
// experiments simulate exactly once per invocation; the sweep can also be
// described declaratively with -spec, the same JSON `POST /v1/sweeps`
// on bebop-serve consumes.
//
// Usage:
//
//	bebop-sweep -exp fig8 -n 100000
//	bebop-sweep -exp all -p 8
//	bebop-sweep -exp fig7b -w swim,applu,bzip2 -n 500000
//	bebop-sweep -exp fig8 -format json
//	bebop-sweep -spec sweep.json -format csv -progress
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"time"

	"bebop/internal/cli"
	"bebop/sim"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: "+strings.Join(sim.Experiments(), ", ")+", or 'all'")
	n := flag.Int64("n", 100_000, "dynamic instructions per workload")
	w := flag.String("w", "", "comma-separated workload subset (default: the whole catalog)")
	traceDir := flag.String("trace-dir", "", "directory of .bbt traces to add as named workloads")
	par := flag.Int("p", 0, "max parallel simulations (0 = GOMAXPROCS)")
	format := flag.String("format", "text", "output format: "+strings.Join(sim.Formats(), ", "))
	specPath := flag.String("spec", "", "run this JSON SweepSpec file (replaces -exp/-w/-n/-trace-dir)")
	timeout := flag.Duration("timeout", 0, "stop scheduling new simulations after this duration; in-flight ones finish (0 = none)")
	progress := flag.Bool("progress", false, "stream per-simulation progress to stderr")
	telemetryFlag := flag.Bool("telemetry", false, "print a process metrics snapshot to stderr after the sweep")
	logFormat := cli.AddLogFormat(flag.CommandLine)
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(sim.Version())
		return
	}
	if err := cli.InitLogging(*logFormat); err != nil {
		fatal(err)
	}

	spec := sim.SweepSpec{Insts: *n, TraceDir: *traceDir}
	if *specPath != "" {
		var conflicting []string
		selection := map[string]bool{"exp": true, "w": true, "n": true, "trace-dir": true}
		flag.Visit(func(f *flag.Flag) {
			if selection[f.Name] {
				conflicting = append(conflicting, "-"+f.Name)
			}
		})
		if len(conflicting) > 0 {
			fatal(fmt.Errorf("-spec is a complete sweep description; drop %s (edit the spec file instead)",
				strings.Join(conflicting, ", ")))
		}
		var err error
		if spec, err = sim.LoadSweepSpec(*specPath); err != nil {
			fatal(err)
		}
	} else {
		spec.Experiments = strings.Split(*exp, ",")
		if *w != "" {
			spec.Workloads = strings.Split(*w, ",")
		}
	}

	opts := sim.SweepOptions{
		Insts:    spec.Insts,
		TraceDir: spec.TraceDir,
		Parallel: *par,
	}
	if *progress {
		opts.Progress = func(p sim.Progress) {
			if p.Cached || p.Err != nil {
				return
			}
			slog.Info("simulated", "completed", p.Completed, "total", p.Total,
				"config", p.Config, "workload", p.Workload,
				"elapsed", p.Elapsed.Round(time.Millisecond))
		}
	}
	sw, err := sim.NewSweeper(opts)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// After the first interrupt starts a graceful stop, restore default
	// signal handling so a second Ctrl-C kills the process immediately
	// instead of waiting out an in-flight simulation.
	go func() {
		<-ctx.Done()
		stop()
	}()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Text output streams experiment by experiment (a long -exp all run
	// shows results as they complete), a blank line between tables; JSON
	// and CSV emit one document.
	if *format == "text" {
		norm, err := spec.Validate()
		if err != nil {
			fatal(err)
		}
		for i, id := range norm.Experiments {
			var buf bytes.Buffer
			if i > 0 {
				buf.WriteByte('\n')
			}
			sub := norm
			sub.Experiments = []string{id}
			if err := sw.Write(ctx, &buf, "text", sub); err != nil {
				fatal(err)
			}
			if _, err := os.Stdout.Write(buf.Bytes()); err != nil {
				fatal(err)
			}
		}
		writeTelemetry(*telemetryFlag)
		return
	}
	if err := sw.Write(ctx, os.Stdout, *format, spec); err != nil {
		fatal(err)
	}
	writeTelemetry(*telemetryFlag)
}

// writeTelemetry dumps the process metrics registry to stderr after the
// sweep: pipeline totals, engine cache hit rates and worker activity
// accumulated over every simulation the sweep ran.
func writeTelemetry(enabled bool) {
	if !enabled {
		return
	}
	fmt.Fprintln(os.Stderr, "metrics snapshot:")
	if err := sim.WriteMetrics(os.Stderr); err != nil {
		fatal(err)
	}
}

func fatal(err error) { cli.Fatal(err) }
