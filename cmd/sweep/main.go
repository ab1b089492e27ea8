// Command sweep runs one benchmark across a sweep of one configuration
// knob (-param: any knob flag, as memsim -h lists them) and emits CSV.
//
//	sweep -bench swim -param l2_block_bytes -values 64,128,256,512,1024
//	sweep -bench mcf -param channels -values 1,2,4,8 -prefetch
//	sweep -bench applu -param l2_size_bytes -values 1MB,2MB,4MB,8MB,16MB
//	sweep -bench facerec -param region -values 1024,2048,4096,8192
//	sweep -bench swim -prefetch_scheme stream -param lookahead -values 2,4,8
//
// Columns: param value, IPC, L2 miss rate, mean miss latency (cycles),
// command and data utilization, prefetch accuracy, and a status column
// ("ok", or "FAILED: reason" for points lost under -keep-going).
//
// Long sweeps get the same resilience as cmd/experiments:
// -timeout-per-run and -retries bound and re-attempt wedged points,
// -keep-going emits a FAILED row instead of aborting the sweep, and
// -checkpoint/-resume skip points an earlier (possibly interrupted)
// sweep already finished. Rows already written are always flushed
// before exit, even when a point fails mid-sweep.
//
// Exit status: 0 complete, 1 failed, 3 degraded (-keep-going lost
// points), 130 interrupted.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"memsim"
	"memsim/internal/core"
	"memsim/internal/experiments"
	"memsim/internal/sim"
)

const (
	exitOK          = 0
	exitFailed      = 1
	exitDegraded    = 3
	exitInterrupted = 130
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	w := csv.NewWriter(os.Stdout)
	code, err := sweep(ctx, w)
	// Flush unconditionally: rows simulated before a mid-sweep failure
	// must reach the output, error or not.
	w.Flush()
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
	}
	if werr := w.Error(); werr != nil {
		fmt.Fprintln(os.Stderr, "sweep:", werr)
		if code == exitOK {
			code = exitFailed
		}
	}
	os.Exit(code)
}

func sweep(ctx context.Context, w *csv.Writer) (int, error) {
	knobs := core.KnobFlags(flag.CommandLine)
	var (
		bench  = flag.String("bench", "swim", "benchmark profile")
		param  = flag.String("param", "l2_block_bytes", "swept configuration knob (any knob flag's name)")
		values = flag.String("values", "64,128,256,512", "comma-separated values")
		instrs = flag.Uint64("instrs", 300_000, "measured instructions")
		warmup = flag.Uint64("warmup", 1_200_000, "warmup instructions")
		seed   = flag.Uint64("seed", 0, "workload sample seed")

		timeout = flag.Duration("timeout-per-run", 0,
			"wall-clock budget per point; overruns abort and may retry (0 = none)")
		retries = flag.Int("retries", 0,
			"extra attempts for watchdog- or timeout-aborted points")
		keepGoing = flag.Bool("keep-going", false,
			"emit a FAILED row for lost points instead of aborting the sweep")
		checkpoint = flag.String("checkpoint", "",
			"manifest file recording every completed point")
		resume = flag.Bool("resume", false,
			"load the -checkpoint manifest and skip points it already holds")
	)
	flag.Parse()

	var manifest *experiments.Manifest
	switch {
	case *resume && *checkpoint == "":
		return exitFailed, fmt.Errorf("-resume requires -checkpoint")
	case *resume:
		m, err := experiments.LoadManifest(*checkpoint)
		if err != nil {
			return exitFailed, err
		}
		manifest = m
	case *checkpoint != "":
		manifest = experiments.NewManifest(*checkpoint)
	}
	// The orchestrator owns the per-point deadline, retries and checkpoint.
	runner, err := experiments.NewRunner(experiments.Options{
		Instrs: *instrs, Warmup: *warmup, Benchmarks: []string{*bench}, Seed: *seed,
		Context: ctx, TimeoutPerRun: *timeout, Retries: *retries, Checkpoint: manifest,
	})
	if err != nil {
		return exitFailed, err
	}

	if err := w.Write([]string{*param, "ipc", "l2_miss_rate", "miss_latency_cycles",
		"cmd_util", "data_util", "pf_accuracy", "status"}); err != nil {
		return exitFailed, err
	}

	degraded := false
	for _, raw := range strings.Split(*values, ",") {
		v := strings.TrimSpace(raw)
		knobs[*param] = v
		cfg := memsim.BaseConfig()
		if err := cfg.Apply(knobs); err != nil {
			return exitFailed, fmt.Errorf("%s=%s: %w", *param, v, err)
		}
		results, err := runner.RunBenches(cfg, cfg.SoftwarePrefetch)
		if err != nil {
			if serr := saveManifest(manifest); serr != nil {
				fmt.Fprintln(os.Stderr, "sweep: checkpoint save failed:", serr)
			}
			if ctx.Err() != nil {
				return exitInterrupted, fmt.Errorf("interrupted at %s=%s: %w", *param, v, context.Cause(ctx))
			}
			pointErr := fmt.Errorf("%s=%s: %w", *param, v, err)
			if !*keepGoing {
				return exitFailed, pointErr
			}
			degraded = true
			fmt.Fprintln(os.Stderr, "sweep:", pointErr, "(continuing)")
			if werr := w.Write([]string{v, "", "", "", "", "", "",
				"FAILED: " + firstLine(err)}); werr != nil {
				return exitFailed, werr
			}
			w.Flush()
			continue
		}
		res, clock := results[0], sim.NewClock(cfg.ClockHz)
		rec := []string{
			v,
			fmt.Sprintf("%.4f", res.IPC),
			fmt.Sprintf("%.4f", res.L2MissRate()),
			fmt.Sprintf("%.1f", res.MeanMissLatencyCycles(clock)),
			fmt.Sprintf("%.4f", res.CommandUtilization()),
			fmt.Sprintf("%.4f", res.DataUtilization()),
			fmt.Sprintf("%.4f", res.PrefetchAccuracy()),
			"ok",
		}
		if err := w.Write(rec); err != nil {
			return exitFailed, err
		}
		w.Flush()
	}
	if err := saveManifest(manifest); err != nil {
		return exitFailed, err
	}
	if degraded {
		return exitDegraded, nil
	}
	return exitOK, nil
}

// saveManifest flushes the checkpoint so even an aborted sweep leaves
// a resumable record.
func saveManifest(m *experiments.Manifest) error {
	if m == nil {
		return nil
	}
	return m.Save()
}

// firstLine compresses an error (watchdog aborts carry state dumps) to
// its headline for the CSV status cell.
func firstLine(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}
