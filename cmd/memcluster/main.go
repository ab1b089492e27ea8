// Command memcluster simulates a multi-programmed cluster: N CPU+cache
// systems, each running its own benchmark, sharing a set of DRDRAM
// channels through the deterministic epoch-barrier fabric (see
// internal/cluster and DESIGN.md §15).
//
// Every member system and the shared fabric take one core
// configuration: the paper's base system with the knob flags memsim
// takes (memcluster -h lists them) applied on top. The fabric's
// arbiter has a fixed class priority, so -sched_policy and
// -reorder_window are rejected, and the cluster always interleaves
// channels independently.
//
// Examples:
//
//	memcluster -mix mcf+swim
//	memcluster -mix mix4-paper -channels 2 -baselines
//	memcluster -mix mcf+swim -bank_timing tiered -software_prefetch
//	memcluster -mix swim+swim+swim+swim -parallel -trace-out cluster.trace.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"memsim/internal/cluster"
	"memsim/internal/core"
	"memsim/internal/obs"
	"memsim/internal/sim"
	"memsim/internal/vfs"
	"memsim/internal/workload"
)

func main() {
	knobs := core.KnobFlags(flag.CommandLine)
	var (
		mix       = flag.String("mix", "mix2-mixed", "benchmark mix: a named mix (see -list) or a+b+c")
		list      = flag.Bool("list", false, "list named mixes and exit")
		seed      = flag.Uint64("seed", 0, "base workload seed; system i uses seed+i")
		link      = flag.Duration("link", 0, "system-to-fabric link latency (= epoch width; 0 = 10ns)")
		instrs    = flag.Uint64("instrs", 100_000, "measured instructions per system")
		warmup    = flag.Uint64("warmup", 20_000, "warmup instructions per system")
		parallel  = flag.Bool("parallel", false, "run shards on goroutines (bit-identical to sequential)")
		baselines = flag.Bool("baselines", false, "also run each system alone: slowdown, weighted speedup, fairness")
		timeout   = flag.Duration("timeout", 0, "abort the run after this wall-clock time (0 = none)")
		jsonOut   = flag.String("json", "", "write the full cluster result as JSON")
		traceOut  = flag.String("trace-out", "", "write a multi-system Chrome trace (one process per system)")
	)
	flag.Parse()
	if *list {
		for _, name := range workload.MixNames() {
			benches, _ := workload.ParseMix(name)
			fmt.Printf("%-12s %s\n", name, strings.Join(benches, "+"))
		}
		return
	}

	benches, err := workload.ParseMix(*mix)
	if err != nil {
		fatal(err)
	}
	base := core.Base()
	if err := base.Apply(knobs); err != nil {
		fatal(err)
	}
	cfg := cluster.Config{
		Base:         &base,
		LinkLatency:  sim.Time(link.Nanoseconds()) * sim.Nanosecond,
		MaxInstrs:    *instrs,
		WarmupInstrs: *warmup,
		Parallel:     *parallel,
		Obs:          obs.Config{Trace: *traceOut != ""},
	}
	for i, b := range benches {
		cfg.Systems = append(cfg.Systems, cluster.SystemSpec{Bench: b, Seed: *seed + uint64(i)})
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	run := cluster.Run
	if *baselines {
		run = cluster.RunWithBaselines
	}
	start := time.Now()
	res, err := run(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	report(res, *parallel, *baselines, time.Since(start))

	if *jsonOut != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := vfs.WriteFileAtomic(vfs.OS, *jsonOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		f, err := vfs.OS.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteChromeTraceMulti(f, res.Trace()); err != nil {
			_ = f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

// report prints the per-system interference table and fabric totals.
func report(res cluster.Result, parallel, baselines bool, wall time.Duration) {
	engine := "sequential"
	if parallel {
		engine = "parallel"
	}
	fmt.Printf("cluster        %d systems on %d shared channels (%s engine)\n",
		len(res.Systems), res.Channels, engine)
	header := "system           IPC    L2 miss   occupancy"
	if baselines {
		header += "   IPC alone   slowdown"
	}
	fmt.Println(header)
	for _, s := range res.Systems {
		line := fmt.Sprintf("%-14s %5.3f   %6.1f%%   %8.1f%%",
			s.Label, s.Result.IPC, 100*s.Result.L2MissRate(), 100*s.OccupancyShare)
		if baselines {
			line += fmt.Sprintf("   %9.3f   %8.2fx", s.IPCAlone, s.Slowdown)
		}
		fmt.Println(line)
	}
	fmt.Printf("fabric         data %.1f%% busy, command %.1f%% busy over %v simulated\n",
		100*res.DataUtilization, 100*res.CommandUtilization, res.SimTime)
	fmt.Printf("protocol       %d epochs, %d messages, trace %s\n",
		res.Epochs, res.Messages, res.TraceHash)
	if baselines {
		fmt.Printf("interference   weighted speedup %.3f of %d, fairness %.3f\n",
			res.WeightedSpeedup, len(res.Systems), res.Fairness)
	}
	fmt.Printf("wall clock     %v\n", wall.Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "memcluster:", err)
	os.Exit(1)
}
