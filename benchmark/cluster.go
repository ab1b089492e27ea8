package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"memsim/internal/cluster"
	"memsim/internal/core"
	"memsim/internal/obs"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

// clusterWorkload runs a named mix of systems sharing the fabric
// through cluster.Run on memcluster's default (sequential) engine.
type clusterWorkload struct {
	mix            string
	warmup, instrs uint64
}

var clusterMix = clusterWorkload{mix: "mix4-paper", warmup: 25_000, instrs: 100_000}

func (w clusterWorkload) config(seed uint64) (cluster.Config, error) {
	benches, err := workload.ParseMix(w.mix)
	if err != nil {
		return cluster.Config{}, err
	}
	cfg := cluster.Config{MaxInstrs: w.instrs, WarmupInstrs: w.warmup}
	for i, b := range benches {
		cfg.Systems = append(cfg.Systems, cluster.SystemSpec{Bench: b, Seed: seed + uint64(i)})
	}
	return cfg, nil
}

func (w clusterWorkload) run(seed uint64, b budget, spans *spanLog) (*outcome, error) {
	cfg, err := w.config(seed)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	ctx := context.Background()
	// cluster.Run builds and runs in one call, so set-up is timed as a
	// run of one measured instruction per system: building every member
	// system and the shared fabric dominates it.
	probe := cfg
	probe.MaxInstrs, probe.WarmupInstrs = 1, 0
	traced := spans != nil
	if err := o.timeSetup(traced, func() error {
		_, err := cluster.Run(ctx, probe)
		return err
	}); err != nil {
		return nil, err
	}

	if traced {
		// Per-system metrics carry the scheduler's event count; they
		// are observation only and leave the result unchanged.
		cfg.Obs = obs.Config{Metrics: true}
	}
	// The warm-up counts against the phase's seconds.
	start := time.Now()
	if err := warmUp(traced, func() error {
		_, err := cluster.Run(ctx, cfg)
		return err
	}); err != nil {
		return nil, err
	}
	nsys := float64(len(cfg.Systems))
	perRep := nsys * float64(w.warmup+w.instrs)
	var (
		rates, jobs []float64
		want        string
		res         cluster.Result
		runCPU      time.Duration
	)
	for i := 0; b.more(i, time.Since(start)); i++ {
		o.attempted++
		t0, c0 := time.Now(), cpuTime()
		r, err := cluster.Run(ctx, cfg)
		t1, c1 := time.Now(), cpuTime()
		spans.add("cluster.run", strconv.Itoa(i), "", t0, t1)
		if err != nil {
			o.fail("cluster repetition %d: %v", i, err)
			continue
		}
		if want == "" {
			want, res = r.TraceHash, r
		}
		if r.TraceHash != want {
			o.fail("cluster repetition %d: trace hash %s, want %s", i, r.TraceHash, want)
			continue
		}
		if bad := shortSystems(r, w.instrs, core.Base()); bad != "" {
			o.fail("cluster repetition %d: %s", i, bad)
			continue
		}
		o.reps++
		o.work += t1.Sub(t0)
		o.instrs += perRep
		rates = append(rates, perRep/(c1-c0).Seconds())
		jobs = append(jobs, ms(c1-c0))
		runCPU += c1 - c0
	}
	if o.reps == 0 {
		return nil, fmt.Errorf("cluster: every repetition failed")
	}

	var ipc, grants, queueWait float64
	members := make([]core.Result, len(res.Systems))
	maxQueue := 0
	for i, s := range res.Systems {
		ipc += s.Result.IPC
		members[i] = s.Result
		grants += float64(s.Share.Total())
		queueWait += float64(s.Share.QueueWait)
		maxQueue = max(maxQueue, s.Share.MaxQueue)
	}
	waitNS := ratio(queueWait, grants) / float64(sim.Nanosecond)
	o.witness = want
	o.jobs, o.jobSeconds = jobs, runCPU.Seconds()
	e := o.endToEnd
	e["instrs_per_s"] = median(rates)
	e["ipc"] = ipc / nsys
	// The fabric records no per-request latency, so this slot carries
	// the contention part of it: arbiter queue wait per granted access.
	e["demand_latency_ns"] = waitNS

	m := o.layer
	simulatedLayers(m, members)
	// Member records carry no channel or controller state; the fabric does.
	m["memctrl.queue_wait_ns"] = waitNS
	m["memctrl.max_demand_queue"] = float64(maxQueue)
	channelLayer(m, res.Channel, res.SimTime*sim.Time(res.Channels))
	measured := nsys * float64(w.instrs)
	m["cluster.epochs_per_kinstr"] = ratio(float64(res.Epochs)*1000, perRep)
	m["cluster.messages_per_kinstr"] = ratio(float64(res.Messages)*1000, perRep)
	m["cluster.ns_per_epoch"] = ratio(float64(runCPU)/float64(o.reps), float64(res.Epochs))
	m["cluster.arbiter_queue_wait_ns"] = waitNS
	m["cluster.fabric_data_util"] = res.DataUtilization
	if traced {
		var events float64
		for _, s := range res.Systems {
			events += s.Metrics["memsim_sim_events_total"]
		}
		// Metric deltas cover the measured window only.
		m["sim.events_per_instr"] = ratio(events, measured)
		m["sim.ns_per_event"] = ratio(float64(runCPU), float64(o.reps)*events*perRep/measured)
	}
	return o, nil
}

// offline times the generators, and one sequential and one parallel
// run of the same config: cluster.parallel_speedup is sequential wall
// time over parallel wall time, and both runs must agree on the trace
// hash.
func (w clusterWorkload) offline(seed uint64) (map[string]float64, error) {
	cfg, err := w.config(seed)
	if err != nil {
		return nil, err
	}
	var specs []genSpec
	for _, s := range cfg.Systems {
		specs = append(specs, genSpec{s.Bench, s.Seed, w.warmup + w.instrs})
	}
	gen, err := drainGenerators(specs)
	if err != nil {
		return nil, err
	}
	var took [2]time.Duration
	var hash [2]string
	for i, parallel := range []bool{false, true} {
		cfg.Parallel = parallel
		start := time.Now()
		r, err := cluster.Run(context.Background(), cfg)
		took[i] = time.Since(start)
		if err != nil {
			return nil, err
		}
		hash[i] = r.TraceHash
	}
	if hash[0] != hash[1] {
		return nil, fmt.Errorf("cluster: parallel trace hash %s, sequential %s", hash[1], hash[0])
	}
	return map[string]float64{
		"workload.gen_ns_per_op":   gen,
		"cluster.parallel_speedup": float64(took[0]) / float64(took[1]),
	}, nil
}

// shortSystems reports a member whose measured window missed its
// budget (see fullWindow); members run core.Base's core.
func shortSystems(r cluster.Result, instrs uint64, cfg core.Config) string {
	for _, s := range r.Systems {
		if !fullWindow(s.Result.Instrs, instrs, cfg) {
			return fmt.Sprintf("%s measured %d of %d instructions", s.Label, s.Result.Instrs, instrs)
		}
	}
	return ""
}
