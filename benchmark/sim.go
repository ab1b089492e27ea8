package main

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"memsim"
	"memsim/internal/channel"
	"memsim/internal/core"
	"memsim/internal/sim"
)

// simWorkload runs one benchmark profile on the tuned system,
// repeatedly, through the public facade: memsim.NewSystem then
// System.Run, the way cmd/memsim drives it.
type simWorkload struct {
	bench          string
	warmup, instrs uint64
	// seeds is how many workload seeds a run cycles through (see
	// workloadSeed), repetition i running the (i%seeds)-th; ipc and
	// demand_latency_ns are the median over the seeds, and the
	// per-layer simulated metrics pool them.
	seeds int
}

// Both sim workloads use cmd/memsim's default windows, so the measured
// window is the steady state the repo's own runs report.
var (
	// simChase is mcf: pointer chasing, nearly every L2 access misses,
	// the demand queue runs deep and writebacks compete with reads. Its
	// simulated metrics vary by under 1% between seeds.
	simChase = simWorkload{bench: "mcf", warmup: 1_500_000, instrs: 500_000, seeds: 1}
	// simStream is swim: streaming, the prefetcher covers almost every
	// miss and the demand path in the controller is nearly idle. About
	// one seed in seven reaches a slower stream phase inside this window
	// (IPC ~1.6 against ~1.9, four times the demand misses), so one
	// seed's demand latency varied by up to 15% between ten-seed sets;
	// the median of 16 seeds varied by about 2%.
	simStream = simWorkload{bench: "swim", warmup: 1_500_000, instrs: 500_000, seeds: 16}
)

func (w simWorkload) config() memsim.Config {
	cfg := memsim.TunedConfig()
	cfg.WarmupInstrs = w.warmup
	cfg.MaxInstrs = w.instrs
	return cfg
}

// workloadSeed is the k-th workload seed of a run on seed.
func (w simWorkload) workloadSeed(seed uint64, k int) uint64 {
	return seed*uint64(w.seeds) + uint64(k)
}

func (w simWorkload) newSystem(seed uint64) (*memsim.System, error) {
	cfg := w.config()
	gen, err := memsim.Workload(w.bench, seed, cfg.SoftwarePrefetch)
	if err != nil {
		return nil, err
	}
	return memsim.NewSystem(cfg, gen)
}

func (w simWorkload) run(seed uint64, b budget, spans *spanLog) (*outcome, error) {
	o := newOutcome()
	if err := o.timeSetup(spans != nil, func() error {
		_, err := w.newSystem(w.workloadSeed(seed, 0))
		return err
	}); err != nil {
		return nil, err
	}

	// The warm-up counts against the phase's seconds.
	start := time.Now()
	if err := warmUp(spans != nil, func() error {
		sys, err := w.newSystem(w.workloadSeed(seed, 0))
		if err == nil {
			_, err = sys.Run()
		}
		return err
	}); err != nil {
		return nil, err
	}

	perRep := float64(w.warmup + w.instrs)
	var (
		rates, jobs    []float64
		want           = make([]string, w.seeds)
		res            = make([]core.Result, w.seeds)
		events         float64
		runCPU, jobCPU time.Duration
	)
	// Every run covers each of its seeds at least once.
	for i := 0; i < w.seeds || b.more(i, time.Since(start)); i++ {
		o.attempted++
		id := strconv.Itoa(i)
		k := i % w.seeds
		t0, c0 := time.Now(), cpuTime()
		sys, err := w.newSystem(w.workloadSeed(seed, k))
		t1, c1 := time.Now(), cpuTime()
		var r memsim.Result
		if err == nil {
			r, err = sys.Run()
		}
		t2, c2 := time.Now(), cpuTime()
		spans.add("setup", id, "rep", t0, t1)
		spans.add("run", id, "rep", t1, t2)
		spans.add("rep", id, "", t0, t2)
		if err != nil {
			o.fail("%s repetition %d: %v", w.bench, i, err)
			continue
		}
		d, err := digest(r)
		if err != nil {
			return nil, err
		}
		if want[k] == "" {
			want[k], res[k] = d, r
		}
		if d != want[k] || !sys.Done() || !fullWindow(r.Instrs, w.instrs, w.config()) {
			o.fail("%s repetition %d: result digest %.12s, want %.12s; measured %d of %d instructions", w.bench, i, d, want[k], r.Instrs, w.instrs)
			continue
		}
		o.reps++
		o.work += t2.Sub(t0)
		o.instrs += perRep
		rates = append(rates, perRep/(c2-c1).Seconds())
		jobs = append(jobs, ms(c2-c0))
		events += float64(sys.Sched().EventsFired())
		runCPU += c2 - c1
		jobCPU += c2 - c0
	}
	if slices.Contains(want, "") {
		return nil, fmt.Errorf("%s: every repetition of a seed failed", w.bench)
	}

	var ipc, demandLat []float64
	for _, r := range res {
		ipc = append(ipc, r.IPC)
		demandLat = append(demandLat, demandLatencyNS(r.Ctrl.DemandLatency, r.Ctrl.Issued[channel.Demand]))
	}
	witness, err := digest(want)
	if err != nil {
		return nil, err
	}
	o.witness = witness
	o.jobs, o.jobSeconds = jobs, jobCPU.Seconds()
	e := o.endToEnd
	e["instrs_per_s"] = median(rates)
	e["ipc"] = median(ipc)
	e["demand_latency_ns"] = median(demandLat)

	m := o.layer
	simulatedLayers(m, res)
	m["sim.events_per_instr"] = events / o.instrs
	m["sim.ns_per_event"] = float64(runCPU) / events
	return o, nil
}

func (w simWorkload) offline(seed uint64) (map[string]float64, error) {
	var specs []genSpec
	for k := 0; k < w.seeds; k++ {
		specs = append(specs, genSpec{w.bench, w.workloadSeed(seed, k), w.warmup + w.instrs})
	}
	gen, err := drainGenerators(specs)
	return map[string]float64{"workload.gen_ns_per_op": gen}, err
}

// genSpec names one generator and how many instructions to draw.
type genSpec struct {
	bench  string
	seed   uint64
	instrs uint64
}

// drainGenerators builds each generator exactly as the simulator gets
// it and pulls operations until the instruction budget is covered,
// returning host nanoseconds per operation.
func drainGenerators(specs []genSpec) (float64, error) {
	var ops float64
	var took time.Duration
	for _, s := range specs {
		gen, err := memsim.Workload(s.bench, s.seed, false)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for n := uint64(0); n < s.instrs; {
			op, ok := gen.Next()
			if !ok {
				return 0, fmt.Errorf("%s: generator ended after %d instructions", s.bench, n)
			}
			n += op.Instructions()
			ops++
		}
		took += time.Since(start)
	}
	return float64(took) / ops, nil
}

// fullWindow checks a measured window against its budget. The core
// retires exactly warmup plus budget instructions, but the warmup
// boundary can fall inside a retire group, so the window may start up
// to width-1 instructions late.
func fullWindow(got, budget uint64, cfg memsim.Config) bool {
	return got <= budget && budget-got < uint64(cfg.Width)
}

// demandLatencyNS is the mean submit-to-critical-word latency.
func demandLatencyNS(total sim.Time, n uint64) float64 {
	return ratio(float64(total), float64(n)) / float64(sim.Nanosecond)
}

// simulatedLayers fills the per-layer metrics read from Result records,
// pooling counts over every record (one per system or job).
func simulatedLayers(m map[string]float64, rs []core.Result) {
	var instrs, l1a, l1m, l2a, l2m, pfIssued, pfReplaced, used, settled float64
	var queueWait, demands float64
	var ch channel.Stats
	var elapsed sim.Time
	maxQueue := 0
	for _, r := range rs {
		instrs += float64(r.Instrs)
		l1a += float64(r.L1.Accesses)
		l1m += float64(r.L1.Misses)
		l2a += float64(r.L2.Accesses)
		l2m += float64(r.L2.Misses)
		pfIssued += float64(r.Prefetch.Issued)
		pfReplaced += float64(r.Prefetch.RegionsReplaced)
		used += float64(r.L2.PrefetchUsed + r.LateMerges)
		settled += float64(r.L2.PrefetchUsed + r.LateMerges + r.L2.PrefetchEvicted)
		queueWait += float64(r.Ctrl.DemandQueueWait)
		demands += float64(r.Ctrl.Issued[channel.Demand])
		maxQueue = max(maxQueue, r.Ctrl.MaxDemandQueue)
		ch = ch.Add(r.Channel)
		elapsed += r.Elapsed * sim.Time(max(r.Groups, 1))
	}
	m["cache.l1_miss_rate"] = ratio(l1m, l1a)
	m["cache.l2_miss_rate"] = ratio(l2m, l2a)
	m["cache.l2_mpki"] = ratio(l2m*1000, instrs)
	m["prefetch.issued_per_kinstr"] = ratio(pfIssued*1000, instrs)
	m["prefetch.accuracy"] = ratio(used, settled)
	m["prefetch.regions_replaced_per_kinstr"] = ratio(pfReplaced*1000, instrs)
	m["memctrl.queue_wait_ns"] = ratio(queueWait, demands) / float64(sim.Nanosecond)
	m["memctrl.max_demand_queue"] = float64(maxQueue)
	channelLayer(m, ch, elapsed)
}

// channelLayer fills the channel metrics from summed channel statistics
// over span, the summed per-channel-group simulated time.
func channelLayer(m map[string]float64, ch channel.Stats, span sim.Time) {
	m["channel.row_hit.demand"] = ch.HitRate(channel.Demand)
	m["channel.row_hit.writeback"] = ch.HitRate(channel.Writeback)
	m["channel.row_hit.prefetch"] = ch.HitRate(channel.Prefetch)
	if span > 0 {
		m["channel.data_util"] = ch.DataUtilization(span)
		m["channel.cmd_util"] = ch.CommandUtilization(span)
	}
}
