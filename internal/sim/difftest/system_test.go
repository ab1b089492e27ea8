package difftest

import (
	"reflect"
	"sort"
	"testing"

	"memsim/internal/cache"
	"memsim/internal/core"
	"memsim/internal/obs"
	"memsim/internal/policy"
	"memsim/internal/prefetch"
	"memsim/internal/workload"
)

// sysInstrs keeps each matrix cell fast; the point is bit-identity
// across engines, not statistical fidelity, and every event of the run
// contributes to the comparison regardless of length.
const sysInstrs = 20_000

// systemMatrix is the configuration sweep for the end-to-end
// differential check: each axis the issue calls out (prefetching,
// address mapping, channel count, paranoid mode) appears in at least
// one cell, plus the interleaving and reorder extensions whose event
// patterns differ most from the base system.
func systemMatrix() map[string]core.Config {
	m := map[string]core.Config{}

	m["base"] = core.Base()

	one := core.Base()
	one.Channels = 1
	m["one-channel"] = one

	two := core.Base()
	two.Channels = 2
	two.Mapping = "xor"
	m["two-channel-xor"] = two

	m["tuned-prefetch"] = core.Tuned()

	paranoid := core.Tuned()
	paranoid.Harden.Paranoid = true
	paranoid.Harden.WatchdogCycles = 1 << 20
	m["tuned-paranoid"] = paranoid

	indep := core.Base()
	indep.Interleaving = "independent"
	indep.SchedPolicy = "frfcfs-cap"
	indep.ReorderWindow = 8
	m["independent-reorder"] = indep

	// Policy zoo: one cell per registered scheme of every registry, so
	// each policy's event pattern is held to cross-engine bit-identity.
	// A divergence in any cell shrinks through the ddmin harness in
	// shrink.go like every other difftest failure.
	for _, name := range policy.Sched.Names() {
		cfg := core.Base()
		cfg.Channels = 1 // one contested queue so Pick actually runs
		cfg.Prefetch = core.TunedPrefetch()
		cfg.Prefetch.Scheduled = false
		if err := cfg.Apply(map[string]string{"sched_policy": name}); err != nil {
			panic(err)
		}
		m["sched-"+name] = cfg
	}
	for _, name := range policy.Timings.Names() {
		cfg := core.Base()
		cfg.Mapping = "xor"
		cfg.BankTiming = name
		m["timing-"+name] = cfg
	}
	for _, name := range policy.Prefetchers.Names() {
		cfg := core.Base()
		cfg.Prefetch = core.PrefetchConfig{
			Enabled:     true,
			Scheme:      name,
			Lookahead:   4,
			TableSize:   8,
			RegionBytes: 4096,
			QueueDepth:  8,
			Policy:      prefetch.LIFO,
			BankAware:   true,
			Scheduled:   true,
			Insert:      cache.LRU,
		}
		m["prefetch-"+name] = cfg
	}

	// Counterfactual tracing must not perturb either engine: alternates
	// see recorded inputs only.
	cf := core.Tuned()
	cf.Counterfactual = true
	m["counterfactual"] = cf

	return m
}

// runSystem executes one profile under cfg with the given engine and
// returns the run's Result plus the flattened obs metrics delta.
func runSystem(t *testing.T, cfg core.Config, engine string) (core.Result, map[string]float64) {
	t.Helper()
	cfg.Engine = engine
	cfg.MaxInstrs = sysInstrs
	cfg.WarmupInstrs = sysInstrs
	cfg.Obs = obs.Config{Metrics: true, Trace: cfg.Counterfactual}
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := p.Generator(0, false)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, sys.ObsMetricsDelta()
}

// TestDiffSystemResults swaps only the scheduler engine under a matrix
// of full-system configurations and requires bit-identical Result
// structs and metric snapshots. The unit-level programs prove the
// queues agree in isolation; this proves the swap is invisible at the
// level the paper's experiments are measured.
func TestDiffSystemResults(t *testing.T) {
	matrix := systemMatrix()
	names := make([]string, 0, len(matrix))
	for name := range matrix {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfg := matrix[name]
		t.Run(name, func(t *testing.T) {
			calRes, calMetrics := runSystem(t, cfg, "calendar")
			heapRes, heapMetrics := runSystem(t, cfg, "heap")
			if calRes != heapRes {
				t.Errorf("Result diverged between engines:\ncalendar: %+v\nheap:     %+v", calRes, heapRes)
			}
			if !reflect.DeepEqual(calMetrics, heapMetrics) {
				keys := make([]string, 0, len(calMetrics))
				for k := range calMetrics {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					if calMetrics[k] != heapMetrics[k] {
						t.Errorf("metric %s: calendar %v, heap %v", k, calMetrics[k], heapMetrics[k])
					}
				}
				for k := range heapMetrics {
					if _, ok := calMetrics[k]; !ok {
						t.Errorf("metric %s only present on heap engine", k)
					}
				}
			}
		})
	}
}
