package cluster

import (
	"flag"
	"reflect"
	"slices"
	"testing"

	"memsim/internal/core"
	"memsim/internal/obs"
)

// TestSoftwarePrefetchReachesMembers is the regression test for a
// Base-level software_prefetch reaching the workload generators: swim
// emits software prefetches, so executing them must change its run.
func TestSoftwarePrefetchReachesMembers(t *testing.T) {
	run := func(swpf bool) Result {
		cfg := Config{Systems: []SystemSpec{{Bench: "swim", Seed: 5}}, Base: baseChannels(2), MaxInstrs: 4_000}
		cfg.Base.SoftwarePrefetch = swpf
		return mustRun(t, cfg)
	}
	off, on := run(false), run(true)
	if on.Systems[0].Result.SWPrefetches == 0 {
		t.Error("software prefetching on, but no software prefetch fills")
	}
	if on.TraceHash == off.TraceHash || reflect.DeepEqual(on.Systems[0].Result, off.Systems[0].Result) {
		t.Errorf("software_prefetch left the run unchanged (trace %s)", on.TraceHash)
	}
}

// knobOutcome is what a knob set on Base does to a cluster run.
type knobOutcome int

const (
	changes  knobOutcome = iota // the merged Result differs from the reference run
	same                        // the Result is identical; the row says why that is not ignoring it
	traces                      // the Result is identical and the trace differs
	rejected                    // Validate rejects it under the row's field
)

// TestEveryKnobUsedOrRejected walks the knob table: every knob a
// memcluster flag can set must either change the cluster run or be
// rejected by validation, never be silently dropped.
func TestEveryKnobUsedOrRejected(t *testing.T) {
	prefetchOn := map[string]string{"prefetch": "true"}
	rows := []struct {
		knob, value string
		from        map[string]string // settings of the reference run (nil: core.Base())
		want        knobOutcome
		field       string // for rejected
	}{
		{knob: "ghz", value: "3.2"},
		{knob: "mapping", value: "xor"},
		{knob: "channels", value: "2"},
		{knob: "devices", value: "4"},
		{knob: "l2_size_bytes", value: "64KB"},
		{knob: "l2_block_bytes", value: "128"},
		{knob: "mshrs", value: "1"},
		{knob: "part", value: "800-50"},
		{knob: "closed_page", value: "true"},
		// The fabric always interleaves independently.
		{knob: "interleaving", value: "independent", want: same},
		{knob: "interleaving", value: "ganged", want: rejected, field: "Interleaving"},
		// The fabric builds its channels as core does, refresh included.
		{knob: "refresh", value: "true"},
		// Both engines realize the same event order by contract.
		{knob: "engine", value: "heap", want: same},
		// The fabric's arbiter has a fixed class priority.
		{knob: "reorder_window", value: "4", want: rejected, field: "ReorderWindow"},
		{knob: "sched_policy", value: "frfcfs", want: rejected, field: "SchedPolicy"},
		{knob: "bank_timing", value: "tiered"},
		// Decision tracing covers member prefetchers, not the fabric.
		{knob: "counterfactual", value: "true", want: rejected, field: "Counterfactual"},
		{knob: "counterfactual", value: "true", from: prefetchOn, want: traces},
		{knob: "prefetch", value: "true"},
		{knob: "prefetch_scheme", value: "stream", from: prefetchOn},
		{knob: "region", value: "1024", from: prefetchOn},
		{knob: "lookahead", value: "16", from: map[string]string{"prefetch_scheme": "sequential"}},
		{knob: "insert", value: "MRU", from: prefetchOn},
		// Member prefetching is always unscheduled on the fabric (a
		// documented normalization), and unscheduled prefetching issues
		// each region as soon as it is queued, so region order is moot.
		{knob: "fifo", value: "true", from: prefetchOn, want: same},
		{knob: "unscheduled", value: "true", from: prefetchOn, want: same},
		{knob: "software_prefetch", value: "true"},
		{knob: "perfect_l2", value: "true"},
		{knob: "perfect_mem", value: "true"},
	}

	covered := map[string]bool{}
	for _, r := range rows {
		covered[r.knob] = true
	}
	fs := flag.NewFlagSet("knobs", flag.PanicOnError)
	core.KnobFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if !covered[f.Name] {
			t.Errorf("knob %s has no row: say whether the cluster uses or rejects it", f.Name)
		}
	})

	config := func(settings map[string]string, trace bool) Config {
		t.Helper()
		base := core.Base()
		if err := base.Apply(settings); err != nil {
			t.Fatal(err)
		}
		return Config{
			Systems:      []SystemSpec{{Bench: "mcf", Seed: 3}, {Bench: "swim", Seed: 4}},
			Base:         &base,
			MaxInstrs:    3_000,
			WarmupInstrs: 500,
			Obs:          obs.Config{Trace: trace},
		}
	}
	for _, r := range rows {
		settings := map[string]string{r.knob: r.value}
		for k, v := range r.from {
			settings[k] = v
		}
		cfg := config(settings, r.want == traces)
		if r.want == rejected {
			if got := configFields(t, cfg.Validate()); !slices.Contains(got, r.field) {
				t.Errorf("%s=%s: rejected fields %v, want %s", r.knob, r.value, got, r.field)
			}
			continue
		}
		got := mustRun(t, cfg)
		ref := mustRun(t, config(r.from, r.want == traces))
		sameResult := string(marshal(t, got)) == string(marshal(t, ref))
		switch {
		case r.want == changes && sameResult:
			t.Errorf("%s=%s: cluster run unchanged; the knob is silently ignored", r.knob, r.value)
		case r.want != changes && !sameResult:
			t.Errorf("%s=%s: cluster run changed, want identical", r.knob, r.value)
		case r.want == traces && reflect.DeepEqual(got.Trace(), ref.Trace()):
			t.Errorf("%s=%s: trace unchanged", r.knob, r.value)
		}
	}
}
