package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"memsim/internal/obs"
	"memsim/internal/workload"
)

// updateGolden regenerates the golden result fixtures:
//
//	go test ./internal/core -run TestGoldenResults -update
//
// Regenerate only when a simulator change intentionally alters timing
// or accounting; the diff of the fixture is the reviewable statement
// of exactly what moved.
var updateGolden = flag.Bool("update", false, "rewrite golden result fixtures")

const goldenFile = "testdata/golden_results.json"

// goldenInstrs mirrors the differential matrix budget: long enough to
// exercise misses, prefetches and multi-channel traffic, short enough
// that the fixture check stays a unit test.
const goldenInstrs = 20_000

// goldenEntry is one config's frozen measurement: the full Result and
// the flattened obs metrics delta. encoding/json sorts map keys, so
// serialization is byte-deterministic.
type goldenEntry struct {
	Result  Result
	Metrics map[string]float64
}

// goldenConfigs are the frozen configurations. The first six cover the
// paper's main axes (base vs tuned prefetch, mapping, channel count,
// row policy) plus the extensions with the most distinctive event
// traffic (independent channels with reordering, stream prefetch); the
// rest pin one fixture per policy-zoo scheme: each FR-FCFS variant,
// the tiered-latency bank, and the row-reuse fast path.
func goldenConfigs() []struct {
	Name string
	Cfg  Config
} {
	one := Base()
	one.Channels = 1

	closed := Base()
	closed.ClosedPage = true
	closed.Mapping = "xor"

	indep := Base()
	indep.Interleaving = "independent"
	indep.SchedPolicy = "frfcfs-cap"
	indep.ReorderWindow = 8

	stream := Base()
	stream.Prefetch = PrefetchConfig{Enabled: true, Scheme: "stream", Lookahead: 4, TableSize: 8}

	// The FR-FCFS fixtures run one channel with unscheduled prefetch so
	// the single controller queue actually backs up and contested
	// decisions exercise the open-row scan.
	frfcfs := Base()
	frfcfs.Channels = 1
	frfcfs.Prefetch = TunedPrefetch()
	frfcfs.Prefetch.Scheduled = false
	frfcfs.SchedPolicy = "frfcfs"

	frfcfsCap := frfcfs
	frfcfsCap.SchedPolicy = "frfcfs-cap"
	frfcfsCap.ReorderWindow = 4

	tiered := Base()
	tiered.Mapping = "xor"
	tiered.BankTiming = "tiered"

	reuse := Base()
	reuse.Mapping = "xor"
	reuse.BankTiming = "rowreuse"

	return []struct {
		Name string
		Cfg  Config
	}{
		{"base", Base()},
		{"tuned", Tuned()},
		{"one-channel", one},
		{"closed-page-xor", closed},
		{"independent-reorder", indep},
		{"stream-prefetch", stream},
		{"frfcfs", frfcfs},
		{"frfcfs-cap", frfcfsCap},
		{"tiered-latency", tiered},
		{"row-reuse", reuse},
	}
}

// TestGoldenResults locks the simulator's observable output — Result
// and metrics, byte for byte — against the committed fixture. Its job
// in this PR is to prove the calendar-queue engine swap changed no
// measured number; its job afterward is to catch any silent behavioral
// drift. Run with -update to regenerate after an intended change.
func TestGoldenResults(t *testing.T) {
	got := map[string]goldenEntry{}
	for _, gc := range goldenConfigs() {
		cfg := gc.Cfg
		cfg.MaxInstrs = goldenInstrs
		cfg.WarmupInstrs = goldenInstrs
		cfg.Obs = obs.Config{Metrics: true}
		p, err := workload.ByName("gcc")
		if err != nil {
			t.Fatal(err)
		}
		gen, err := p.Generator(0, false)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := New(cfg, gen)
		if err != nil {
			t.Fatalf("%s: %v", gc.Name, err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("%s: %v", gc.Name, err)
		}
		got[gc.Name] = goldenEntry{Result: res, Metrics: sys.ObsMetricsDelta()}
	}

	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenFile, len(data))
		return
	}

	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create it): %v", err)
	}
	if bytes.Equal(data, want) {
		return
	}
	// Byte drift: decode both sides and report field-level differences
	// so the failure names what moved instead of dumping two blobs.
	var wantEntries map[string]goldenEntry
	if err := json.Unmarshal(want, &wantEntries); err != nil {
		t.Fatalf("fixture is corrupt: %v", err)
	}
	for _, gc := range goldenConfigs() {
		g, w := got[gc.Name], wantEntries[gc.Name]
		if g.Result != w.Result {
			t.Errorf("%s: Result drifted:\ngot:  %+v\nwant: %+v", gc.Name, g.Result, w.Result)
		}
		for _, k := range sortedKeys(w.Metrics) {
			if g.Metrics[k] != w.Metrics[k] {
				t.Errorf("%s: metric %s = %v, want %v", gc.Name, k, g.Metrics[k], w.Metrics[k])
			}
		}
		for _, k := range sortedKeys(g.Metrics) {
			if _, ok := w.Metrics[k]; !ok {
				t.Errorf("%s: new metric %s not in fixture", gc.Name, k)
			}
		}
	}
	if !t.Failed() {
		t.Error("golden fixture bytes drifted without a value change; rerun with -update")
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
