package main

import (
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"memsim/internal/server"
	"memsim/internal/vfs"
)

// TestLayerTableCoversInternalPackages fails when a package under
// internal/ has no explicit layer, so new code is placed on purpose
// rather than silently folded into "other".
func TestLayerTableCoversInternalPackages(t *testing.T) {
	root := filepath.Join("..", "internal")
	seen := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		files, err := filepath.Glob(filepath.Join(path, "*.go"))
		if err != nil {
			return err
		}
		if !slices.ContainsFunc(files, func(f string) bool { return !strings.HasSuffix(f, "_test.go") }) {
			return nil
		}
		rel, err := filepath.Rel(filepath.Join("..", ""), path)
		if err != nil {
			return err
		}
		pkg := "memsim/" + filepath.ToSlash(rel)
		seen++
		layer, explicit := layerOfPackage(pkg)
		if !explicit {
			t.Errorf("package %s has no entry in layerTable", pkg)
		}
		if !slices.Contains(layers, layer) {
			t.Errorf("package %s maps to unknown layer %q", pkg, layer)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen < 20 {
		t.Fatalf("found only %d internal packages; is the walk rooted at the module?", seen)
	}
	if _, explicit := layerOfPackage("memsim/internal/newpkg"); explicit {
		t.Error("an unlisted internal package must not match the root entry")
	}
}

func TestClassifyStack(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"memsim/internal/cache.(*Cache).Lookup", "memsim/internal/core.(*hierarchy).Access"}, "cache"},
		{[]string{"memsim/internal/policy.Registry[go.shape.string].Get"}, "policy"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "memsim/internal/cpu.(*Core).dispatch"}, "runtime.malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "memsim/internal/core.(*System).submit"}, "runtime.other"},
		{[]string{"encoding/json.(*encodeState).string"}, "other"},
		{nil, "other"},
	} {
		if got := classifyStack(tc.stack); got != tc.want {
			t.Errorf("classifyStack(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
	alloc := []string{"runtime.mallocgc", "runtime.newobject", "memsim/internal/cpu.(*Core).dispatch"}
	if got := allocLayer(alloc); got != "cpu" {
		t.Errorf("allocLayer = %q, want cpu", got)
	}
}

// TestScheduleDeterministic pins the service workload's inputs: one
// seed gives byte-identical arrivals and job mix, another seed gives
// different ones, every seed offers the same count and mix, and no
// client exceeds the server's default token bucket when on time.
func TestScheduleDeterministic(t *testing.T) {
	enc := func(seed uint64) []byte {
		b, err := json.Marshal(serviceLoad.schedule(seed, 0))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := enc(7), enc(7); string(a) != string(b) {
		t.Fatal("schedule differs between two builds from seed 7")
	}
	if a, b := enc(7), enc(8); string(a) == string(b) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	for seed := uint64(1); seed <= 20; seed++ {
		arr := serviceLoad.schedule(seed, int(seed%4))
		if want := int(math.Round(serviceLoad.rate * serviceLoad.session.Seconds())); len(arr) != want {
			t.Fatalf("seed %d: %d arrivals, want %d", seed, len(arr), want)
		}
		mix := map[string]int{}
		for i, a := range arr {
			if i > 0 && a.At < arr[i-1].At {
				t.Fatalf("seed %d: arrivals out of order at %d", seed, i)
			}
			mix[strings.Join(a.Spec.Benchmarks, "+")]++
		}
		for k, n := range mix {
			if d := n - len(arr)/len(jobMenu); d < 0 || d > 1 {
				t.Errorf("seed %d: %s offered %d times of %d", seed, k, n, len(arr))
			}
		}
		if c := overBucket(arr, 5, 10); c != "" {
			t.Errorf("seed %d: %s would be rate-limited", seed, c)
		}
	}
}

// overBucket replays arrivals through per-client token buckets and
// returns the first client that would be refused.
func overBucket(arr []arrival, rate float64, burst int) string {
	type bucket struct {
		tokens float64
		last   time.Duration
	}
	buckets := map[string]*bucket{}
	for _, a := range arr {
		b, ok := buckets[a.Client]
		if !ok {
			b = &bucket{tokens: float64(burst), last: a.At}
			buckets[a.Client] = b
		}
		b.tokens = min(float64(burst), b.tokens+rate*(a.At-b.last).Seconds())
		b.last = a.At
		if b.tokens < 1 {
			return a.Client
		}
		b.tokens--
	}
	return ""
}

// TestRerunMatchesDefaultDaemon checks that rerun configures a direct
// run the way a daemon on its default settings runs a job (the
// benchmark's daemon sets serverWatchdogCycles explicitly): a job served
// by a default daemon must re-run byte for byte.
func TestRerunMatchesDefaultDaemon(t *testing.T) {
	svc, err := server.New(server.Config{StateDir: "state", FS: vfs.NewMem(), Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	ctx := context.Background()
	for _, spec := range jobMenu {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var job server.Job
		if status, err := call(ctx, ts.Client(), http.MethodPost, ts.URL+"/jobs", "test", body, &job); err != nil || status != http.StatusAccepted {
			t.Fatalf("submit: status %d: %v", status, err)
		}
		for deadline := time.Now().Add(time.Minute); job.State != server.StateDone; time.Sleep(10 * time.Millisecond) {
			if job.State == server.StateFailed || job.State == server.StateCanceled || time.Now().After(deadline) {
				t.Fatalf("job %s ended %s: %s", job.ID, job.State, job.Error)
			}
			if status, err := call(ctx, ts.Client(), http.MethodGet, ts.URL+"/jobs/"+job.ID, "test", nil, &job); err != nil || status != http.StatusOK {
				t.Fatalf("poll: status %d: %v", status, err)
			}
		}
		if _, _, _, err := rerun(job); err != nil {
			t.Errorf("%v: %v", spec.Benchmarks, err)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables the program
// prints in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	defs := func(ms []struct{ Name, Unit string }) []metricDef {
		var out []metricDef
		for _, m := range ms {
			out = append(out, metricDef{m.Name, m.Unit})
		}
		return out
	}
	if got := defs(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, program prints %v", got, endToEnd)
	}
	if got := defs(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, program prints %v", got, perLayer)
	}
	// sim-stream is implemented but left out of BENCHMARK.json (see
	// README.md); every workload listed there must be implemented.
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}
