// Command benchmark measures memsim end to end and layer by layer.
//
//	bash benchmark/run.sh --workload sim-chase --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it measures one workload for --seconds and prints the
// end-to-end metrics; with --trace 1 it runs the same seed twice, once
// plain and once under the CPU and allocation profilers, and prints the
// per-layer ledger. The last line of standard output is always one
// JSON object: {"correct", "attempted", "failed", "metrics"}. See
// README.md for the workloads and every metric's definition.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"instrs_per_s", "instr/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ipc", "instr/cycle"},
	{"demand_latency_ns", "ns"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
	{"jobs_per_s", "1/s"},
}

// perLayer are the metrics a --trace 1 run reports, on every workload;
// a layer a workload never enters reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_ns_per_instr", "ns/instr"})
	}
	defs = append(defs,
		metricDef{"runtime.malloc_ns_per_instr", "ns/instr"},
		metricDef{"runtime.gc_ns_per_instr", "ns/instr"},
		metricDef{"runtime.other_ns_per_instr", "ns/instr"},
		metricDef{"trace.profile_ns_per_instr", "ns/instr"},
		metricDef{"trace.wall_ns_per_instr", "ns/instr"},
		metricDef{"trace.cpu_ns_per_instr", "ns/instr"},
		metricDef{"trace.rate_ns_per_instr", "ns/instr"},
		metricDef{"trace.plain_rate_ns_per_instr", "ns/instr"},
		metricDef{"trace.cpu_samples", "count"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".allocs_per_kinstr", "count/kinstr"})
	}
	return append(defs,
		metricDef{"runtime.alloc_bytes_per_instr", "B/instr"},
		metricDef{"runtime.gc_cycles_per_minstr", "count/Minstr"},
		metricDef{"sim.events_per_instr", "count/instr"},
		metricDef{"sim.ns_per_event", "ns"},
		metricDef{"cache.l1_miss_rate", "ratio"},
		metricDef{"cache.l2_miss_rate", "ratio"},
		metricDef{"cache.l2_mpki", "count/kinstr"},
		metricDef{"prefetch.issued_per_kinstr", "count/kinstr"},
		metricDef{"prefetch.accuracy", "ratio"},
		metricDef{"prefetch.regions_replaced_per_kinstr", "count/kinstr"},
		metricDef{"memctrl.queue_wait_ns", "ns"},
		metricDef{"memctrl.max_demand_queue", "count"},
		metricDef{"channel.row_hit.demand", "ratio"},
		metricDef{"channel.row_hit.writeback", "ratio"},
		metricDef{"channel.row_hit.prefetch", "ratio"},
		metricDef{"channel.data_util", "ratio"},
		metricDef{"channel.cmd_util", "ratio"},
		metricDef{"cluster.epochs_per_kinstr", "count/kinstr"},
		metricDef{"cluster.messages_per_kinstr", "count/kinstr"},
		metricDef{"cluster.ns_per_epoch", "ns"},
		metricDef{"cluster.arbiter_queue_wait_ns", "ns"},
		metricDef{"cluster.fabric_data_util", "ratio"},
		metricDef{"cluster.parallel_speedup", "ratio"},
		metricDef{"workload.gen_ns_per_op", "ns"},
		metricDef{"server.submit_p50_ms", "ms"},
		metricDef{"server.submit_p99_ms", "ms"},
		metricDef{"server.queue_wait_p50_ms", "ms"},
		metricDef{"server.run_p50_ms", "ms"},
		metricDef{"server.poll_p99_ms", "ms"},
		metricDef{"server.shed_frac", "ratio"},
		metricDef{"vfs.syncs_per_job", "count"},
		metricDef{"vfs.sync_p99_ms", "ms"},
		metricDef{"vfs.bytes_per_job", "B"},
		metricDef{"client.lag_p99_ms", "ms"},
		metricDef{"client.wall_p50_ms", "ms"},
		metricDef{"client.wall_p95_ms", "ms"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}()

// budget bounds one measured phase: repeat until seconds have passed
// (and at least minReps times), or exactly reps times when reps > 0 —
// the traced phase repeats the plain phase's work exactly. part numbers
// the process measuring it (see plainRun); workloads whose inputs are a
// sequence, like the service's sessions, give each part its own slice.
type budget struct {
	seconds float64
	reps    int
	part    int
}

const minReps = 3

func (b budget) more(done int, elapsed time.Duration) bool {
	if b.reps > 0 {
		return done < b.reps
	}
	return done < minReps || elapsed.Seconds() < b.seconds
}

// Each workload times its set-up setupSamples times, setupBatch calls
// per sample; setup_s is the median per-call time.
const (
	setupSamples = 31
	setupBatch   = 8
)

// outcome is what one measured phase of a workload produced.
type outcome struct {
	// endToEnd and layer hold metric values by name; a workload sets
	// the per-layer metrics it observes directly (simulated statistics,
	// scheduler and service timings).
	endToEnd map[string]float64
	layer    map[string]float64
	// witness fingerprints the simulated output, for workloads whose
	// every process must reproduce it exactly (empty otherwise).
	witness string
	// instrs counts simulated instructions (warmup and measured, over
	// all systems); work is the host wall time spent on them; reps the
	// repetitions (or jobs) run.
	instrs float64
	work   time.Duration
	reps   int
	// jobs holds each job's latency in ms, and jobSeconds the time the
	// jobs took together, the denominator of jobs_per_s (see jobMetrics).
	jobs       []float64
	jobSeconds float64

	attempted, failed int
}

func newOutcome() *outcome {
	return &outcome{endToEnd: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed attempt with its reason on standard error.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

// bench is one named workload of the benchmark.
type bench interface {
	// run measures one phase from seed within b; spans is nil unless
	// the phase is traced.
	run(seed uint64, b budget, spans *spanLog) (*outcome, error)
	// offline returns the per-layer metrics measured outside both
	// phases, such as draining generators identical to the ones run
	// feeds the simulator (workload.gen_ns_per_op).
	offline(seed uint64) (map[string]float64, error)
}

var workloads = map[string]bench{
	"sim-chase":  simChase,
	"sim-stream": simStream,
	"cluster":    clusterMix,
	"service":    serviceLoad,
}

func main() {
	name := flag.String("workload", "", "workload: sim-chase, sim-stream, cluster or service")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	part := flag.Int("part", -1, "internal: measure one part of a plain run and print it as JSON")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	// Allocation sampling stays off except inside the traced phase.
	runtime.MemProfileRate = 0
	if *part >= 0 {
		if err := measurePart(w, *seed, *seconds, *part); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("# memsim benchmark: workload %s, seed %d, %s, %d CPUs, GOMAXPROCS %d\n",
		*name, *seed, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	var res report
	var err error
	if *trace == 0 {
		res, err = plainRun(*name, *seed, *seconds)
	} else {
		res, err = tracedRun(w, *name, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	res.print()
}

// parts is how many processes a plain run is split into. A process
// keeps one speed for its whole life, and that speed differs between
// processes by up to half on a shared 2-CPU host (with where the heap
// and threads land), so one process's numbers say little about the
// next. Each end-to-end metric is the median over the parts, except
// the job metrics, which are taken once over the pooled jobs of all
// parts.
const parts = 5

// partResult is what one part process reports to the plain run.
type partResult struct {
	EndToEnd   map[string]float64 `json:"end_to_end"`
	Jobs       []float64          `json:"jobs_ms"`
	JobSeconds float64            `json:"job_seconds"`
	Witness    string             `json:"witness"`
	Reps       int                `json:"reps"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
}

// plainRun measures the end-to-end metrics with tracing off: it runs
// parts processes of this program one after another, each measuring
// seconds/parts, and reports each metric's median over them, and the
// job metrics over every part's jobs together.
func plainRun(name string, seed uint64, seconds float64) (report, error) {
	self, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	values := map[string][]float64{}
	var reps, attempted, failed int
	var jobs []float64
	var jobSeconds float64
	witness := ""
	for i := 0; i < parts; i++ {
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(seconds/parts, 'g', -1, 64), "--part", strconv.Itoa(i))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return report{}, fmt.Errorf("part %d: %w", i, err)
		}
		var r partResult
		if err := json.Unmarshal(out, &r); err != nil {
			return report{}, fmt.Errorf("part %d: %w", i, err)
		}
		for k, v := range r.EndToEnd {
			values[k] = append(values[k], v)
		}
		reps, attempted, failed = reps+r.Reps, attempted+r.Attempted, failed+r.Failed
		jobs, jobSeconds = append(jobs, r.Jobs...), jobSeconds+r.JobSeconds
		if i == 0 {
			witness = r.Witness
		} else if r.Witness != witness {
			attempted++
			failed++
			fmt.Fprintf(os.Stderr, "benchmark: part %d simulated output %.12s differs from part 0's %.12s\n", i, r.Witness, witness)
		}
	}
	m := map[string]float64{}
	for k, xs := range values {
		m[k] = median(xs)
	}
	jobMetrics(m, jobs, jobSeconds)
	fmt.Printf("# %d processes, %d repetitions or jobs; failed_frac %.4f (%d of %d attempts)\n",
		parts, reps, ratio(float64(failed), float64(attempted)), failed, attempted)
	return newReport(endToEnd, m, attempted, failed), nil
}

// measurePart runs one part of a plain run and prints its partResult.
func measurePart(w bench, seed uint64, seconds float64, part int) error {
	rss := startRSS(10 * time.Millisecond)
	o, err := w.run(seed, budget{seconds: seconds, part: part}, nil)
	peak := rss.peakMB()
	if err != nil {
		return err
	}
	o.endToEnd["peak_rss_mb"] = peak
	return json.NewEncoder(os.Stdout).Encode(partResult{
		EndToEnd: o.endToEnd, Jobs: o.jobs, JobSeconds: o.jobSeconds,
		Witness: o.witness, Reps: o.reps, Attempted: o.attempted, Failed: o.failed,
	})
}

// jobMetrics sets the job metrics from every job's latency in ms and
// the seconds the jobs took together.
func jobMetrics(m map[string]float64, jobs []float64, seconds float64) {
	m["job_p50_ms"] = median(jobs)
	m["job_p95_ms"] = percentile(jobs, 95)
	m["jobs_per_s"] = ratio(float64(len(jobs)), seconds)
}

// memProfileRate is the mean bytes between allocation samples in the
// traced phase: the simulator allocates about 100 bytes per instruction,
// so this still takes thousands of samples a second while adding only
// a few percent, which keeps the traced phase's time per instruction
// close to the plain phase's. CPU profiling keeps pprof's 100 Hz:
// faster rates exceed the kernel's profiling-timer resolution and
// silently lose samples.
const memProfileRate = 64 << 10

// tracedRun measures half the time plainly, then repeats exactly that
// work on the same seed under the CPU and allocation profilers with
// spans on, and folds the profiles into the per-layer ledger.
func tracedRun(w bench, name string, seed uint64, seconds float64) (report, error) {
	plain, err := w.run(seed, budget{seconds: seconds / 2}, nil)
	if err != nil {
		return report{}, err
	}

	spans := newSpanLog()
	allocsBefore := allocsByLayer(memProfileRate)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var prof bytes.Buffer
	runtime.MemProfileRate = memProfileRate
	cpu0 := cpuTime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return report{}, err
	}
	traced, err := w.run(seed, budget{reps: plain.reps, seconds: seconds / 2}, spans)
	pprof.StopCPUProfile()
	cpuUsed := cpuTime() - cpu0
	runtime.MemProfileRate = 0
	if err != nil {
		return report{}, err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.GC() // the allocation profile publishes at the end of a cycle
	allocsAfter := allocsByLayer(memProfileRate)

	m := traced.layer
	instrs := traced.instrs
	samples, err := decodeCPUProfile(prof.Bytes())
	if err != nil {
		return report{}, err
	}
	cpuNS, n := foldCPU(samples)
	total := 0.0
	for _, l := range layers {
		m[l+".self_ns_per_instr"] = ratio(cpuNS[l], instrs)
		total += cpuNS[l]
	}
	for _, k := range []string{"runtime.malloc", "runtime.gc", "runtime.other"} {
		m[k+"_ns_per_instr"] = ratio(cpuNS[k], instrs)
		total += cpuNS[k]
	}
	m["trace.profile_ns_per_instr"] = ratio(total, instrs)
	m["trace.wall_ns_per_instr"] = ratio(float64(traced.work), instrs)
	m["trace.cpu_ns_per_instr"] = ratio(float64(cpuUsed), instrs)
	// instrs_per_s as time per instruction, measured on the traced work
	// itself (the figure the self-time sum should match within sampling
	// error) and on the plain phase before it (which differs by the
	// profilers' cost and the host's drift, see trace.overhead_frac).
	rate := ratio(1e9, traced.endToEnd["instrs_per_s"])
	plainRate := ratio(1e9, plain.endToEnd["instrs_per_s"])
	m["trace.rate_ns_per_instr"] = rate
	m["trace.plain_rate_ns_per_instr"] = plainRate
	m["trace.cpu_samples"] = float64(n)

	// Sampled allocation shares, scaled to the exact malloc count.
	mallocs := float64(after.Mallocs - before.Mallocs)
	sampled := 0.0
	for _, l := range layers {
		sampled += allocsAfter[l] - allocsBefore[l]
	}
	for _, l := range layers {
		share := ratio(allocsAfter[l]-allocsBefore[l], sampled)
		m[l+".allocs_per_kinstr"] = ratio(share*mallocs*1000, instrs)
	}
	m["runtime.alloc_bytes_per_instr"] = ratio(float64(after.TotalAlloc-before.TotalAlloc), instrs)
	m["runtime.gc_cycles_per_minstr"] = ratio(float64(after.NumGC-before.NumGC)*1e6, instrs)
	m["trace.overhead_frac"] = ratio(float64(traced.work), float64(plain.work))
	extra, err := w.offline(seed)
	if err != nil {
		return report{}, err
	}
	for k, v := range extra {
		m[k] = v
	}

	path, err := spans.write(name, seed, prof.Bytes())
	if err != nil {
		return report{}, err
	}
	fmt.Printf("# %d plain and %d traced repetitions or jobs; %d CPU profile ticks; spans and profile in %s\n",
		plain.reps, traced.reps, n, path)
	sum := m["trace.profile_ns_per_instr"]
	fmt.Printf("# self-time sum %.1f ns/instr against 1e9/instrs_per_s %.1f traced (%+.1f%%), %.1f plain (%+.1f%%); sampling error about %.1f%%\n",
		sum, rate, 100*(ratio(sum, rate)-1), plainRate, 100*(ratio(sum, plainRate)-1), 100/math.Sqrt(float64(max(n, 1))))
	attempted, failed := plain.attempted+traced.attempted, plain.failed+traced.failed
	if traced.witness != plain.witness {
		attempted++
		failed++
		fmt.Fprintf(os.Stderr, "benchmark: traced simulated output %.12s differs from plain %.12s\n", traced.witness, plain.witness)
	}
	return newReport(perLayer, m, attempted, failed), nil
}

// report is the final result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	order     []metricDef
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(defs []metricDef, values map[string]float64, attempted, failed int) report {
	r := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}, order: defs}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return r
}

// print writes a readable table, then the JSON result as the last line.
func (r report) print() {
	for _, d := range r.order {
		fmt.Printf("%-40s %16.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// digest fingerprints a result by its JSON encoding.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// span is one timed call across a layer boundary, in nanoseconds since
// the log started. ID keys it to a job or repetition.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced phases pay one branch per span.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(name, id, parent string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0))})
	l.mu.Unlock()
}

// write stores the spans and the CPU profile under .bench_build/trace
// in the working directory and returns the span file's path.
func (l *spanLog) write(name string, seed uint64, cpuProfile []byte) (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	sort.SliceStable(l.spans, func(i, j int) bool { return l.spans[i].Start < l.spans[j].Start })
	data, err := json.Marshal(l.spans)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(base+".spans.json", data, 0o644); err != nil {
		return "", err
	}
	if err := os.WriteFile(base+".cpu.pprof", cpuProfile, 0o644); err != nil {
		return "", err
	}
	return base + ".spans.json", nil
}
