package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"memsim/internal/channel"
	"memsim/internal/core"
	"memsim/internal/server"
	"memsim/internal/sim"
	"memsim/internal/vfs"
	"memsim/internal/workload"
)

// serviceWorkload drives an in-process memsimd over loopback HTTP with
// an open loop: seeded arrivals at a fixed rate from several clients,
// each job polled until it finishes. A run is a series of sessions of
// equal length, each on a fresh daemon and state directory: the job
// store rewrites every record on every transition, so a daemon's cost
// per job grows with the jobs it holds, and fixed-length sessions keep
// that growth the same in every run.
type serviceWorkload struct {
	// rate is the offered load in jobs per second, about a quarter of
	// the ~30 jobs/s saturation throughput measured with 5 s sessions on
	// a 2-CPU host; README.md says why it stays that far below it.
	rate float64
	// session is the length of one session's arrival schedule.
	session time.Duration
	// clients share the load; each stays far under the server's
	// per-client token bucket (5/s, burst 10).
	clients int
	// poll is the interval between GET /jobs/{id} polls of one job.
	poll time.Duration
	// rerun is how many done jobs are re-simulated directly after the
	// measured window and compared byte for byte.
	rerun int
}

// warmUpJobs is how many jobs a plain phase plays before it measures.
const warmUpJobs = 8

var serviceLoad = serviceWorkload{rate: 8, session: 5 * time.Second, clients: 8, poll: 20 * time.Millisecond, rerun: 4}

// jobMenu is the job mix: small jobs of one or two benchmarks, so the
// server, store and vfs are a visible share of each job's latency.
// Budgets are sized so every kind simulates in about 20 ms on a 2-CPU
// host: a mix of very different job sizes has a multi-modal latency
// distribution whose median jumps between modes from run to run.
// Every consecutive block of len(jobMenu) arrivals holds each entry
// once, in seeded order, so all seeds offer the same mix.
var jobMenu = []server.JobSpec{
	{Preset: "tuned", Benchmarks: []string{"mcf"}, Instrs: 25_000, Warmup: 12_500},
	{Preset: "tuned", Benchmarks: []string{"swim"}, Instrs: 90_000, Warmup: 45_000},
	{Preset: "tuned", Benchmarks: []string{"facerec", "twolf"}, Instrs: 34_000, Warmup: 17_000},
	{Preset: "base", Benchmarks: []string{"gzip", "art"}, Instrs: 20_000, Warmup: 10_000},
}

// arrival is one scheduled submission.
type arrival struct {
	At     time.Duration  `json:"at_ns"`
	Client string         `json:"client"`
	Spec   server.JobSpec `json:"spec"`
}

// schedule builds one session's arrivals: a Poisson process
// conditioned on its count, round(rate*session) arrivals at sorted
// uniform times, so every seed offers exactly the same number of jobs.
func (w serviceWorkload) schedule(seed uint64, session int) []arrival {
	rng := rand.New(rand.NewPCG(seed, uint64(session)))
	n := int(math.Round(w.rate * w.session.Seconds()))
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * w.session.Seconds()
	}
	sort.Float64s(times)
	var order []int
	out := make([]arrival, n)
	for i := range out {
		if len(order) == 0 {
			order = rng.Perm(len(jobMenu))
		}
		spec := jobMenu[order[0]]
		order = order[1:]
		spec.Benchmarks = append([]string(nil), spec.Benchmarks...)
		spec.Seed = rng.Uint64N(1000)
		out[i] = arrival{
			At:     time.Duration(times[i] * float64(time.Second)),
			Client: fmt.Sprintf("client-%d", rng.IntN(w.clients)),
			Spec:   spec,
		}
	}
	return out
}

// jobTrace is what the client saw of one arrival.
type jobTrace struct {
	due         time.Time // scheduled submit time
	lag, submit time.Duration
	// cpuLatency is the job's latency on the CPU clock: the process
	// CPU time that passed from due to the job's FinishedAt.
	cpuLatency time.Duration
	polls      []time.Duration
	status     int // submit status
	pollErrors int
	job        server.Job
	err        error
}

func (w serviceWorkload) config(dir string, fsys vfs.FS) server.Config {
	return server.Config{StateDir: dir, FS: fsys, WatchdogCycles: serverWatchdogCycles, Logger: log.New(io.Discard, "", 0)}
}

func (w serviceWorkload) run(seed uint64, b budget, spans *spanLog) (*outcome, error) {
	o := newOutcome()
	// Each set-up opens a store in a state directory of its own on an
	// in-memory file system: the same calls on the real one cost 0.1 to
	// 1 ms of CPU time depending on where the directory sits on the
	// host's disk, which would swamp the daemon's own set-up work. The
	// sessions below run on the real file system.
	setups := 0
	if err := o.timeSetup(spans != nil, func() error {
		setups++
		svc, err := server.New(w.config("state-"+strconv.Itoa(setups), vfs.NewMem()))
		if err != nil {
			return err
		}
		return svc.Drain(context.Background())
	}); err != nil {
		return nil, err
	}

	tfs := &timedFS{FS: vfs.OS}
	sessions := max(1, int(math.Round(b.seconds/w.session.Seconds())))
	first := b.part * sessions
	// A plain phase warms up (see warmUp) by playing the first
	// warmUpJobs arrivals of the part's first session once, on a daemon
	// of its own, and discarding what it saw.
	if spans == nil {
		arrivals := w.schedule(seed, first)
		if _, _, err := w.runSession(arrivals[:min(warmUpJobs, len(arrivals))], &timedFS{FS: vfs.OS}, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	var traces []jobTrace
	var active time.Duration // summed session time, first arrival due to last finish
	var busy time.Duration   // process CPU time while sessions ran
	for s := first; s < first+sessions; s++ {
		c0 := cpuTime()
		t, took, err := w.runSession(w.schedule(seed, s), tfs, spans)
		busy += cpuTime() - c0
		if err != nil {
			return nil, err
		}
		traces = append(traces, t...)
		active += took
	}

	var (
		latency, wall, submit, polls, queued, running, lag []float64
		results                                            []core.Result
		done                                               []server.Job
		shed                                               int
		runTime                                            time.Duration
	)
	for i, t := range traces {
		o.attempted++
		lag = append(lag, ms(t.lag))
		if t.status != 0 {
			submit = append(submit, ms(t.submit))
		}
		for _, p := range t.polls {
			polls = append(polls, ms(p))
		}
		j := t.job
		switch {
		case t.status == http.StatusTooManyRequests:
			shed++
			o.fail("job %d: shed with 429", i)
			continue
		case t.err != nil:
			o.fail("job %d: %v", i, t.err)
			continue
		case t.pollErrors > 0:
			o.fail("job %s: %d polls failed", j.ID, t.pollErrors)
			continue
		case j.State != server.StateDone || j.StartedAt == nil || j.FinishedAt == nil:
			o.fail("job %s ended %s: %s", j.ID, j.State, j.Error)
			continue
		case len(j.Results) != len(j.Benchmarks):
			o.fail("job %s: %d results for %d benchmarks", j.ID, len(j.Results), len(j.Benchmarks))
			continue
		}
		done = append(done, j)
		results = append(results, j.Results...)
		latency = append(latency, ms(t.cpuLatency))
		wall = append(wall, ms(j.FinishedAt.Sub(t.due)))
		queued = append(queued, ms(j.StartedAt.Sub(j.EnqueuedAt)))
		running = append(running, ms(j.FinishedAt.Sub(*j.StartedAt)))
		runTime += j.FinishedAt.Sub(*j.StartedAt)
		o.instrs += float64(uint64(len(j.Benchmarks)) * (j.Spec.Instrs + j.Spec.Warmup))
	}
	if len(done) == 0 {
		return nil, errors.New("service: no job finished")
	}
	o.reps = len(done)
	simInstrs := o.instrs

	// Re-simulate a seeded sample of done jobs directly, outside the
	// measured window; the scheduler counts come from these runs.
	rng := rand.New(rand.NewPCG(seed, 0x7e5a3))
	var events float64
	var rerunTime time.Duration
	for _, k := range rng.Perm(len(done))[:min(w.rerun, len(done))] {
		ev, instrs, took, err := rerun(done[k])
		if err != nil {
			o.fail("job %s: %v", done[k].ID, err)
			continue
		}
		events += ev
		o.instrs += instrs
		rerunTime += took
	}
	o.work = runTime + rerunTime
	o.jobs, o.jobSeconds = latency, active.Seconds()

	e := o.endToEnd
	e["instrs_per_s"] = simInstrs / busy.Seconds()
	var ipc float64
	var demandLat sim.Time
	var demands uint64
	for _, r := range results {
		ipc += r.IPC
		demandLat += r.Ctrl.DemandLatency
		demands += r.Ctrl.Issued[channel.Demand]
	}
	e["ipc"] = ipc / float64(len(results))
	e["demand_latency_ns"] = demandLatencyNS(demandLat, demands)

	m := o.layer
	simulatedLayers(m, results)
	m["sim.events_per_instr"] = ratio(events, o.instrs-simInstrs)
	m["sim.ns_per_event"] = ratio(float64(rerunTime), events)
	m["server.submit_p50_ms"] = median(submit)
	m["server.submit_p99_ms"] = percentile(submit, 99)
	m["server.queue_wait_p50_ms"] = median(queued)
	m["server.run_p50_ms"] = median(running)
	m["server.poll_p99_ms"] = percentile(polls, 99)
	m["server.shed_frac"] = ratio(float64(shed), float64(len(traces)))
	m["client.lag_p99_ms"] = percentile(lag, 99)
	m["client.wall_p50_ms"] = median(wall)
	m["client.wall_p95_ms"] = percentile(wall, 95)
	took, written := tfs.totals()
	m["vfs.syncs_per_job"] = float64(len(took)) / float64(len(done))
	m["vfs.sync_p99_ms"] = percentile(took, 99)
	m["vfs.bytes_per_job"] = float64(written) / float64(len(done))
	return o, nil
}

// runSession starts a daemon on a fresh state directory over tfs,
// serves it on loopback, plays the arrivals against it, waits for every
// job to end, and shuts it all down. It returns what the client saw
// per arrival, and the time from the first arrival's due time to the
// last job's finish.
func (w serviceWorkload) runSession(arrivals []arrival, tfs *timedFS, spans *spanLog) ([]jobTrace, time.Duration, error) {
	dir, err := os.MkdirTemp("", "memsim-bench-service-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	svc, err := server.New(w.config(dir, tfs))
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, errors.Join(err, svc.Drain(context.Background()))
	}
	srv := &http.Server{Handler: svc.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	conns := runtime.NumCPU()
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	client := &http.Client{Transport: transport}
	base := "http://" + ln.Addr().String()
	// Jobs take well under a second at the offered rate; this bound
	// only stops a wedged service from hanging the benchmark.
	ctx, cancel := context.WithTimeout(context.Background(), w.session+60*time.Second)
	defer cancel()

	traces := make([]jobTrace, len(arrivals))
	var wg sync.WaitGroup
	clock := startCPUClock(2 * time.Millisecond)
	start := time.Now()
	for i, a := range arrivals {
		time.Sleep(time.Until(start.Add(a.At)))
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			traces[i] = w.play(ctx, client, base, start.Add(a.At), a, spans)
		}(i, a)
	}
	wg.Wait()
	clock.close()
	var last time.Time
	for i, t := range traces {
		if f := t.job.FinishedAt; f != nil {
			traces[i].cpuLatency = clock.at(*f) - clock.at(t.due)
			if f.After(last) {
				last = *f
			}
		}
	}
	active := last.Sub(start.Add(arrivals[0].At))

	shutdown, stop := context.WithTimeout(context.Background(), 30*time.Second)
	defer stop()
	err = srv.Shutdown(shutdown)
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	transport.CloseIdleConnections()
	if derr := svc.Drain(shutdown); derr != nil {
		err = errors.Join(err, derr)
	}
	return traces, active, err
}

// play submits one arrival at its scheduled time and polls the job
// until it reaches a terminal state.
func (w serviceWorkload) play(ctx context.Context, client *http.Client, base string, due time.Time, a arrival, spans *spanLog) jobTrace {
	t := jobTrace{due: due}
	body, err := json.Marshal(a.Spec)
	if err != nil {
		t.err = err
		return t
	}
	t0 := time.Now()
	t.lag = t0.Sub(due)
	status, err := call(ctx, client, http.MethodPost, base+"/jobs", a.Client, body, &t.job)
	t1 := time.Now()
	t.submit, t.status = t1.Sub(t0), status
	spans.add("http.submit", t.job.ID, "job", t0, t1)
	if err != nil || status != http.StatusAccepted {
		t.err = fmt.Errorf("submit: status %d: %v", status, err)
		return t
	}
	id := t.job.ID
	for {
		select {
		case <-ctx.Done():
			t.err = fmt.Errorf("job %s still %s: %w", id, t.job.State, ctx.Err())
			return t
		case <-time.After(w.poll):
		}
		p0 := time.Now()
		status, err := call(ctx, client, http.MethodGet, base+"/jobs/"+id, a.Client, nil, &t.job)
		p1 := time.Now()
		t.polls = append(t.polls, p1.Sub(p0))
		spans.add("http.poll", id, "job", p0, p1)
		if err != nil || status != http.StatusOK {
			t.pollErrors++
			continue
		}
		switch t.job.State {
		case server.StateDone, server.StateFailed, server.StateCanceled:
			if t.job.FinishedAt != nil {
				spans.add("job", id, "", due, *t.job.FinishedAt)
			}
			return t
		}
	}
}

// cpuClock samples the process CPU time (see cpuTime) against wall
// time, so that a wall-clock instant, such as a job's due time or the
// FinishedAt its daemon recorded, can be read on the CPU clock.
type cpuClock struct {
	stop, done chan struct{}
	wall       []time.Time
	cpu        []time.Duration
}

func startCPUClock(every time.Duration) *cpuClock {
	c := &cpuClock{stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				c.sample()
				return
			case <-tick.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *cpuClock) sample() {
	c.wall = append(c.wall, time.Now())
	c.cpu = append(c.cpu, cpuTime())
}

// close stops the sampling; at is valid after it.
func (c *cpuClock) close() {
	close(c.stop)
	<-c.done
}

// at reads wall instant t on the CPU clock, interpolating between the
// samples around it (and clamping to the first and last).
func (c *cpuClock) at(t time.Time) time.Duration {
	i := sort.Search(len(c.wall), func(i int) bool { return !c.wall[i].Before(t) })
	switch {
	case i == 0:
		return c.cpu[0]
	case i == len(c.wall):
		return c.cpu[len(c.cpu)-1]
	}
	w0, w1 := c.wall[i-1], c.wall[i]
	f := float64(t.Sub(w0)) / float64(w1.Sub(w0))
	return c.cpu[i-1] + time.Duration(f*float64(c.cpu[i]-c.cpu[i-1]))
}

// call makes one request and decodes a 2xx JSON body into out.
func call(ctx context.Context, client *http.Client, method, url, clientID string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-Client-ID", clientID)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode/100 != 2 {
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// rerun simulates each benchmark of a done job directly — the spec's
// BuildConfig and core.New, configured as the server's runner
// configures it — and checks the results match the job's byte for
// byte. It returns the events fired, instructions simulated and host
// time taken.
func rerun(j server.Job) (events, instrs float64, took time.Duration, err error) {
	cfg, err := j.Spec.BuildConfig()
	if err != nil {
		return 0, 0, 0, err
	}
	cfg.MaxInstrs, cfg.WarmupInstrs = j.Spec.Instrs, j.Spec.Warmup
	cfg.Harden.WatchdogCycles = serverWatchdogCycles
	for k, b := range j.Benchmarks {
		p, err := workload.ByName(b)
		if err != nil {
			return 0, 0, 0, err
		}
		gen, err := p.Generator(j.Spec.Seed, j.Spec.SWPrefetch)
		if err != nil {
			return 0, 0, 0, err
		}
		start := time.Now()
		sys, err := core.New(cfg, gen)
		if err != nil {
			return 0, 0, 0, err
		}
		res, err := sys.Run()
		took += time.Since(start)
		if err != nil {
			return 0, 0, 0, err
		}
		got, err := json.Marshal(res)
		if err != nil {
			return 0, 0, 0, err
		}
		want, err := json.Marshal(j.Results[k])
		if err != nil {
			return 0, 0, 0, err
		}
		if !bytes.Equal(got, want) {
			return 0, 0, 0, fmt.Errorf("%s: direct re-run differs from the served result", b)
		}
		events += float64(sys.Sched().EventsFired())
		instrs += float64(cfg.MaxInstrs + cfg.WarmupInstrs)
	}
	return events, instrs, took, nil
}

// serverWatchdogCycles is the watchdog budget the benchmark's daemon
// arms on every run (server's default), set explicitly in config so
// that rerun configures the direct runs the same way.
const serverWatchdogCycles = 5_000_000

func (w serviceWorkload) offline(seed uint64) (map[string]float64, error) {
	var specs []genSpec
	for _, a := range w.schedule(seed, 0) {
		for _, b := range a.Spec.Benchmarks {
			specs = append(specs, genSpec{b, a.Spec.Seed, a.Spec.Instrs + a.Spec.Warmup})
		}
	}
	gen, err := drainGenerators(specs)
	return map[string]float64{"workload.gen_ns_per_op": gen}, err
}

// timedFS wraps a vfs.FS and times every durable-write operation the
// store and the checkpoint manifests make — WriteFile, Create, Rename,
// and File.Sync and File.Close on Create handles — and counts the
// bytes written. vfs.OS issues no fsync, so these are page-cache
// writes.
type timedFS struct {
	vfs.FS
	mu      sync.Mutex
	took    []float64 // ms per operation
	written int64
}

func (f *timedFS) record(start time.Time, n int) {
	d := time.Since(start)
	f.mu.Lock()
	f.took = append(f.took, ms(d))
	f.written += int64(n)
	f.mu.Unlock()
}

// totals returns each operation's latency in ms and the bytes written.
func (f *timedFS) totals() ([]float64, int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]float64(nil), f.took...), f.written
}

func (f *timedFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	start := time.Now()
	err := f.FS.WriteFile(name, data, perm)
	f.record(start, len(data))
	return err
}

func (f *timedFS) Rename(oldname, newname string) error {
	start := time.Now()
	err := f.FS.Rename(oldname, newname)
	f.record(start, 0)
	return err
}

func (f *timedFS) Create(name string) (vfs.File, error) {
	start := time.Now()
	file, err := f.FS.Create(name)
	f.record(start, 0)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

type timedFile struct {
	vfs.File
	fs *timedFS
}

func (t *timedFile) Write(p []byte) (int, error) {
	n, err := t.File.Write(p)
	t.fs.mu.Lock()
	t.fs.written += int64(n)
	t.fs.mu.Unlock()
	return n, err
}

func (t *timedFile) Sync() error {
	start := time.Now()
	err := t.File.Sync()
	t.fs.record(start, 0)
	return err
}

func (t *timedFile) Close() error {
	start := time.Now()
	err := t.File.Close()
	t.fs.record(start, 0)
	return err
}
