package cpu

import (
	"testing"

	"memsim/internal/sim"
	"memsim/internal/trace"
)

var testClock = sim.NewClock(1.6e9)

func cfg(maxInstrs uint64) Config {
	return Config{Width: 4, ROBSize: 64, StoreBuffer: 64, Clock: testClock, MaxInstrs: maxInstrs}
}

// fixedMemory answers every access synchronously after a fixed latency.
type fixedMemory struct {
	sched   *sim.Scheduler
	latency sim.Time
	count   int
}

func (m *fixedMemory) Access(addr uint64, kind trace.Kind, done sim.Callback, arg any) Reply {
	m.count++
	return Reply{Accepted: true, Done: true, At: m.sched.Now() + m.latency}
}

// pendingMemory completes loads via callback after a fixed delay and
// tracks concurrent outstanding accesses.
type pendingMemory struct {
	sched          *sim.Scheduler
	latency        sim.Time
	capacity       int
	outstanding    int
	maxOutstanding int
	onFree         func()
	issued         []sim.Time // when each accepted access arrived
}

func (m *pendingMemory) Access(addr uint64, kind trace.Kind, done sim.Callback, arg any) Reply {
	if m.capacity > 0 && m.outstanding >= m.capacity {
		return Reply{}
	}
	m.outstanding++
	m.issued = append(m.issued, m.sched.Now())
	if m.outstanding > m.maxOutstanding {
		m.maxOutstanding = m.outstanding
	}
	m.sched.Schedule(m.latency, func() {
		m.outstanding--
		if done != nil {
			done(m.sched.Now(), arg)
		}
		if m.onFree != nil {
			m.onFree()
		}
	})
	return Reply{Accepted: true}
}

func computeOps(n int) []trace.Op {
	var ops []trace.Op
	for i := 0; i < n; i++ {
		ops = append(ops, trace.Op{NonMem: 19, Addr: uint64(i) * 64, Kind: trace.Load})
	}
	return ops
}

func run(t *testing.T, s *sim.Scheduler, c *CPU) {
	t.Helper()
	s.RunWhile(func() bool { return !c.Done() })
	if !c.Done() {
		t.Fatal("simulation drained without core finishing")
	}
}

func TestPureComputeIPCNearWidth(t *testing.T) {
	s := sim.NewScheduler()
	mem := &fixedMemory{sched: s, latency: testClock.Cycles(2)}
	c, err := New(s, mem, trace.NewSlice(computeOps(100)), cfg(0))
	if err != nil {
		t.Fatal(err)
	}
	run(t, s, c)
	if c.Stats().Retired != 2000 {
		t.Fatalf("retired = %d, want 2000", c.Stats().Retired)
	}
	ipc := c.IPC()
	if ipc < 3.5 || ipc > 4.0 {
		t.Fatalf("compute IPC = %v, want near width 4", ipc)
	}
}

func TestIPCNeverExceedsWidth(t *testing.T) {
	s := sim.NewScheduler()
	mem := &fixedMemory{sched: s, latency: testClock.Cycles(1)}
	c, _ := New(s, mem, trace.NewSlice(computeOps(50)), cfg(0))
	run(t, s, c)
	if c.IPC() > 4.0 {
		t.Fatalf("IPC = %v exceeds retire width", c.IPC())
	}
}

func TestMaxInstrsBudget(t *testing.T) {
	s := sim.NewScheduler()
	mem := &fixedMemory{sched: s, latency: testClock.Cycles(1)}
	gen, err := trace.NewRepeat(computeOps(4))
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(s, mem, gen, cfg(1000))
	run(t, s, c)
	if got := c.Stats().Retired; got != 1000 {
		t.Fatalf("retired = %d, want budget 1000", got)
	}
}

func TestIndependentMissesOverlap(t *testing.T) {
	// 8 independent loads with 500ns latency should overlap almost
	// completely; 8 dependent loads serialize to ~4000ns.
	lat := 500 * sim.Nanosecond
	runWith := func(dep bool) (sim.Time, int) {
		s := sim.NewScheduler()
		mem := &pendingMemory{sched: s, latency: lat}
		var ops []trace.Op
		for i := 0; i < 8; i++ {
			ops = append(ops, trace.Op{Addr: uint64(i) * 4096, Kind: trace.Load, DependsOnPrev: dep && i > 0})
		}
		c, _ := New(s, mem, trace.NewSlice(ops), cfg(0))
		s.RunWhile(func() bool { return !c.Done() })
		return c.FinishTime(), mem.maxOutstanding
	}
	tPar, mlpPar := runWith(false)
	tSer, mlpSer := runWith(true)
	if tPar >= tSer {
		t.Fatalf("parallel %v not faster than serial %v", tPar, tSer)
	}
	if tSer < 8*lat {
		t.Fatalf("serial chain finished in %v, faster than 8 serialized misses", tSer)
	}
	if tPar > 2*lat {
		t.Fatalf("independent misses took %v, want near one latency %v", tPar, lat)
	}
	if mlpPar < 8 {
		t.Fatalf("parallel MLP = %d, want 8", mlpPar)
	}
	if mlpSer != 1 {
		t.Fatalf("serial MLP = %d, want 1", mlpSer)
	}
}

func TestROBBoundsMLP(t *testing.T) {
	// With a 64-entry window and loads every 8 instructions, at most
	// 64/8 = 8 loads can be outstanding.
	s := sim.NewScheduler()
	mem := &pendingMemory{sched: s, latency: 2 * sim.Microsecond}
	var ops []trace.Op
	for i := 0; i < 64; i++ {
		ops = append(ops, trace.Op{NonMem: 7, Addr: uint64(i) * 4096, Kind: trace.Load})
	}
	c, _ := New(s, mem, trace.NewSlice(ops), cfg(0))
	run(t, s, c)
	if mem.maxOutstanding > 8 {
		t.Fatalf("maxOutstanding = %d, want <= 8 (ROB-bounded)", mem.maxOutstanding)
	}
}

func TestMSHRRejectionStallsAndWakes(t *testing.T) {
	s := sim.NewScheduler()
	mem := &pendingMemory{sched: s, latency: 100 * sim.Nanosecond, capacity: 2}
	var ops []trace.Op
	for i := 0; i < 16; i++ {
		ops = append(ops, trace.Op{Addr: uint64(i) * 4096, Kind: trace.Load})
	}
	c, err := New(s, mem, trace.NewSlice(ops), cfg(0))
	if err != nil {
		t.Fatal(err)
	}
	mem.onFree = c.Wake
	run(t, s, c)
	if mem.maxOutstanding > 2 {
		t.Fatalf("capacity violated: %d outstanding", mem.maxOutstanding)
	}
	// 16 misses through 2 MSHRs at 100ns: at least 8 serialized rounds.
	if c.FinishTime() < 800*sim.Nanosecond {
		t.Fatalf("finish at %v, too fast for 2-way MSHR limit", c.FinishTime())
	}
}

func TestStoresDoNotBlockRetirement(t *testing.T) {
	// Stores whose fills take enormous time must not stall the core.
	s := sim.NewScheduler()
	mem := &pendingMemory{sched: s, latency: sim.Millisecond}
	ops := []trace.Op{
		{NonMem: 3, Addr: 0x1000, Kind: trace.Store},
		{NonMem: 3, Addr: 0x2000, Kind: trace.Store},
		{NonMem: 3, Addr: 0x3000, Kind: trace.Store},
	}
	c, _ := New(s, mem, trace.NewSlice(ops), cfg(0))
	run(t, s, c)
	if c.FinishTime() > 100*testClock.Period() {
		t.Fatalf("stores stalled retirement: finish at %v", c.FinishTime())
	}
	if c.Stats().Stores != 3 {
		t.Fatalf("stores = %d", c.Stats().Stores)
	}
}

func TestSoftwarePrefetchNonBlocking(t *testing.T) {
	s := sim.NewScheduler()
	mem := &pendingMemory{sched: s, latency: sim.Millisecond}
	ops := []trace.Op{
		{Addr: 0x1000, Kind: trace.SWPrefetch},
		{NonMem: 10, Addr: 0x2000, Kind: trace.SWPrefetch},
	}
	c, _ := New(s, mem, trace.NewSlice(ops), cfg(0))
	run(t, s, c)
	if c.Stats().Prefetches != 2 {
		t.Fatalf("prefetches = %d, want 2", c.Stats().Prefetches)
	}
	if c.FinishTime() > 100*testClock.Period() {
		t.Fatalf("prefetches stalled retirement: finish at %v", c.FinishTime())
	}
}

func TestSoftwarePrefetchDroppedWhenSaturated(t *testing.T) {
	s := sim.NewScheduler()
	mem := &pendingMemory{sched: s, latency: 10 * sim.Microsecond, capacity: 1}
	ops := []trace.Op{
		{Addr: 0x1000, Kind: trace.Load},       // occupies the only slot
		{Addr: 0x2000, Kind: trace.SWPrefetch}, // must be dropped
	}
	c, _ := New(s, mem, trace.NewSlice(ops), cfg(0))
	mem.onFree = c.Wake
	run(t, s, c)
	if c.Stats().DroppedPrefetches != 1 {
		t.Fatalf("dropped = %d, want 1", c.Stats().DroppedPrefetches)
	}
}

func TestDependentLoadOnCompletedProducer(t *testing.T) {
	// A dependent load whose producer already completed issues without
	// extra delay.
	s := sim.NewScheduler()
	mem := &fixedMemory{sched: s, latency: testClock.Cycles(3)}
	ops := []trace.Op{
		{Addr: 0x1000, Kind: trace.Load},
		{NonMem: 40, Addr: 0x2000, Kind: trace.Load, DependsOnPrev: true},
	}
	c, _ := New(s, mem, trace.NewSlice(ops), cfg(0))
	run(t, s, c)
	// 42 instructions at width 4 dominate; the dependence adds ~3 cycles.
	if c.Cycles() > 25 {
		t.Fatalf("cycles = %d, dependence on completed producer over-stalled", c.Cycles())
	}
}

// TestDependentLoadOnRecycledProducerSlot checks the ROB ring's
// ownership rule: once a load retires and a younger instruction takes
// its slot, a load depending on it issues at dispatch. It must not
// wait on the slot's new occupant, whether that is a plain instruction
// completing next cycle or the dependent load itself.
func TestDependentLoadOnRecycledProducerSlot(t *testing.T) {
	const lat = 100 * sim.Nanosecond
	for _, tc := range []struct {
		name string
		rob  int
		// plain is the number of plain instructions between the
		// producer and the dependent load.
		plain int
	}{
		// ROB of 2: the producer and one plain instruction fill it;
		// after both retire the dependent load lands in the
		// producer's slot.
		{"dependent takes the slot", 2, 1},
		// ROB of 3: after the producer and two plain instructions
		// retire, a plain instruction (done next cycle) takes the
		// producer's slot and the dependent load the third.
		{"plain instruction takes the slot", 3, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.NewScheduler()
			mem := &pendingMemory{sched: s, latency: lat}
			ops := []trace.Op{
				{Addr: 0x1000, Kind: trace.Load},
				{NonMem: tc.plain, Addr: 0x2000, Kind: trace.Load, DependsOnPrev: true},
			}
			c, err := New(s, mem, trace.NewSlice(ops), Config{Width: 4, ROBSize: tc.rob, StoreBuffer: 4, Clock: testClock})
			if err != nil {
				t.Fatal(err)
			}
			run(t, s, c)
			// The producer completes at lat; the core's next step
			// retires it and dispatches the dependent load, which
			// must reach memory in that same step.
			want := []sim.Time{0, testClock.NextEdge(lat)}
			if len(mem.issued) != 2 || mem.issued[0] != want[0] || mem.issued[1] != want[1] {
				t.Fatalf("accesses issued at %v, want %v", mem.issued, want)
			}
		})
	}
}

func TestOnDoneFiresOnce(t *testing.T) {
	s := sim.NewScheduler()
	mem := &fixedMemory{sched: s, latency: testClock.Cycles(1)}
	c, _ := New(s, mem, trace.NewSlice(computeOps(5)), cfg(0))
	n := 0
	c.OnDone = func() { n++ }
	s.Run()
	if n != 1 {
		t.Fatalf("OnDone fired %d times", n)
	}
	if !c.Done() || c.FinishTime() == 0 {
		t.Fatal("Done/FinishTime not set")
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() (sim.Time, uint64) {
		s := sim.NewScheduler()
		mem := &pendingMemory{sched: s, latency: 77 * sim.Nanosecond, capacity: 4}
		var ops []trace.Op
		for i := 0; i < 200; i++ {
			ops = append(ops, trace.Op{
				NonMem: i % 9, Addr: uint64(i*193) % (1 << 20) * 64,
				Kind: trace.Kind(i % 3), DependsOnPrev: i%5 == 0,
			})
		}
		c, _ := New(s, mem, trace.NewSlice(ops), cfg(0))
		mem.onFree = c.Wake
		s.RunWhile(func() bool { return !c.Done() })
		return c.FinishTime(), c.Stats().Retired
	}
	t1, r1 := runOnce()
	t2, r2 := runOnce()
	if t1 != t2 || r1 != r2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", t1, r1, t2, r2)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Width: 0, ROBSize: 64, StoreBuffer: 8, Clock: testClock},
		{Width: 4, ROBSize: 0, StoreBuffer: 8, Clock: testClock},
		{Width: 4, ROBSize: 64, StoreBuffer: 0, Clock: testClock},
		{Width: 4, ROBSize: 64, StoreBuffer: 8},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", c)
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	s := sim.NewScheduler()
	mem := &fixedMemory{sched: s, latency: 0}
	c, _ := New(s, mem, trace.NewSlice(nil), cfg(0))
	s.Run()
	if !c.Done() || c.Stats().Retired != 0 {
		t.Fatal("empty trace did not finish cleanly")
	}
}
