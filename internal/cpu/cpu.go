// Package cpu models the processing core as a trace-driven out-of-order
// window: a reorder buffer of fixed size, a fixed dispatch/retire
// width, and dependence-aware load issue.
//
// The model deliberately omits fetch, branch prediction, and functional
// units: for a memory-system study the core matters only as (a) a
// generator of overlapped memory accesses whose parallelism is bounded
// by the window and by load dependences, and (b) a consumer whose IPC
// degrades when retirement stalls on outstanding misses. Independent
// loads in the window overlap their misses (memory-level parallelism);
// a load marked dependent on its predecessor cannot issue until that
// load's data returns, which serializes pointer-chasing miss chains.
// Stores retire through a bounded store buffer without stalling
// retirement. This is the minimal structure that reproduces both
// latency-bound and bandwidth-bound behaviour.
package cpu

import (
	"fmt"

	"memsim/internal/sim"
	"memsim/internal/trace"
)

// Reply is the memory hierarchy's synchronous answer to an access.
type Reply struct {
	// Accepted is false when the hierarchy cannot take the access now
	// (MSHRs full); the core must retry after Wake.
	Accepted bool
	// Done is true when the completion time is known immediately
	// (cache hit); At holds it. When false, the completion callback
	// passed to Access fires later.
	Done bool
	// At is the completion time when Done.
	At sim.Time
}

// Memory is the interface the core drives. Access initiates a memory
// operation at the current simulated time. For loads done is non-nil:
// when the reply is not Done, the hierarchy invokes done(at, arg) once
// the data arrives. arg is always a pointer (boxing it allocates
// nothing), so the completion path needs no per-access closure.
type Memory interface {
	Access(addr uint64, kind trace.Kind, done sim.Callback, arg any) Reply
}

// Config parameterizes the core.
type Config struct {
	// Width is the dispatch and retire width per cycle.
	Width int
	// SustainedIPC, when positive and below Width, bounds average
	// dispatch throughput. It stands in for the instruction-level-
	// parallelism limits (dependence chains, functional-unit and fetch
	// constraints) that keep real codes well under the machine width;
	// without it every compute phase would run at exactly Width IPC.
	// Zero means no limit beyond Width.
	SustainedIPC float64
	// ROBSize is the instruction window (the paper's 64-entry RUU).
	ROBSize int
	// StoreBuffer bounds retired-but-unissued stores plus other
	// accesses awaiting MSHRs before dispatch stalls.
	StoreBuffer int
	// Clock is the core clock (1.6 GHz in the base system).
	Clock sim.Clock
	// MaxInstrs ends the run after this many dispatched instructions;
	// zero means run until the trace is exhausted.
	MaxInstrs uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Width <= 0 {
		return fmt.Errorf("cpu: width %d invalid", c.Width)
	}
	if c.ROBSize <= 0 {
		return fmt.Errorf("cpu: ROB size %d invalid", c.ROBSize)
	}
	if c.StoreBuffer <= 0 {
		return fmt.Errorf("cpu: store buffer %d invalid", c.StoreBuffer)
	}
	if c.SustainedIPC < 0 {
		return fmt.Errorf("cpu: sustained IPC %v invalid", c.SustainedIPC)
	}
	if c.Clock.Period() <= 0 {
		return fmt.Errorf("cpu: clock not set")
	}
	return nil
}

// Stats counts core activity.
type Stats struct {
	Retired    uint64
	Loads      uint64
	Stores     uint64
	Prefetches uint64 // software prefetch instructions
	// DroppedPrefetches counts software prefetches discarded because
	// the hierarchy was saturated.
	DroppedPrefetches uint64
}

// entry is one in-flight instruction: a value slot of the reorder
// buffer ring, reused once its instruction retires. seq (the dispatch
// count) identifies the occupant, so a pointer kept past retirement
// can tell that its slot now holds a younger instruction.
type entry struct {
	doneAt     sim.Time // sim.MaxTime while pending
	op         trace.Op
	seq        uint64
	dependents []*entry // dependence-deferred loads waiting on this load
}

// release is a batch of dependents handed to one scheduled releaseCB
// event; batches are recycled through the core's freelist.
type release struct{ deps []*entry }

// access is an operation accepted into the window but refused by the
// hierarchy. It copies the operation because a blocked store retires
// (and its ROB slot is reused) before it issues; load is the waiting
// ROB entry, nil for stores.
type access struct {
	op   trace.Op
	load *entry
}

// CPU is the core model. Create with New; it schedules itself on the
// shared Scheduler and reports completion through the Done callback.
type CPU struct {
	cfg   Config
	sched *sim.Scheduler
	mem   Memory
	gen   trace.Generator

	// Reorder buffer: a ring of entries, oldest at head.
	rob   []entry
	head  int
	count int

	// blocked holds accesses accepted into the window but refused by
	// the hierarchy (MSHRs full), in issue order.
	blocked ring

	// lastLoad is the most recent load, for dependence chaining, and
	// lastLoadSeq its dispatch number: when lastLoad.seq differs, the
	// load retired and its slot was reused.
	lastLoad    *entry
	lastLoadSeq uint64

	// freeRel is the freelist of dependent-release batches.
	freeRel []*release

	// Instruction stream state.
	nonMemLeft int
	curOp      trace.Op
	haveOp     bool
	exhausted  bool
	dispatched uint64

	stepArmed bool
	finished  bool
	finishAt  sim.Time

	// Pre-bound scheduler callbacks (see sim.Callback): bound once at
	// construction so the per-event hot paths schedule without
	// allocating a closure.
	stepCB    sim.Callback
	issueCB   sim.Callback // arg: *entry
	releaseCB sim.Callback // arg: *release, dependents to issue
	loadCB    sim.Callback // arg: *entry, the load whose data arrived

	// credits implements the SustainedIPC dispatch limiter: each cycle
	// adds SustainedIPC credits (capped at Width) and each dispatched
	// instruction consumes one.
	credits float64

	// OnDone, if set, fires once when the core retires its last
	// instruction.
	OnDone func()

	// Milestone and OnMilestone implement measurement warmup: the
	// callback fires once, at the end of the first cycle in which
	// retired instructions reach Milestone.
	Milestone   uint64
	OnMilestone func()

	stats Stats
}

// New builds a core over the scheduler, memory, and instruction stream,
// and arms it to begin executing at time zero.
func New(sched *sim.Scheduler, mem Memory, gen trace.Generator, cfg Config) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &CPU{
		cfg:   cfg,
		sched: sched,
		mem:   mem,
		gen:   gen,
		rob:   make([]entry, cfg.ROBSize),
	}
	c.stepCB = func(sim.Time, any) { c.step() }
	c.issueCB = func(_ sim.Time, arg any) { c.issue(arg.(*entry)) }
	c.releaseCB = func(_ sim.Time, arg any) {
		r := arg.(*release)
		for _, d := range r.deps {
			c.issue(d)
		}
		r.deps = r.deps[:0]
		c.freeRel = append(c.freeRel, r)
		c.Wake()
	}
	c.loadCB = func(at sim.Time, arg any) { c.completeLoad(arg.(*entry), at) }
	c.armStep(0)
	return c, nil
}

// Stats returns a snapshot of the counters.
func (c *CPU) Stats() Stats { return c.stats }

// Done reports whether the core has retired its final instruction.
func (c *CPU) Done() bool { return c.finished }

// FinishTime reports when the final instruction retired; valid only
// once Done.
func (c *CPU) FinishTime() sim.Time { return c.finishAt }

// Cycles reports the executed cycle count (through the finish time once
// done, else through now).
func (c *CPU) Cycles() int64 {
	t := c.sched.Now()
	if c.finished {
		t = c.finishAt
	}
	return c.cfg.Clock.ToCyclesCeil(t)
}

// IPC reports retired instructions per cycle so far.
func (c *CPU) IPC() float64 {
	cy := c.Cycles()
	if cy == 0 {
		return 0
	}
	return float64(c.stats.Retired) / float64(cy)
}

// DebugState summarizes internal progress state for deadlock
// diagnostics.
func (c *CPU) DebugState() string {
	head := "empty"
	if c.count > 0 {
		e := &c.rob[c.head]
		head = fmt.Sprintf("kind=%v addr=%#x doneAt=%v dep=%v deferredDeps=%d",
			e.op.Kind, e.op.Addr, e.doneAt, e.op.DependsOnPrev, len(e.dependents))
	}
	return fmt.Sprintf("count=%d blocked=%d exhausted=%v dispatched=%d stepArmed=%v head{%s}",
		c.count, c.blocked.len(), c.exhausted, c.dispatched, c.stepArmed, head)
}

// Wake nudges a stalled core, e.g. after the hierarchy frees an MSHR.
func (c *CPU) Wake() {
	if !c.finished {
		c.armStep(0)
	}
}

// armStep schedules a step at the next cycle edge at or after
// now+delay, if one is not already scheduled.
func (c *CPU) armStep(delay sim.Time) {
	if c.stepArmed {
		return
	}
	c.stepArmed = true
	at := c.cfg.Clock.NextEdge(c.sched.Now() + delay)
	c.sched.AtCall(at, c.stepCB, nil)
}

// nextInstr pulls the next instruction from the stream. It returns
// (op, true) for a memory operation, (zero, false) for a plain
// instruction, and sets c.exhausted at end of stream or budget.
func (c *CPU) nextInstr() (trace.Op, bool, bool) {
	if c.cfg.MaxInstrs > 0 && c.dispatched >= c.cfg.MaxInstrs {
		c.exhausted = true
		return trace.Op{}, false, false
	}
	if c.nonMemLeft > 0 {
		c.nonMemLeft--
		return trace.Op{}, false, true
	}
	if c.haveOp {
		op := c.curOp
		c.haveOp = false
		return op, true, true
	}
	op, ok := c.gen.Next()
	if !ok {
		c.exhausted = true
		return trace.Op{}, false, false
	}
	c.nonMemLeft = op.NonMem
	c.curOp = op
	c.haveOp = true
	return c.nextInstr()
}

// completeLoad records a load's data arrival and releases dependents.
// Issuing them cannot add dependents to e (its doneAt is now known), so
// the list is truncated in place and keeps its backing array.
func (c *CPU) completeLoad(e *entry, at sim.Time) {
	e.doneAt = at
	for _, d := range e.dependents {
		c.issue(d)
	}
	e.dependents = e.dependents[:0]
	c.Wake()
}

// issue sends an entry's memory operation to the hierarchy, or parks it
// on the blocked list when resources are exhausted.
func (c *CPU) issue(e *entry) {
	a := access{op: e.op}
	if e.op.Kind == trace.Load {
		a.load = e
	}
	// A non-empty blocked list preserves issue order behind it.
	if c.blocked.len() > 0 || !c.tryIssue(a) {
		c.blocked.push(a)
	}
}

// tryIssue attempts the access; it reports false on resource rejection.
func (c *CPU) tryIssue(a access) bool {
	e := a.load
	if e == nil {
		return c.mem.Access(a.op.Addr, a.op.Kind, nil, nil).Accepted
	}
	rep := c.mem.Access(a.op.Addr, a.op.Kind, c.loadCB, e)
	if !rep.Accepted {
		return false
	}
	if rep.Done {
		e.doneAt = rep.At
		// Dependents may have piled up while this load sat deferred or
		// blocked; release them when its data is available. The batch
		// takes over e's list: e can retire, and its slot be reused,
		// before the release fires.
		if len(e.dependents) > 0 {
			var r *release
			if n := len(c.freeRel); n > 0 {
				r = c.freeRel[n-1]
				c.freeRel = c.freeRel[:n-1]
			} else {
				r = new(release)
			}
			r.deps, e.dependents = e.dependents, r.deps
			c.sched.AtCall(rep.At, c.releaseCB, r)
		}
	}
	return true
}

// step runs one core cycle: retire, retry blocked accesses, dispatch,
// and re-arm.
func (c *CPU) step() {
	c.stepArmed = false
	if c.finished {
		return
	}
	now := c.sched.Now()
	period := c.cfg.Clock.Period()

	// Retire up to Width completed instructions in order.
	for n := 0; n < c.cfg.Width && c.count > 0; n++ {
		if c.rob[c.head].doneAt > now {
			break
		}
		c.head = (c.head + 1) % c.cfg.ROBSize
		c.count--
		c.stats.Retired++
	}
	if c.OnMilestone != nil && c.stats.Retired >= c.Milestone {
		f := c.OnMilestone
		c.OnMilestone = nil
		f()
	}

	// Retry blocked accesses in order.
	for c.blocked.len() > 0 && c.tryIssue(c.blocked.front()) {
		c.blocked.pop()
	}

	// Dispatch up to Width instructions, throttled by the sustained-IPC
	// credit pool when one is configured.
	limit := float64(c.cfg.Width)
	if c.cfg.SustainedIPC > 0 && c.cfg.SustainedIPC < limit {
		c.credits += c.cfg.SustainedIPC
		if c.credits > limit {
			c.credits = limit
		}
	} else {
		c.credits = limit
	}
	for n := 0; n < c.cfg.Width && c.credits >= 1 && c.count < c.cfg.ROBSize && !c.exhausted && c.blocked.len() < c.cfg.StoreBuffer; n++ {
		c.credits--
		op, isMem, ok := c.nextInstr()
		if !ok {
			break
		}
		c.dispatched++
		// Take the tail slot; it holds no live instruction.
		e := &c.rob[(c.head+c.count)%c.cfg.ROBSize]
		e.doneAt, e.op, e.seq = now+period, op, c.dispatched
		e.dependents = e.dependents[:0]
		if isMem {
			switch op.Kind {
			case trace.Load:
				c.stats.Loads++
				e.doneAt = sim.MaxTime
				prod := c.lastLoad
				if prod != nil && prod.seq != c.lastLoadSeq {
					// The producer retired and a younger instruction
					// (maybe e itself) took its slot: its data is in.
					prod = nil
				}
				c.lastLoad, c.lastLoadSeq = e, e.seq
				if op.DependsOnPrev && prod != nil && prod.doneAt > now {
					if prod.doneAt == sim.MaxTime {
						// Producer data time unknown; issue on completion.
						prod.dependents = append(prod.dependents, e)
					} else {
						// Producer completes at a known future time.
						c.sched.AtCall(prod.doneAt, c.issueCB, e)
					}
				} else {
					c.issue(e)
				}
			case trace.Store:
				c.stats.Stores++
				c.issue(e)
			case trace.SWPrefetch:
				c.stats.Prefetches++
				// Prefetches are hints: drop rather than block.
				if c.blocked.len() > 0 || !c.tryIssue(access{op: op}) {
					c.stats.DroppedPrefetches++
				}
			}
		}
		c.count++
	}

	// Finished?
	if c.exhausted && c.count == 0 {
		c.finished = true
		c.finishAt = now
		if c.OnDone != nil {
			c.OnDone()
		}
		return
	}

	// Re-arm: next cycle if progress is possible then; otherwise wait
	// for the head's known completion; otherwise idle until a callback
	// wakes us.
	next := now + period
	canDispatch := !c.exhausted && c.count < c.cfg.ROBSize && c.blocked.len() < c.cfg.StoreBuffer
	canRetire := c.count > 0 && c.rob[c.head].doneAt <= next
	switch {
	case canDispatch || canRetire:
		c.armStep(period)
	case c.count > 0 && c.rob[c.head].doneAt < sim.MaxTime:
		c.armStep(c.rob[c.head].doneAt - now)
	}
}

// ring is a FIFO of blocked accesses over a circular buffer that
// doubles when full, so steady-state pushes and pops never allocate.
type ring struct {
	buf  []access
	head int
	n    int
}

func (q *ring) len() int      { return q.n }
func (q *ring) front() access { return q.buf[q.head] }

func (q *ring) push(a access) {
	if q.n == len(q.buf) {
		buf := make([]access, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			buf[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = a
	q.n++
}

func (q *ring) pop() {
	q.buf[q.head] = access{}
	q.head = (q.head + 1) % len(q.buf)
	q.n--
}
