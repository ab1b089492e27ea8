// Package memctrl implements the integrated memory controller: request
// queues for demand misses and writebacks, and the access prioritizer
// of Figure 4, which forwards any pending L2 demand miss or writeback
// before it will forward a prefetch request.
//
// Demand misses issue strictly in order; the controller pipelines
// requests on the Rambus channel but does not reorder or interleave
// commands from multiple requests (Section 4.4). Prefetches are pulled
// from a PrefetchSource only at instants when the channel is otherwise
// completely idle, so they add channel contention only when a demand
// miss arrives while a prefetch is already in progress.
package memctrl

import (
	"fmt"

	"memsim/internal/addrmap"
	"memsim/internal/channel"
	"memsim/internal/obs"
	"memsim/internal/sim"
)

// Request is one block transfer to schedule on the memory channel.
type Request struct {
	// Addr is the block-aligned physical address.
	Addr uint64
	// Size is the transfer length in bytes (the L2 block size).
	Size uint64
	// Class labels the request for priority and statistics.
	Class channel.Class
	// Write marks writebacks (data flows to the devices).
	Write bool
	// OnFirstData, if non-nil, fires as OnFirstData(at, Arg) when the
	// first data packet completes: the critical word is available.
	OnFirstData sim.Callback
	// OnComplete, if non-nil, fires as OnComplete(at, Arg) when the
	// last data packet completes: the full block has transferred.
	OnComplete sim.Callback
	// OnRelease, if non-nil, fires as OnRelease(now, Arg) when a
	// request with neither callback (a writeback) issues: the backend
	// keeps no reference past that point, so the submitter may reuse
	// the request. A request with callbacks is the submitter's again
	// once its last callback has fired. A tracking controller (see
	// EnableTracking) gives every request an OnComplete, so there
	// OnRelease never fires.
	OnRelease sim.Callback
	// Arg is the callbacks' payload. Like every sim.Callback argument
	// it must be a pointer, so storing it allocates nothing.
	Arg any

	submitted sim.Time
}

// PrefetchSource supplies prefetch requests on demand. NextPrefetch is
// invoked only when the channel is idle and no demand miss or
// writeback is pending; returning ok=false means nothing to prefetch.
type PrefetchSource interface {
	NextPrefetch(now sim.Time) (*Request, bool)
}

// Stats counts controller activity.
type Stats struct {
	Issued [3]uint64 // by class
	// DemandLatency accumulates submit-to-critical-word time for
	// demand misses; divide by Issued[Demand] for the mean.
	DemandLatency sim.Time
	// DemandQueueWait accumulates submit-to-issue time.
	DemandQueueWait sim.Time
	// PrefetchesBehindDemand counts demand misses that arrived while a
	// prefetch transfer was still occupying the channel.
	PrefetchesBehindDemand uint64
	// MaxDemandQueue is the demand queue's high-water mark.
	MaxDemandQueue int
	// Reordered counts requests issued ahead of older queue entries by
	// the open-row-first extension.
	Reordered uint64
}

// Delta returns the counters accumulated since base was captured.
// MaxDemandQueue remains the run-wide high-water mark.
func (s Stats) Delta(base Stats) Stats {
	d := Stats{
		DemandLatency:          s.DemandLatency - base.DemandLatency,
		DemandQueueWait:        s.DemandQueueWait - base.DemandQueueWait,
		PrefetchesBehindDemand: s.PrefetchesBehindDemand - base.PrefetchesBehindDemand,
		MaxDemandQueue:         s.MaxDemandQueue,
		Reordered:              s.Reordered - base.Reordered,
	}
	for i := range s.Issued {
		d.Issued[i] = s.Issued[i] - base.Issued[i]
	}
	return d
}

// Add returns the field-wise sum of two counter sets (aggregating
// multiple controllers); MaxDemandQueue takes the larger value.
func (s Stats) Add(o Stats) Stats {
	r := Stats{
		DemandLatency:          s.DemandLatency + o.DemandLatency,
		DemandQueueWait:        s.DemandQueueWait + o.DemandQueueWait,
		PrefetchesBehindDemand: s.PrefetchesBehindDemand + o.PrefetchesBehindDemand,
		MaxDemandQueue:         max(s.MaxDemandQueue, o.MaxDemandQueue),
		Reordered:              s.Reordered + o.Reordered,
	}
	for i := range s.Issued {
		r.Issued[i] = s.Issued[i] + o.Issued[i]
	}
	return r
}

// MeanDemandLatency reports the average demand miss latency.
func (s Stats) MeanDemandLatency() sim.Time {
	if s.Issued[channel.Demand] == 0 {
		return 0
	}
	return s.DemandLatency / sim.Time(s.Issued[channel.Demand])
}

// Controller schedules requests onto one logical Rambus channel.
type Controller struct {
	sched  *sim.Scheduler
	ch     *channel.Channel
	mapper addrmap.Mapper

	demand     []*Request
	writebacks []*Request
	source     PrefetchSource

	// gate is the earliest time the next issue decision may be made:
	// the previous access's last command packet placement.
	gate sim.Time
	// armed tracks whether a decision event is scheduled.
	armed bool
	// prefetchInFlight is the completion time of the last prefetch
	// issued, used to detect demand misses arriving mid-prefetch.
	prefetchInFlight sim.Time

	// policy picks which queued demand or writeback issues next. FCFS
	// (the default) is the paper's strict in-order issue (Section 5);
	// FRFCFS variants implement the "reordering demand misses and
	// writebacks" extension from its future work (Section 6).
	policy IssuePolicy
	// rowOpenFn is the pre-bound open-row probe handed to the policy,
	// bound once so the hot path allocates no closures.
	rowOpenFn func(*Request) bool

	// Counterfactual decision tracing (see EnableCounterfactual): the
	// interned trace id of the primary policy, the armed alternative
	// policies, and the test-only decision hook. All empty/nil unless
	// armed; contested decisions then pay for the snapshot.
	policyID   uint64
	alts       []schedAlt
	onDecision func(DecisionRecord)

	// decideCB is the pre-bound decision callback (see sim.Callback),
	// bound once at construction so arming costs no allocation.
	decideCB sim.Callback
	// spans is the reused span buffer of the access being issued; the
	// channel does not keep it.
	spans []addrmap.Span

	// pending, when tracking is enabled, counts queued plus in-flight
	// transfers per block address so the paranoid invariant checker can
	// verify that every MSHR entry has a live transfer behind it. nil
	// unless EnableTracking was called; the hot path pays nothing by
	// default.
	pending map[uint64]int

	stats Stats

	// Observability hooks (see Observe); nil-safe when observability
	// is off.
	tr        *obs.Tracer
	group     int
	demandLat *obs.Histogram
}

// New wires a controller to a channel and address mapping.
func New(sched *sim.Scheduler, ch *channel.Channel, mapper addrmap.Mapper) *Controller {
	c := &Controller{sched: sched, ch: ch, mapper: mapper, policy: FCFS{}}
	c.decideCB = func(sim.Time, any) { c.decide() }
	c.rowOpenFn = func(r *Request) bool { return c.ch.RowOpen(c.mapper.Map(r.Addr)) }
	return c
}

// SetPrefetchSource registers the prefetch engine hook. A nil source
// disables prefetching.
func (c *Controller) SetPrefetchSource(s PrefetchSource) { c.source = s }

// SetPolicy installs the issue policy; nil restores the paper's
// strict in-order FCFS.
func (c *Controller) SetPolicy(p IssuePolicy) {
	if p == nil {
		p = FCFS{}
	}
	c.policy = p
}

// Policy reports the installed issue policy.
func (c *Controller) Policy() IssuePolicy { return c.policy }

// EnableCounterfactual arms per-decision divergence tracing: every
// contested issue decision (more than one queued request) additionally
// evaluates each alternative policy on the same queue snapshot and
// emits one EvSchedDecision plus one EvSchedAlt per alternative. Call
// after Observe so the policy names intern onto the run's tracer.
func (c *Controller) EnableCounterfactual(alts []IssuePolicy) {
	c.policyID = c.tr.InternPolicy(c.policy.Name())
	c.alts = c.alts[:0]
	for _, p := range alts {
		c.alts = append(c.alts, schedAlt{pol: p, id: c.tr.InternPolicy(p.Name())})
	}
}

// OnDecision registers a hook invoked with every contested issue
// decision's inputs and outcome — the testing seam behind the
// counterfactual round-trip contract.
func (c *Controller) OnDecision(fn func(DecisionRecord)) { c.onDecision = fn }

// Stats returns a snapshot of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// Channel exposes the attached channel (for bank-state queries and
// utilization statistics).
func (c *Controller) Channel() *channel.Channel { return c.ch }

// Mapper exposes the address mapping.
func (c *Controller) Mapper() addrmap.Mapper { return c.mapper }

// QueuedDemands reports the current demand queue length.
func (c *Controller) QueuedDemands() int { return len(c.demand) }

// EnableTracking turns on per-address accounting of queued and
// in-flight transfers, the substrate of the paranoid invariant
// "every MSHR entry has a live transfer". Off by default.
func (c *Controller) EnableTracking() {
	if c.pending == nil {
		c.pending = make(map[uint64]int)
	}
}

// HasPending reports whether the address has a queued or in-flight
// transfer. Only meaningful after EnableTracking.
func (c *Controller) HasPending(addr uint64) bool { return c.pending[addr] > 0 }

// track registers a transfer for addr and returns a completion wrapper
// that releases the registration strictly after the original callback
// runs, so observers between events never see an MSHR entry outlive
// its transfer accounting.
func (c *Controller) track(addr uint64, inner sim.Callback) sim.Callback {
	c.pending[addr]++
	return func(at sim.Time, arg any) {
		if inner != nil {
			inner(at, arg)
		}
		if c.pending[addr]--; c.pending[addr] <= 0 {
			delete(c.pending, addr)
		}
	}
}

// DebugState summarizes the controller for diagnostic dumps.
func (c *Controller) DebugState(now sim.Time) string {
	s := fmt.Sprintf("demand=%d writebacks=%d armed=%v gate=now%+v issued=%v",
		len(c.demand), len(c.writebacks), c.armed, c.gate-now, c.stats.Issued)
	if c.pending != nil {
		s += fmt.Sprintf(" tracked=%d", len(c.pending))
	}
	return s
}

// Pending reports whether any request is queued or a decision event is
// armed (used by run loops to detect quiescence).
func (c *Controller) Pending() bool {
	return len(c.demand) > 0 || len(c.writebacks) > 0 || c.armed
}

// Submit enqueues a request. Demand and (in the unscheduled-prefetch
// configuration) prefetch requests share the in-order demand queue;
// writebacks wait in their own lower-priority queue.
func (c *Controller) Submit(r *Request) {
	r.submitted = c.sched.Now()
	if c.pending != nil {
		r.OnComplete = c.track(r.Addr, r.OnComplete)
	}
	if r.Class == channel.Writeback {
		c.writebacks = append(c.writebacks, r)
	} else {
		if r.Class == channel.Demand && c.sched.Now() < c.prefetchInFlight {
			c.tr.Instant(obs.EvDemandBypass, c.group, r.Addr, 0)
			c.stats.PrefetchesBehindDemand++
		}
		c.demand = append(c.demand, r)
		if len(c.demand) > c.stats.MaxDemandQueue {
			c.stats.MaxDemandQueue = len(c.demand)
		}
	}
	c.arm()
}

// Kick nudges an idle controller to re-evaluate its prefetch source,
// e.g. after a new region enters the prefetch queue.
func (c *Controller) Kick() { c.arm() }

// arm schedules a decision at the gate time if one is not already
// scheduled.
func (c *Controller) arm() {
	if c.armed {
		return
	}
	c.armed = true
	c.sched.AtCall(c.gate, c.decideCB, nil)
}

// decide is the access prioritizer: demand misses first, then
// writebacks, then — only on an idle channel — a prefetch.
func (c *Controller) decide() {
	c.armed = false
	now := c.sched.Now()

	var r *Request
	switch {
	case len(c.demand) > 0:
		r = c.pop(&c.demand)
	case len(c.writebacks) > 0:
		r = c.pop(&c.writebacks)
	default:
		if c.source == nil {
			return
		}
		// Prefetch when the channel would otherwise go idle: no demand
		// miss or writeback is pending at this decision point. Prefetch
		// commands pipeline back to back, so prefetching can drive the
		// channel to full utilization (swim reaches 96% command-channel
		// utilization in Section 4.4); a demand miss arriving mid-
		// prefetch waits only for the current access's command packets.
		pr, ok := c.source.NextPrefetch(now)
		if !ok {
			return
		}
		r = pr
		r.submitted = now
		c.tr.Instant(obs.EvPrefetchIssue, c.group, r.Addr, 0)
		if c.pending != nil {
			r.OnComplete = c.track(r.Addr, r.OnComplete)
		}
	}

	c.spans = addrmap.AppendSpans(c.spans[:0], c.mapper, r.Addr, r.Size)
	res := c.ch.Access(now, c.spans, r.Class, r.Write)
	c.stats.Issued[r.Class]++
	if r.Class == channel.Demand {
		c.stats.DemandLatency += res.FirstData - r.submitted
		c.stats.DemandQueueWait += now - r.submitted
		c.demandLat.Observe(float64(res.FirstData-r.submitted) / float64(sim.Nanosecond))
	}
	if r.Class == channel.Prefetch && res.LastData > c.prefetchInFlight {
		c.prefetchInFlight = res.LastData
	}
	if r.OnFirstData != nil {
		c.sched.AtCall(res.FirstData, fireFirstData, r)
	}
	if r.OnComplete != nil {
		c.sched.AtCall(res.LastData, fireComplete, r)
	} else if r.OnFirstData == nil && r.OnRelease != nil {
		r.OnRelease(now, r.Arg)
	}

	// The next decision may be made once this access's command packets
	// have all been placed.
	c.gate = res.CmdDone
	if len(c.demand) > 0 || len(c.writebacks) > 0 || c.source != nil {
		c.arm()
	}
}

// fireFirstData and fireComplete are the completion dispatchers: the
// scheduled event carries the *Request as its payload, so completion
// scheduling allocates nothing. The fire time equals the scheduled
// channel-result time (Access never returns past times), matching the
// timestamps the request callbacks were promised.
func fireFirstData(at sim.Time, arg any) {
	r := arg.(*Request)
	r.OnFirstData(at, r.Arg)
}

func fireComplete(at sim.Time, arg any) {
	r := arg.(*Request)
	r.OnComplete(at, r.Arg)
}

// pop removes and returns the next request from the queue as chosen by
// the issue policy. With a single queued request the policy is not
// consulted — every policy would pick it, and the uncontested case is
// the hot path.
func (c *Controller) pop(q *[]*Request) *Request {
	idx := 0
	if len(*q) > 1 {
		idx = c.policy.Pick(*q, c.rowOpenFn)
		if idx > 0 {
			c.stats.Reordered++
		}
		if len(c.alts) > 0 || c.onDecision != nil {
			c.recordDecision(*q, idx)
		}
	}
	r := (*q)[idx]
	copy((*q)[idx:], (*q)[idx+1:])
	*q = (*q)[:len(*q)-1]
	return r
}

// recordDecision snapshots a contested decision's inputs, replays each
// armed alternative policy on the snapshot, and emits the
// counterfactual trace events. Alternatives see the recorded open-row
// bits — not the live channel — so the emitted trace equals the
// recorded inputs replayed offline, which the round-trip test checks.
func (c *Controller) recordDecision(q []*Request, chosen int) {
	rec := DecisionRecord{
		Addrs:  make([]uint64, len(q)),
		Open:   make([]bool, len(q)),
		Chosen: chosen,
	}
	for i, r := range q {
		rec.Addrs[i] = r.Addr
		rec.Open[i] = c.rowOpenFn(r)
	}
	snapOpen := func(r *Request) bool {
		for i := range q {
			if q[i] == r {
				return rec.Open[i]
			}
		}
		return false
	}
	c.tr.Instant(obs.EvSchedDecision, c.group, q[chosen].Addr, c.policyID)
	for _, a := range c.alts {
		pick := a.pol.Pick(q, snapOpen)
		rec.Alts = append(rec.Alts, AltPick{Name: a.pol.Name(), Chosen: pick})
		var agree uint64
		if pick == chosen {
			agree = 1
		}
		c.tr.Instant(obs.EvSchedAlt, c.group, q[pick].Addr, a.id<<1|agree)
	}
	if c.onDecision != nil {
		c.onDecision(rec)
	}
}
