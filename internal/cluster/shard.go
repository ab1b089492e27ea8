package cluster

import (
	"cmp"
	"fmt"

	"memsim/internal/addrmap"
	"memsim/internal/channel"
	"memsim/internal/core"
	"memsim/internal/memctrl"
	"memsim/internal/obs"
	"memsim/internal/sim"
)

// msgKind discriminates the cross-shard message types.
type msgKind uint8

const (
	// msgRequest carries a block transfer from a system to the memory
	// shard.
	msgRequest msgKind = iota
	// msgFirstData reports the critical word back to the requester
	// (demand misses that registered a first-data callback only).
	msgFirstData
	// msgComplete reports full-block completion back to the requester;
	// it also closes the request's entry in the system's pending table.
	msgComplete
)

// message is one cross-shard event. It is pure comparable data — no
// pointers, no closures — so shards share nothing: request closures
// stay on the owning system shard, keyed by ID in its pending table.
type message struct {
	// DeliverAt is the absolute delivery time: send time plus the link
	// latency, which always lands in a strictly later epoch.
	DeliverAt sim.Time
	// Src is the sending shard (systems 0..N-1, memory shard N) and
	// Seq its per-source send counter; together with DeliverAt they
	// define the canonical total order messages are merged in.
	Src int
	Seq uint64

	Kind msgKind
	// Sys is the owning system and ID the request's slot in that
	// system's pending table.
	Sys int
	ID  uint64

	// Request payload (msgRequest only).
	Addr, Size uint64
	Class      channel.Class
	Write      bool
	// NeedFirst marks requests whose submitter wants the critical-word
	// callback, so the memory shard sends msgFirstData only when
	// someone is listening.
	NeedFirst bool
}

// msgCmp is the canonical merge order: delivery time, then source
// shard, then per-source sequence. The triple is unique (Seq never
// repeats within a Src), so the order is total and independent of
// which goroutine produced which message first.
func msgCmp(a, b message) int {
	if c := cmp.Compare(a.DeliverAt, b.DeliverAt); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// msgPool recycles the boxes that carry injected messages through a
// shard's scheduler to delivery (a sim.Callback argument must be a
// pointer: boxing a message value allocates). Each shard owns one; it
// is filled at barriers and drained during the shard's epoch, which
// never overlap.
type msgPool struct{ free []*message }

// box returns a pooled copy of m.
func (p *msgPool) box(m message) *message {
	var b *message
	if n := len(p.free); n > 0 {
		b = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		b = new(message)
	}
	*b = m
	return b
}

// unbox returns the message b carries and recycles b.
func (p *msgPool) unbox(b *message) message {
	m := *b
	p.free = append(p.free, b)
	return m
}

// systemShard wraps one core system: its private scheduler, the
// pending table mapping request IDs to the live *memctrl.Request
// records, and the outbox drained at each barrier. It implements
// core.ExternalMemory, so the system's miss path lands in Submit.
type systemShard struct {
	idx   int
	label string
	sys   *core.System
	sched *sim.Scheduler
	link  sim.Time

	nextID  uint64
	seq     uint64
	pending map[uint64]*memctrl.Request
	outbox  []message
	msgs    msgPool

	deliverCB sim.Callback
}

func newSystemShard(idx int, label string, link sim.Time) *systemShard {
	sh := &systemShard{
		idx:     idx,
		label:   label,
		link:    link,
		pending: make(map[uint64]*memctrl.Request),
	}
	sh.deliverCB = func(at sim.Time, arg any) { sh.onDeliver(at, sh.msgs.unbox(arg.(*message))) }
	return sh
}

// attach binds the built system (newSystemShard must exist first: the
// shard is the ExternalMemory passed to core.NewExternal).
func (sh *systemShard) attach(sys *core.System) {
	sh.sys = sys
	sh.sched = sys.Sched()
}

// Submit implements core.ExternalMemory: park the request in the
// pending table and post its wire form to the outbox. A request with
// no callback (a writeback) is released at once: the wire form is all
// the fabric needs, and its table slot stays nil.
func (sh *systemShard) Submit(r *memctrl.Request) {
	id := sh.nextID
	sh.nextID++
	quiet := r.OnFirstData == nil && r.OnComplete == nil
	if quiet {
		sh.pending[id] = nil
	} else {
		sh.pending[id] = r
	}
	sh.post(message{
		Kind:      msgRequest,
		Sys:       sh.idx,
		ID:        id,
		Addr:      r.Addr,
		Size:      r.Size,
		Class:     r.Class,
		Write:     r.Write,
		NeedFirst: r.OnFirstData != nil,
	})
	if quiet && r.OnRelease != nil {
		r.OnRelease(sh.sched.Now(), r.Arg)
	}
}

// post stamps and queues an outgoing message; it leaves the shard at
// the next barrier.
func (sh *systemShard) post(m message) {
	m.DeliverAt = sh.sched.Now() + sh.link
	m.Src = sh.idx
	m.Seq = sh.seq
	sh.seq++
	sh.outbox = append(sh.outbox, m)
}

// inject schedules an incoming message's delivery on the shard's own
// scheduler. Called at barriers only, in canonical message order, so
// scheduler sequence numbers — and therefore same-instant event order
// — are identical in both engines.
func (sh *systemShard) inject(m message) {
	sh.sched.AtCall(m.DeliverAt, sh.deliverCB, sh.msgs.box(m))
}

// onDeliver resolves an incoming completion against the pending table.
func (sh *systemShard) onDeliver(at sim.Time, m message) {
	r, ok := sh.pending[m.ID]
	if !ok {
		panic(fmt.Sprintf("cluster: %s: completion for unknown request %d (kind %d)", sh.label, m.ID, m.Kind))
	}
	switch m.Kind {
	case msgFirstData:
		if r.OnFirstData != nil {
			r.OnFirstData(at, r.Arg)
		}
	case msgComplete:
		delete(sh.pending, m.ID)
		if r != nil && r.OnComplete != nil {
			r.OnComplete(at, r.Arg)
		}
	default:
		panic(fmt.Sprintf("cluster: %s: unexpected message kind %d", sh.label, m.Kind))
	}
}

// memoryShard owns the shared fabric: one arbiter+channel+mapper per
// physical channel, all on one private scheduler. It receives request
// messages at barriers, skews each system into its own slice of the
// physical address space, stripes blocks across channels, and posts
// completions back through its outbox.
type memoryShard struct {
	idx   int
	sched *sim.Scheduler
	link  sim.Time

	arbs   []*memctrl.Arbiter
	chns   []*channel.Channel
	obs    *obs.Observer // fabric-level channel/bank lanes (tracing only)
	seq    uint64
	outbox []message
	msgs   msgPool

	capacity   uint64
	blockBytes uint64
	skew       uint64

	// freeReqs recycles arbiter requests; firstCB and completeCB are
	// their pre-bound callbacks (arg: *fabricReq).
	freeReqs            []*fabricReq
	requestCB           sim.Callback
	firstCB, completeCB sim.Callback
}

// fabricReq is one system transfer on the fabric: the arbiter request
// plus the pending-table ID its completions answer to.
type fabricReq struct {
	ar memctrl.ArbRequest
	id uint64
}

// fabricBlockBytes is the channel-stripe granule. Systems submit
// L2-block-sized transfers; a transfer is served whole by the channel
// owning its first granule.
const fabricBlockBytes = 64

// newMemoryShard builds the fabric from the members' configuration,
// whose channels interleave independently: one channel, with its own
// arbiter, per physical channel.
func newMemoryShard(idx int, cfg core.Config, link sim.Time, nsys int) (*memoryShard, error) {
	engine, err := sim.ParseEngine(cfg.Engine)
	if err != nil {
		return nil, err
	}
	ms := &memoryShard{
		idx:        idx,
		sched:      sim.NewSchedulerEngine(engine),
		link:       link,
		capacity:   addrmap.Geometry{Channels: cfg.Channels, DevicesPerChannel: cfg.DevicesPerChannel}.Capacity(),
		blockBytes: fabricBlockBytes,
		skew:       skewBlocks * fabricBlockBytes,
	}
	ms.requestCB = func(at sim.Time, arg any) { ms.onRequest(at, ms.msgs.unbox(arg.(*message))) }
	ms.firstCB = func(at sim.Time, arg any) {
		fr := arg.(*fabricReq)
		ms.post(msgFirstData, fr.ar.Sys, fr.id, at)
	}
	ms.completeCB = func(at sim.Time, arg any) {
		fr := arg.(*fabricReq)
		ms.post(msgComplete, fr.ar.Sys, fr.id, at)
		ms.freeReqs = append(ms.freeReqs, fr)
	}
	if cfg.Obs.Trace {
		// The fabric gets its own trace lanes (one channel/bank pair
		// per physical channel) exported as the "fabric" process next
		// to the per-system processes.
		ms.obs = obs.New(obs.Config{Trace: true, TraceEvents: cfg.Obs.TraceEvents}, ms.sched.Now)
	}

	chans, err := core.NewChannels(cfg)
	if err != nil {
		return nil, err
	}
	for c, ch := range chans {
		arb, err := memctrl.NewArbiter(ms.sched, ch.Channel, ch.Mapper, nsys)
		if err != nil {
			return nil, err
		}
		if ms.obs != nil {
			ch.Channel.Observe(ms.obs, c)
		}
		ms.chns = append(ms.chns, ch.Channel)
		ms.arbs = append(ms.arbs, arb)
	}
	return ms, nil
}

// inject schedules an incoming request's arrival at the fabric.
func (ms *memoryShard) inject(m message) {
	ms.sched.AtCall(m.DeliverAt, ms.requestCB, ms.msgs.box(m))
}

// localAddr compacts a fabric address into its channel's private
// space (the same block-stripe compaction core uses for independent
// interleaving).
func (ms *memoryShard) localAddr(addr uint64) uint64 {
	n := uint64(len(ms.arbs))
	if n == 1 {
		return addr
	}
	return addr/ms.blockBytes/n*ms.blockBytes + addr%ms.blockBytes
}

// onRequest lands a system's transfer on the owning channel's arbiter.
func (ms *memoryShard) onRequest(_ sim.Time, m message) {
	addr := (m.Addr + uint64(m.Sys)*ms.skew) % ms.capacity
	ch := int(addr / ms.blockBytes % uint64(len(ms.arbs)))
	var fr *fabricReq
	if n := len(ms.freeReqs); n > 0 {
		fr = ms.freeReqs[n-1]
		ms.freeReqs = ms.freeReqs[:n-1]
	} else {
		fr = new(fabricReq)
	}
	fr.id = m.ID
	fr.ar = memctrl.ArbRequest{
		Sys:        m.Sys,
		Addr:       ms.localAddr(addr),
		Size:       m.Size,
		Class:      m.Class,
		Write:      m.Write,
		OnComplete: ms.completeCB,
		Arg:        fr,
	}
	if m.NeedFirst {
		fr.ar.OnFirstData = ms.firstCB
	}
	ms.arbs[ch].Submit(&fr.ar)
}

// post queues a completion message back to the owning system.
func (ms *memoryShard) post(kind msgKind, sys int, id uint64, at sim.Time) {
	ms.outbox = append(ms.outbox, message{
		DeliverAt: at + ms.link,
		Src:       ms.idx,
		Seq:       ms.seq,
		Kind:      kind,
		Sys:       sys,
		ID:        id,
	})
	ms.seq++
}

// quiet reports whether the fabric can never act again without new
// input: no scheduled events, no queued or armed arbiters, nothing
// waiting to leave.
func (ms *memoryShard) quiet() bool {
	if ms.sched.Pending() > 0 || len(ms.outbox) > 0 {
		return false
	}
	for _, a := range ms.arbs {
		if a.Pending() {
			return false
		}
	}
	return true
}
