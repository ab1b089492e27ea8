package core

import (
	"cmp"
	"context"
	"fmt"

	"memsim/internal/addrmap"
	"memsim/internal/cache"
	"memsim/internal/channel"
	"memsim/internal/cpu"
	"memsim/internal/dram"
	"memsim/internal/harden/inject"
	"memsim/internal/memctrl"
	"memsim/internal/obs"
	"memsim/internal/policy"
	"memsim/internal/prefetch"
	"memsim/internal/sim"
	"memsim/internal/trace"
)

// System is one fully wired simulated machine. Build with New, run
// once with Run.
//
// Under the paper's "ganged" organization the physical channels form a
// single logical channel with one controller (index 0). Under the
// "independent" organization each physical channel has its own
// controller and whole cache blocks stripe across channels, so
// concurrent misses to different channels proceed in parallel — the
// "complex interleaving of the multiple channels" the paper leaves as
// future work (Section 6).
type System struct {
	cfg   Config
	clock sim.Clock
	sched *sim.Scheduler

	core  *cpu.CPU
	l1    *cache.Cache
	l2    *cache.Cache
	ctrls []*memctrl.Controller
	chns  []*channel.Channel
	maprs []addrmap.Mapper
	// timingPols holds each group's bank-timing policy instance (one
	// per channel, empty under the flat scheme); armObs sums their
	// fast/slow counters into the gated activate metrics.
	timingPols []dram.TimingPolicy
	pf         prefetch.Prefetcher // nil when disabled
	// pfbuffer receives prefetch fills when the separate-buffer
	// alternative is configured; nil otherwise.
	pfbuffer *cache.Cache

	// pfBuf holds prefetch candidates routed to a controller that was
	// not the one asking (independent interleaving only).
	pfBuf [][]uint64

	mshrs    *cache.MSHRTable
	inflight map[uint64]*memReq // prefetch fills in flight, by L2 block

	// reqs and writebacks pool the transfer records (see memReq), and
	// firing is the scratch copy of the waiters a critical word
	// releases.
	reqs       pool[memReq]
	writebacks pool[memctrl.Request]
	firing     []cache.Waiter
	// Pre-bound transfer callbacks, so issuing a transfer allocates no
	// closure: firstDataCB and completeCB take a *memReq,
	// wbReleaseCB a writeback's own *memctrl.Request.
	firstDataCB, completeCB, wbReleaseCB sim.Callback
	// rowOpenFn is rowOpenGlobal bound once, for the bank-aware
	// prefetch pick.
	rowOpenFn func(block uint64) bool

	capacity uint64

	// extMem, when non-nil, replaces the local memory controllers: all
	// requests route to it with fabric-global addresses and no local
	// channel state exists (ctrls, chns and maprs stay empty). Set by
	// NewExternal; internal/cluster uses it to share channels between
	// systems.
	extMem ExternalMemory

	// OnProgress, when non-nil, is invoked at the event loop's coarse
	// sampling stride with the retired-instruction count and current
	// simulated time. It is a read-only observation hook (the service
	// layer surfaces it as per-job progress); it must not mutate
	// simulation state.
	OnProgress func(retired uint64, now sim.Time)

	// Hardening state (see harden.go): the armed fault injector (nil
	// when injection is off), the first fatal hardening error, and the
	// completion counter feeding the watchdog's progress snapshot.
	inj         *inject.Injector
	fatal       error
	completions uint64

	// Observability (see obs.go): the run's observer (never nil after
	// New) and a direct tracer handle for hierarchy-level events (nil
	// when tracing is off; all emit methods are nil-safe).
	obs *obs.Observer
	tr  *obs.Tracer

	// System-level statistics.
	lateMerges      uint64 // demand misses merged into in-flight prefetches
	swPrefetches    uint64 // software prefetch fills requested
	prefetchSkipped uint64 // prefetch candidates dropped (resident or in flight)

	// baseline captures all statistics at the warmup boundary.
	baseline struct {
		taken           bool
		at              sim.Time
		retired         uint64
		l1, l2          cache.Stats
		buffer          cache.Stats
		chn             []channel.Stats
		ctrl            []memctrl.Stats
		pf              prefetch.Stats
		lateMerges      uint64
		swPrefetches    uint64
		prefetchSkipped uint64
		obsValues       map[string]float64
	}
}

// memReq is one fill the hierarchy has in flight (a demand miss, a
// prefetch or a software prefetch): the controller request plus the
// miss state its callbacks need. Records come from the System's pool
// (newReq) and return to it in their OnComplete. The request carries
// the record as its callback argument, so the System's pre-bound
// callbacks serve every record. Writebacks need no miss state: they
// are bare requests from their own pool, returned by OnRelease when
// the controller issues them (see newWriteback).
type memReq struct {
	req   memctrl.Request
	kind  reqKind
	block uint64 // global L2 block (req.Addr may be group-local)

	write   bool           // demand: the miss was a store
	mshr    *cache.MSHR    // demand: the entry first data releases
	demand  bool           // prefetch: a demand miss merged into the fill
	waiters []cache.Waiter // prefetch: the accesses merged into the fill
}

// pool is a freelist of records that grows a slab of poolSlab records
// at a time, only when it runs dry. Writebacks can queue behind
// demand misses for the rest of a run, so their pool may grow all
// along; slabs keep that to one allocation per poolSlab records.
type pool[T any] struct{ free []*T }

const poolSlab = 64

func (p *pool[T]) get() *T {
	if len(p.free) == 0 {
		slab := make([]T, poolSlab)
		for i := range slab {
			p.free = append(p.free, &slab[i])
		}
	}
	n := len(p.free) - 1
	r := p.free[n]
	p.free = p.free[:n]
	return r
}

func (p *pool[T]) put(r *T) { p.free = append(p.free, r) }

// reqKind is what a memReq transfers.
type reqKind uint8

const (
	demandReq reqKind = iota
	prefetchReq
	swPrefetchReq
)

// ExternalMemory is the memory-backend seam: a fabric that resolves
// block transfers on behalf of the system. Submit receives requests
// with fabric-global physical addresses (no group-local translation);
// the backend must eventually fire OnFirstData/OnComplete on the
// system's own scheduler.
type ExternalMemory interface {
	Submit(r *memctrl.Request)
}

// New builds a system over the given instruction stream.
func New(cfg Config, gen trace.Generator) (*System, error) {
	return newSystem(cfg, gen, nil)
}

// NewExternal builds a system whose memory requests route to mem
// instead of locally built controllers and channels. The configured
// geometry (Channels, DevicesPerChannel) still defines the physical
// address space, so the fabric and the system agree on capacity.
//
// External-memory mode restricts the configuration to what a remote
// fabric can honor: scheduled and bank-aware prefetching need
// synchronous access to controller idle state and DRAM row state,
// which would couple shards, and the hardening monitors (watchdog,
// paranoid checks) inspect local controllers; all must be off.
func NewExternal(cfg Config, gen trace.Generator, mem ExternalMemory) (*System, error) {
	if mem == nil {
		return nil, fmt.Errorf("core: NewExternal requires a memory backend")
	}
	if cfg.Prefetch.Enabled && (cfg.Prefetch.Scheduled || cfg.Prefetch.BankAware) {
		return nil, fmt.Errorf("core: external memory cannot serve scheduled or bank-aware prefetching (channel idle/row state is remote)")
	}
	if cfg.Harden.WatchdogCycles > 0 || cfg.Harden.Paranoid || cfg.Harden.Inject.Enabled() {
		return nil, fmt.Errorf("core: hardening monitors inspect local controllers; disable Harden in external-memory mode")
	}
	return newSystem(cfg, gen, mem)
}

func newSystem(cfg Config, gen trace.Generator, mem ExternalMemory) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Empty scheme names mean the paper's in-order issue and region prefetcher.
	cfg.SchedPolicy = cmp.Or(cfg.SchedPolicy, "fcfs")
	cfg.Prefetch.Scheme = cmp.Or(cfg.Prefetch.Scheme, "region")

	groups, groupGeom := channelGroups(cfg)

	l1, err := cache.New(cache.Config{Name: "L1", SizeBytes: cfg.L1Size, Assoc: cfg.L1Assoc, BlockBytes: cfg.L1Block})
	if err != nil {
		return nil, err
	}
	l2, err := cache.New(cache.Config{Name: "L2", SizeBytes: cfg.L2Size, Assoc: cfg.L2Assoc, BlockBytes: cfg.L2Block})
	if err != nil {
		return nil, err
	}

	// Validate vetted the engine name already; the error is unreachable.
	engine, _ := sim.ParseEngine(cfg.Engine)
	s := &System{
		cfg:      cfg,
		clock:    sim.NewClock(cfg.ClockHz),
		sched:    sim.NewSchedulerEngine(engine),
		l1:       l1,
		l2:       l2,
		inflight: make(map[uint64]*memReq),
		capacity: groupGeom.Capacity() * uint64(groups),
		pfBuf:    make([][]uint64, groups),
		extMem:   mem,
	}
	s.mshrs = cache.NewMSHRTable(cfg.MSHRs, s.releaseWaiter)
	s.rowOpenFn = s.rowOpenGlobal
	s.firstDataCB = func(at sim.Time, arg any) { s.onFirstData(arg.(*memReq), at) }
	s.completeCB = func(at sim.Time, arg any) { s.onComplete(arg.(*memReq), at) }
	s.wbReleaseCB = func(_ sim.Time, arg any) { s.writebacks.put(arg.(*memctrl.Request)) }
	if mem == nil {
		// Without an external fabric the system owns its channels.
		chans, err := NewChannels(cfg)
		if err != nil {
			return nil, err
		}
		for _, ch := range chans {
			if ch.TimingPol != nil {
				s.timingPols = append(s.timingPols, ch.TimingPol)
			}
			ctrl := memctrl.New(s.sched, ch.Channel, ch.Mapper)
			pol, err := policy.NewSched(cfg.SchedPolicy, policy.SchedParams{Window: cfg.ReorderWindow})
			if err != nil {
				return nil, err
			}
			ctrl.SetPolicy(pol)
			s.maprs = append(s.maprs, ch.Mapper)
			s.chns = append(s.chns, ch.Channel)
			s.ctrls = append(s.ctrls, ctrl)
		}
	}

	if cfg.Prefetch.Enabled {
		s.pf, err = policy.NewPrefetcher(cfg.Prefetch.Scheme, prefetchParams(cfg))
		if err != nil {
			return nil, err
		}
		if cfg.Prefetch.Scheduled {
			for g := range s.ctrls {
				s.ctrls[g].SetPrefetchSource(&prefetchSource{sys: s, group: g})
			}
		}
		// First demand reference of a prefetched block counts as a
		// prefetch success for the accuracy throttle.
		s.l2.PrefetchUsedHook = func() { s.pf.RecordSettled(true) }

		if n := cfg.Prefetch.BufferBlocks; n > 0 {
			s.pfbuffer, err = cache.New(cache.Config{
				Name:       "pfbuffer",
				SizeBytes:  int64(n * cfg.L2Block),
				Assoc:      n, // fully associative
				BlockBytes: cfg.L2Block,
			})
			if err != nil {
				return nil, err
			}
		}
	}

	s.core, err = cpu.New(s.sched, (*hierarchy)(s), gen, cpu.Config{
		Width:        cfg.Width,
		SustainedIPC: cfg.SustainedIPC,
		ROBSize:      cfg.ROBSize,
		StoreBuffer:  cfg.StoreBuffer,
		Clock:        s.clock,
		MaxInstrs:    cfg.WarmupInstrs + cfg.MaxInstrs,
	})
	if err != nil {
		return nil, err
	}
	if cfg.WarmupInstrs > 0 {
		s.core.Milestone = cfg.WarmupInstrs
		s.core.OnMilestone = s.snapshotBaseline
	}
	s.armObs()
	s.armHarden()
	return s, nil
}

// channelGroups returns how many controller groups cfg's channels form
// and each group's geometry. Ganged: one controller over an n-wide
// logical channel. Independent: n controllers over 1-wide channels.
func channelGroups(cfg Config) (int, addrmap.Geometry) {
	if cfg.Interleaving == "independent" {
		return cfg.Channels, addrmap.Geometry{Channels: 1, DevicesPerChannel: cfg.DevicesPerChannel}
	}
	return 1, addrmap.Geometry{Channels: cfg.Channels, DevicesPerChannel: cfg.DevicesPerChannel}
}

// MemChannel is one controller group's memory: its address mapper,
// its channel, and the channel's bank-timing policy (nil under flat
// timing).
type MemChannel struct {
	Mapper    addrmap.Mapper
	Channel   *channel.Channel
	TimingPol dram.TimingPolicy
}

// NewChannels builds the channels of a validated cfg, one per
// controller group, with its mapping, part, row policy, refresh and
// bank timing. A System and the cluster's shared fabric both build
// their channels here, so they model the same memory.
func NewChannels(cfg Config) ([]MemChannel, error) {
	groups, geom := channelGroups(cfg)
	chCfg := channel.Config{Geometry: geom, Timing: cfg.Timing, ClosedPage: cfg.ClosedPage}
	if cfg.Refresh {
		// One refresh per ~2us retires all 16K rows of a device within
		// a 32ms retention period; each costs roughly a row cycle.
		chCfg.RefreshInterval = 2 * sim.Microsecond
		chCfg.RefreshDuration = 70 * sim.Nanosecond
	}
	chans := make([]MemChannel, groups)
	for g := range chans {
		mapr, err := policy.NewMapping(cfg.Mapping, geom)
		if err != nil {
			return nil, err
		}
		// Each group gets its own timing-policy instance: schemes with
		// internal state (the row-reuse table) must not share across
		// channels.
		gcfg := chCfg
		gcfg.TimingPol, err = policy.NewTiming(cfg.BankTiming, policy.TimingParams{})
		if err != nil {
			return nil, err
		}
		chn, err := channel.New(gcfg)
		if err != nil {
			return nil, err
		}
		chans[g] = MemChannel{Mapper: mapr, Channel: chn, TimingPol: gcfg.TimingPol}
	}
	return chans, nil
}

// prefetchParams maps the system config onto the registry's factory
// knobs; every scheme reads the subset that applies to it.
func prefetchParams(cfg Config) policy.PrefetchParams {
	return policy.PrefetchParams{
		BlockBytes:       cfg.L2Block,
		Lookahead:        cfg.Prefetch.Lookahead,
		TableSize:        cfg.Prefetch.TableSize,
		RegionBytes:      cfg.Prefetch.RegionBytes,
		QueueDepth:       cfg.Prefetch.QueueDepth,
		Policy:           cfg.Prefetch.Policy,
		BankAware:        cfg.Prefetch.BankAware,
		ThrottleAccuracy: cfg.Prefetch.ThrottleAccuracy,
		ThrottleWindow:   cfg.Prefetch.ThrottleWindow,
	}
}

// group routes a physical address to its controller: always 0 when
// ganged, the block-stripe index when independent.
func (s *System) group(addr uint64) int {
	if len(s.ctrls) <= 1 {
		return 0
	}
	return int(addr / uint64(s.cfg.L2Block) % uint64(len(s.ctrls)))
}

// localAddr compacts a global physical address into its channel
// group's private address space (identity when ganged or when the
// memory backend is external: the fabric does its own translation).
func (s *System) localAddr(addr uint64) uint64 {
	n := uint64(len(s.ctrls))
	if n <= 1 {
		return addr
	}
	bs := uint64(s.cfg.L2Block)
	return addr/bs/n*bs + addr%bs
}

// submit routes a request built on global addresses to its controller,
// translating the address into the group-local space. With an external
// backend the request leaves with its global address untouched.
func (s *System) submit(r *memctrl.Request) {
	if s.extMem != nil {
		s.extMem.Submit(r)
		return
	}
	g := s.group(r.Addr)
	r.Addr = s.localAddr(r.Addr)
	if s.inj != nil && r.Class == channel.Demand {
		s.injectOnSubmit(g, r)
	}
	s.ctrls[g].Submit(r)
}

// rowOpenGlobal reports whether the block's row is open in its group.
func (s *System) rowOpenGlobal(block uint64) bool {
	g := s.group(block)
	return s.chns[g].RowOpen(s.maprs[g].Map(s.localAddr(block)))
}

// snapshotBaseline records all counters at the warmup boundary so the
// result reports steady-state behaviour only.
func (s *System) snapshotBaseline() {
	b := &s.baseline
	b.taken = true
	b.at = s.sched.Now()
	b.retired = s.core.Stats().Retired
	b.l1 = s.l1.Stats()
	b.l2 = s.l2.Stats()
	if s.pfbuffer != nil {
		b.buffer = s.pfbuffer.Stats()
	}
	b.chn = b.chn[:0]
	b.ctrl = b.ctrl[:0]
	for g := range s.ctrls {
		b.chn = append(b.chn, s.chns[g].Stats())
		b.ctrl = append(b.ctrl, s.ctrls[g].Stats())
	}
	if s.pf != nil {
		b.pf = s.pf.Stats()
	}
	b.lateMerges = s.lateMerges
	b.swPrefetches = s.swPrefetches
	b.prefetchSkipped = s.prefetchSkipped
	b.obsValues = s.obs.Registry.Values()
	s.obs.Timeline.ForceSample(s.sched.Now())
}

// Run executes the workload to completion and returns the collected
// results. Hardening failures surface as typed errors: a watchdog
// abort as *harden.WatchdogError, an invariant violation as
// *harden.InvariantError, and an internal-bug panic escaping the event
// loop (e.g. a duplicate MSHR fill) as *harden.CorruptionError with the
// same diagnostic dump attached.
func (s *System) Run() (Result, error) { return s.RunContext(context.Background()) }

// ctxCheckEvents is how many events RunContext lets fire between
// cancellation polls: coarse enough to keep the channel poll off the
// event loop's critical path, fine enough that a canceled or timed-out
// run stops within a sliver of wall time.
const ctxCheckEvents = 4096

// RunContext is Run under a context: cancellation and deadlines are
// checked at event-loop granularity, sharing the abort path that the
// hardening watchdog uses, so per-run timeouts, batch SIGINT, and
// watchdog aborts all stop a run the same way. The returned error wraps
// context.Cause(ctx), so callers can classify it with errors.Is
// (context.Canceled, context.DeadlineExceeded) or recover a custom
// cancel cause.
func (s *System) RunContext(ctx context.Context) (res Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = Result{}, s.recoverCorruption(p)
		}
	}()
	cond := func() bool { return s.fatal == nil && !s.core.Done() }
	canceled := false
	done := ctx.Done()
	tl := s.obs.Timeline
	if done == nil && tl == nil && s.OnProgress == nil {
		s.sched.RunWhile(cond)
	} else {
		s.sched.RunWhileSampled(cond, ctxCheckEvents, func() bool {
			tl.MaybeSample(s.sched.Now())
			if s.OnProgress != nil {
				s.OnProgress(s.core.Stats().Retired, s.sched.Now())
			}
			if done != nil {
				select {
				case <-done:
					canceled = true
					return false
				default:
				}
			}
			return true
		})
	}
	if s.fatal != nil {
		return Result{}, s.fatal
	}
	if canceled {
		return Result{}, fmt.Errorf("core: run aborted at %v after %d events: %w",
			s.sched.Now(), s.sched.EventsFired(), context.Cause(ctx))
	}
	if !s.core.Done() {
		return Result{}, fmt.Errorf("core: simulation deadlocked at %v with %d events fired",
			s.sched.Now(), s.sched.EventsFired())
	}
	tl.ForceSample(s.sched.Now())
	return s.result(), nil
}

// Sched exposes the system's private scheduler so an external driver
// (internal/cluster) can advance it in bounded epochs and inject
// completion events onto it. Local callers should use Run/RunContext.
func (s *System) Sched() *sim.Scheduler { return s.sched }

// Done reports whether the core retired its instruction budget.
func (s *System) Done() bool { return s.core.Done() }

// Snapshot collects the run's Result for a system driven externally
// (epoch by epoch) rather than through Run. It errors if the core has
// not finished or a hardening failure fired.
func (s *System) Snapshot() (Result, error) {
	if s.fatal != nil {
		return Result{}, s.fatal
	}
	if !s.core.Done() {
		return Result{}, fmt.Errorf("core: snapshot before completion at %v with %d events fired",
			s.sched.Now(), s.sched.EventsFired())
	}
	s.obs.Timeline.ForceSample(s.sched.Now())
	return s.result(), nil
}

// hierarchy adapts the System into the core's Memory interface.
type hierarchy System

// Access implements cpu.Memory.
func (h *hierarchy) Access(addr uint64, kind trace.Kind, done sim.Callback, arg any) cpu.Reply {
	s := (*System)(h)
	addr %= s.capacity
	now := s.sched.Now()

	if kind == trace.SWPrefetch {
		return s.softwarePrefetch(addr)
	}

	if s.cfg.PerfectMem {
		return cpu.Reply{Accepted: true, Done: true, At: now + s.clock.Cycles(int64(s.cfg.L1HitCycles))}
	}

	write := kind == trace.Store
	if s.l1.Access(addr, write) {
		return cpu.Reply{Accepted: true, Done: true, At: now + s.clock.Cycles(int64(s.cfg.L1HitCycles))}
	}

	// L1 miss; the L2 lookup costs its access latency.
	l2At := now + s.clock.Cycles(int64(s.cfg.L2HitCycles))
	if s.cfg.PerfectL2 {
		s.fillL1(addr, write)
		return cpu.Reply{Accepted: true, Done: true, At: l2At}
	}
	if s.l2.Access(addr, write) {
		s.fillL1(addr, write)
		return cpu.Reply{Accepted: true, Done: true, At: l2At}
	}

	// L2 demand miss.
	block := s.l2.BlockAddr(addr)

	// Probe the separate prefetch buffer (when configured): a hit
	// promotes the block into the L2 and costs only the lookup.
	if s.pfbuffer != nil && s.pfbuffer.Access(block, false) {
		s.pfbuffer.Invalidate(block)
		s.installL2(block, write, false)
		s.fillL1(addr, write)
		if s.pf != nil {
			s.pf.RecordSettled(true)
		}
		return cpu.Reply{Accepted: true, Done: true, At: l2At + s.clock.Cycles(2)}
	}

	// The fill must install the L1 block and, for a load, complete it.
	w := cache.Waiter{Addr: addr, Write: write, Done: done, Arg: arg}

	// Merge into an in-flight prefetch: the "late prefetch" case.
	if fill, ok := s.inflight[block]; ok {
		fill.demand = true
		s.tr.Instant(obs.EvLateMerge, 0, block, 0)
		s.lateMerges++
		s.notifyPrefetcher(addr)
		fill.waiters = append(fill.waiters, w)
		return cpu.Reply{Accepted: true}
	}

	// Merge into an outstanding demand miss.
	if m, ok := s.mshrs.Lookup(block); ok {
		m.Waiters = append(m.Waiters, w)
		return cpu.Reply{Accepted: true}
	}

	if s.mshrs.Full() {
		return cpu.Reply{} // rejected; the core retries after Wake
	}

	m := s.mshrs.Allocate(block, false)
	m.Waiters = append(m.Waiters, w)

	s.notifyPrefetcher(addr)

	r := s.newReq(demandReq, block)
	r.write, r.mshr = write, m
	s.submit(&r.req)
	return cpu.Reply{Accepted: true}
}

// newReq takes a fill record from the pool and sets it up as a kind
// transfer of one L2 block at the global address block.
func (s *System) newReq(kind reqKind, block uint64) *memReq {
	r := s.reqs.get()
	r.kind, r.block = kind, block
	// The callbacks are set afresh on every reuse: a tracking
	// controller wraps OnComplete at Submit.
	r.req = memctrl.Request{Addr: block, Size: uint64(s.cfg.L2Block), Arg: r, OnComplete: s.completeCB}
	switch kind {
	case demandReq:
		r.req.Class = channel.Demand
		r.req.OnFirstData = s.firstDataCB
	case prefetchReq:
		r.req.Class = channel.Prefetch
	case swPrefetchReq:
		r.req.Class = channel.Demand // software prefetches compete like loads
	}
	return r
}

// freeReq returns a fill record to the pool.
func (s *System) freeReq(r *memReq) {
	r.write, r.mshr, r.demand = false, nil, false
	clear(r.waiters)
	r.waiters = r.waiters[:0]
	s.reqs.put(r)
}

// newWriteback takes a writeback of size bytes at addr from the pool.
// It has no completion to wait for, so the controller releases it
// (OnRelease) when it issues; a fabric releases it on submission.
func (s *System) newWriteback(addr uint64, size int) *memctrl.Request {
	r := s.writebacks.get()
	*r = memctrl.Request{Addr: addr, Size: uint64(size), Class: channel.Writeback, Write: true, OnRelease: s.wbReleaseCB}
	r.Arg = r
	return r
}

// onFirstData is a demand miss's critical word: it releases the
// accesses merged so far; later merges complete at full-line install.
// Releasing one can merge another access into the same entry, so the
// waiters fire from a copy.
func (s *System) onFirstData(r *memReq, at sim.Time) {
	s.firing = append(s.firing[:0], r.mshr.Waiters...)
	clear(r.mshr.Waiters)
	r.mshr.Waiters = r.mshr.Waiters[:0]
	for _, w := range s.firing {
		s.releaseWaiter(w, at)
	}
}

// onComplete is the full-block fill: it installs the block, releases
// what waits on it, and recycles the record.
func (s *System) onComplete(r *memReq, at sim.Time) {
	switch r.kind {
	case demandReq:
		if s.inj.Tick(inject.DropCompletion) {
			return // the fill is lost; the MSHR entry leaks
		}
		s.deliverDemand(r.block, r.write, at)
		s.completions++
		if s.inj.Tick(inject.DuplicateFill) {
			// The second Complete panics on the unknown block; Run
			// recovers it into a CorruptionError.
			s.deliverDemand(r.block, r.write, at)
		}
	case prefetchReq:
		s.completions++
		delete(s.inflight, r.block)
		s.installL2(r.block, false, !r.demand)
		if r.demand && s.pf != nil {
			// A late prefetch the demand stream caught up with:
			// count it as used.
			s.pf.RecordSettled(true)
		}
		for _, w := range r.waiters {
			s.releaseWaiter(w, at)
		}
		s.core.Wake()
	case swPrefetchReq:
		s.completions++
		s.installL2(r.block, false, true)
		s.mshrs.Complete(r.block, at)
		s.core.Wake()
	}
	s.freeReq(r)
}

// deliverDemand installs a demand fill and releases its MSHR entry.
func (s *System) deliverDemand(block uint64, write bool, at sim.Time) {
	s.installL2(block, write, false)
	s.mshrs.Complete(block, at)
	s.core.Wake()
}

// releaseWaiter completes one access waiting on a fill: fill the L1
// and, for a load, signal the core.
func (s *System) releaseWaiter(w cache.Waiter, at sim.Time) {
	s.fillL1(w.Addr, w.Write)
	if w.Done != nil {
		w.Done(at, w.Arg)
	}
}

// fillL1 installs the block containing addr into the L1, absorbing the
// victim writeback into the L2.
func (s *System) fillL1(addr uint64, write bool) {
	v := s.l1.Insert(addr, cache.MRU, write, false)
	if v.Valid && v.Dirty && !s.cfg.PerfectMem && !s.cfg.PerfectL2 {
		if !s.l2.MarkDirty(v.Addr) {
			// The line left the L2 already (non-inclusive corner):
			// write it back to memory directly.
			s.submit(s.newWriteback(v.Addr, s.cfg.L1Block))
		}
	}
}

// installL2 places a returned block into the L2 and schedules the
// victim's writeback. Evicted unreferenced prefetches feed the
// accuracy throttle as failures. Prefetched blocks divert to the
// separate buffer when one is configured.
func (s *System) installL2(block uint64, dirty, prefetched bool) {
	if prefetched && s.pfbuffer != nil {
		v := s.pfbuffer.Insert(block, cache.MRU, false, true)
		if v.Valid && s.pf != nil {
			// Pushed out of the buffer unreferenced: a wasted prefetch.
			s.pf.RecordSettled(false)
		}
		return
	}
	pos := cache.MRU
	if prefetched {
		pos = s.cfg.Prefetch.Insert
	}
	v := s.l2.Insert(block, pos, dirty, prefetched)
	if !v.Valid {
		return
	}
	if v.Prefetched && s.pf != nil {
		s.pf.RecordSettled(false)
	}
	if v.Dirty {
		s.submit(s.newWriteback(v.Addr, s.cfg.L2Block))
	}
}

// notifyPrefetcher reports a demand miss to the prefetch engine.
//
// The paper's region entries mark blocks already in the cache at
// creation; we defer that residency check to issue time (see
// makePrefetchRequest), which is behaviourally equivalent — resident
// blocks are never transferred — and avoids scanning every block of
// every region on the demand-miss path.
func (s *System) notifyPrefetcher(addr uint64) {
	if s.pf == nil {
		return
	}
	s.pf.OnDemandMiss(addr, nil)
	if s.cfg.Prefetch.Scheduled {
		for _, c := range s.ctrls {
			c.Kick()
		}
	} else {
		// Unscheduled prefetching: every region prefetch issues
		// immediately as an ordinary request (Table 4, "FIFO
		// prefetch").
		for {
			block, ok := s.pf.Next(nil)
			if !ok {
				break
			}
			if r, live := s.makePrefetchRequest(block); live {
				if s.extMem != nil {
					s.extMem.Submit(r)
				} else {
					s.ctrls[s.group(block)].Submit(r)
				}
			}
		}
	}
}

// makePrefetchRequest builds the transfer for one prefetch block,
// registering it in flight; the request address is already translated
// to the owning group's local space. ok is false when the block is
// resident or being fetched.
func (s *System) makePrefetchRequest(block uint64) (*memctrl.Request, bool) {
	// Engines may generate out-of-range candidates (e.g. a stream
	// running past the workload footprint); wrap like every other
	// physical address.
	block = s.l2.BlockAddr(block % s.capacity)
	if s.l2.Contains(block) {
		s.dropPrefetch(block, obs.DropResident)
		return nil, false
	}
	if s.pfbuffer != nil && s.pfbuffer.Contains(block) {
		s.dropPrefetch(block, obs.DropBuffered)
		return nil, false
	}
	if _, busy := s.inflight[block]; busy {
		s.dropPrefetch(block, obs.DropInFlight)
		return nil, false
	}
	if _, busy := s.mshrs.Lookup(block); busy {
		s.dropPrefetch(block, obs.DropDemandPending)
		return nil, false
	}
	r := s.newReq(prefetchReq, block)
	r.req.Addr = s.localAddr(block)
	s.inflight[block] = r
	return &r.req, true
}

// dropPrefetch records a prefetch candidate discarded before issue.
func (s *System) dropPrefetch(block uint64, reason obs.DropReason) {
	s.tr.Instant(obs.EvPrefetchDrop, 0, block, uint64(reason))
	s.prefetchSkipped++
}

// softwarePrefetch handles a software prefetch instruction: a
// non-binding fill request into the L2.
func (s *System) softwarePrefetch(addr uint64) cpu.Reply {
	done := cpu.Reply{Accepted: true, Done: true, At: s.sched.Now() + s.clock.Period()}
	if s.cfg.PerfectMem || s.cfg.PerfectL2 || !s.cfg.SoftwarePrefetch {
		return done
	}
	addr %= s.capacity
	block := s.l2.BlockAddr(addr)
	if s.l1.Contains(addr) || s.l2.Contains(addr) {
		return done
	}
	if _, ok := s.inflight[block]; ok {
		return done
	}
	if _, ok := s.mshrs.Lookup(block); ok {
		return done
	}
	if s.mshrs.Full() {
		return cpu.Reply{} // dropped by the core
	}
	s.swPrefetches++
	s.mshrs.Allocate(block, true)
	s.submit(&s.newReq(swPrefetchReq, block).req)
	return done
}

// prefetchSource adapts the prefetch engine to one controller's pull
// interface. Under independent interleaving, candidates belonging to
// other groups are buffered for their own controllers.
type prefetchSource struct {
	sys   *System
	group int
}

// maxRoutePull bounds how many foreign-group candidates one pull may
// shuffle before giving up the idle slot.
const maxRoutePull = 16

// NextPrefetch implements memctrl.PrefetchSource.
func (p *prefetchSource) NextPrefetch(now sim.Time) (*memctrl.Request, bool) {
	s := p.sys

	// Buffered candidates routed here earlier take priority.
	for len(s.pfBuf[p.group]) > 0 {
		block := s.pfBuf[p.group][0]
		s.pfBuf[p.group] = s.pfBuf[p.group][1:]
		if r, live := s.makePrefetchRequest(block); live {
			return r, true
		}
	}

	for i := 0; i < maxRoutePull; i++ {
		block, ok := s.pf.Next(s.rowOpenFn)
		if !ok {
			return nil, false
		}
		g := s.group(block)
		if g != p.group {
			// Route to the owning controller and keep looking.
			s.pfBuf[g] = append(s.pfBuf[g], block)
			s.ctrls[g].Kick()
			continue
		}
		if r, live := s.makePrefetchRequest(block); live {
			return r, true
		}
	}
	return nil, false
}
