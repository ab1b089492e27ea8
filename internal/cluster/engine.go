package cluster

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"memsim/internal/core"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

// ctxCheckEpochs is how many epochs pass between context-cancellation
// polls at the barrier; epochs are tens of nanoseconds of simulated
// time, so even a coarse poll stops a run within microseconds of wall
// time.
const ctxCheckEpochs = 64

// run carries the live state of one cluster execution.
type run struct {
	cfg     Config
	systems []*systemShard
	mem     *memoryShard
	delta   sim.Time

	epochs   uint64
	messages uint64
	now      sim.Time // fabric clock: the last barrier's epoch end
	hash     uint64   // FNV-1a digest of the barrier fire log

	// inbox is the barrier's reusable merge buffer.
	inbox []message
}

// Run executes the cluster to completion and returns the merged
// result. The engine — sequential reference or parallel sharded — is
// selected by cfg.Parallel; both follow the identical epoch/barrier
// protocol and produce bit-identical results.
func Run(ctx context.Context, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}

	r := &run{cfg: cfg, delta: cfg.LinkLatency}
	sysCfg := cfg.memberConfig()
	for i, spec := range cfg.Systems {
		prof, err := workload.ByName(spec.Bench)
		if err != nil {
			return Result{}, err
		}
		gen, err := prof.Generator(spec.Seed, sysCfg.SoftwarePrefetch)
		if err != nil {
			return Result{}, fmt.Errorf("cluster: system %d (%s): %w", i, spec.Bench, err)
		}
		sh := newSystemShard(i, spec.Label(i), cfg.LinkLatency)
		sys, err := core.NewExternal(sysCfg, gen, sh)
		if err != nil {
			return Result{}, fmt.Errorf("cluster: system %d (%s): %w", i, spec.Bench, err)
		}
		sh.attach(sys)
		r.systems = append(r.systems, sh)
	}
	mem, err := newMemoryShard(len(cfg.Systems), sysCfg, cfg.LinkLatency, len(cfg.Systems))
	if err != nil {
		return Result{}, err
	}
	r.mem = mem

	if cfg.Parallel {
		err = r.runParallel(ctx)
	} else {
		err = r.runSequential(ctx)
	}
	if err != nil {
		return Result{}, err
	}
	return r.collect()
}

// barrier merges every shard's outbox in canonical order, folds the
// batch into the fire-log digest, and injects each message into its
// destination scheduler. It returns the number of messages exchanged.
// Injection order is the canonical order, so destination-scheduler
// sequence numbers — and with them all same-instant tie-breaks — are
// engine-independent.
func (r *run) barrier() int {
	r.inbox = r.inbox[:0]
	for _, sh := range r.systems {
		r.inbox = append(r.inbox, sh.outbox...)
		sh.outbox = sh.outbox[:0]
	}
	r.inbox = append(r.inbox, r.mem.outbox...)
	r.mem.outbox = r.mem.outbox[:0]

	slices.SortFunc(r.inbox, msgCmp)
	for _, m := range r.inbox {
		r.hashMessage(m)
		if m.Kind == msgRequest {
			r.mem.inject(m)
		} else {
			r.systems[m.Sys].inject(m)
		}
	}
	r.messages += uint64(len(r.inbox))
	return len(r.inbox)
}

// FNV-1a 64-bit, folded field by field so the digest has no
// dependence on struct layout.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func (r *run) hashWord(v uint64) {
	h := r.hash
	if h == 0 {
		h = fnvOffset
	}
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	r.hash = h
}

func (r *run) hashMessage(m message) {
	r.hashWord(uint64(m.DeliverAt))
	r.hashWord(uint64(m.Src)<<32 | uint64(uint8(m.Kind))<<16 | uint64(uint16(m.Sys)))
	r.hashWord(m.Seq)
	r.hashWord(m.ID)
	r.hashWord(m.Addr)
	w := uint64(0)
	if m.Write {
		w = 1
	}
	if m.NeedFirst {
		w |= 2
	}
	r.hashWord(m.Size<<8 | uint64(m.Class)<<2 | w)
}

// nextEpochEnd picks the next barrier time after end. The base step is
// one Δ, but when every shard's earliest pending event lies further
// out, the driver jumps straight to the first epoch boundary at or
// beyond that event — event-free epochs have no messages to exchange,
// so skipping them changes nothing observable. The jump never passes
// the boundary containing the earliest event, so a message posted at
// time t still delivers at t+Δ, strictly beyond the window end, and
// the barrier protocol's later-epoch delivery guarantee holds. The
// decision reads only barrier-time shard state, so both engines skip
// identically.
func (r *run) nextEpochEnd(end sim.Time) sim.Time {
	var minNext sim.Time
	have := false
	consider := func(t sim.Time, ok bool) {
		if ok && (!have || t < minNext) {
			minNext, have = t, true
		}
	}
	for _, sh := range r.systems {
		consider(sh.sched.NextAt())
	}
	consider(r.mem.sched.NextAt())
	if !have || minNext <= end+r.delta {
		return end + r.delta
	}
	k := (minNext - end + r.delta - 1) / r.delta // ceil((minNext-end)/Δ)
	return end + sim.Time(k)*r.delta
}

// terminal reports whether the cluster is finished: every core retired
// its budget, no request is outstanding anywhere, and the fabric is
// quiet. Valid only at a barrier with no messages in flight.
func (r *run) terminal() bool {
	for _, sh := range r.systems {
		if !sh.sys.Done() || len(sh.pending) > 0 {
			return false
		}
	}
	return r.mem.quiet()
}

// stuck reports a true deadlock: no shard holds any future event, no
// message is in flight, and the cluster is not terminal — nothing can
// ever fire again.
func (r *run) stuck() bool {
	for _, sh := range r.systems {
		if sh.sched.Pending() > 0 {
			return false
		}
	}
	return r.mem.quiet()
}

// checkBarrier runs the per-barrier bookkeeping shared by both
// engines: termination, deadlock, and (periodically) cancellation.
// It reports done=true when the cluster completed.
func (r *run) checkBarrier(ctx context.Context, exchanged int) (done bool, err error) {
	if exchanged == 0 {
		if r.terminal() {
			return true, nil
		}
		if r.stuck() {
			return false, fmt.Errorf("cluster: deadlock at epoch %d (%v): no events, no messages, cores not done",
				r.epochs, r.now)
		}
	}
	if r.epochs%ctxCheckEpochs == 0 {
		select {
		case <-ctx.Done():
			return false, fmt.Errorf("cluster: run aborted at epoch %d (%v): %w",
				r.epochs, r.now, context.Cause(ctx))
		default:
		}
	}
	return false, nil
}

// runSequential is the reference engine: one goroutine steps every
// shard through each epoch in canonical order (systems by index, then
// the memory shard), then runs the barrier.
func (r *run) runSequential(ctx context.Context) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("cluster: shard panic: %v", p)
		}
	}()
	var end sim.Time
	for {
		end = r.nextEpochEnd(end)
		for _, sh := range r.systems {
			sh.sched.RunUntil(end)
		}
		r.mem.sched.RunUntil(end)
		r.epochs++
		r.now = end
		n := r.barrier()
		done, err := r.checkBarrier(ctx, n)
		if done || err != nil {
			return err
		}
	}
}

// runParallel is the sharded engine: one long-lived worker goroutine
// per shard (systems and memory), advancing in lockstep epochs. A
// worker owns its shard's scheduler and outbox exclusively between
// barriers — shards share no state during an epoch — so the only
// synchronization is the epoch start/finish handshake, and the merge
// itself runs on the driver goroutine over quiescent shards.
func (r *run) runParallel(ctx context.Context) error {
	nw := len(r.systems) + 1
	advance := make([]chan sim.Time, nw)
	done := make(chan struct{}, nw)
	panics := make([]any, nw)
	var wg sync.WaitGroup

	step := func(i int, f func(sim.Time)) {
		defer wg.Done()
		for end := range advance[i] {
			func() {
				defer func() { panics[i] = recover() }()
				f(end)
			}()
			done <- struct{}{}
		}
	}
	for i := range advance {
		advance[i] = make(chan sim.Time, 1)
		wg.Add(1)
		adv := r.mem.sched.RunUntil
		if i < len(r.systems) {
			adv = r.systems[i].sched.RunUntil
		}
		//lint:ignore simdeterminism shard workers synchronize at epoch barriers; within an epoch each owns its scheduler exclusively, and the merge order is canonical (see msgCmp)
		go step(i, func(end sim.Time) { adv(end) })
	}
	stop := func() {
		for _, c := range advance {
			close(c)
		}
		wg.Wait()
	}
	defer stop()

	var end sim.Time
	for {
		end = r.nextEpochEnd(end)
		for _, c := range advance {
			c <- end
		}
		for range advance {
			<-done
		}
		for i, p := range panics {
			if p != nil {
				return fmt.Errorf("cluster: shard %d panic: %v", i, p)
			}
		}
		r.epochs++
		r.now = end
		n := r.barrier()
		finished, err := r.checkBarrier(ctx, n)
		if finished || err != nil {
			return err
		}
	}
}
