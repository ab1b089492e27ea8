// Package workload synthesizes the instruction streams used in place
// of the 26 SPEC CPU2000 benchmarks (see DESIGN.md for the
// substitution rationale).
//
// Each benchmark is a parameterized instance of a common generator
// combining three access archetypes:
//
//   - stream: sequential sweeps over large arrays, touching a
//     configurable fraction of each region's blocks (spatial locality);
//   - chase: data-dependent references scattered over the working set
//     (pointer chasing), optionally serialized by load dependences;
//   - resident: reuse within a hot set that fits in the cache
//     hierarchy.
//
// The knobs are calibrated to the paper's per-benchmark observations:
// working-set size against the 1MB L2 (Section 4.5's three categories),
// region prefetch accuracy class (Section 4.1), bandwidth- versus
// latency-bound behaviour (Sections 1 and 4.3), and software-prefetch
// response (Section 4.7). Absolute IPC is not calibrated — only the
// qualitative structure the evaluation depends on.
package workload

import (
	"fmt"
	"math"

	"memsim/internal/trace"
)

// blockBytes is the reference granularity for spatial-locality
// decisions (independent of the simulated cache block size).
const blockBytes = 64

// SWPF configures software-prefetch emission for a profile
// (Section 4.7). The simulator's default is to discard software
// prefetches, mirroring the paper; generation is enabled per run.
type SWPF struct {
	// Prob is the per-stream-access probability of emitting a prefetch
	// instruction ahead of the access.
	Prob float64
	// DistanceBlocks is how far ahead of the stream the prefetch
	// targets.
	DistanceBlocks int
	// Wild emits prefetches to unrelated addresses: all overhead, no
	// benefit (galgel's behaviour).
	Wild bool
}

// Params are the generator knobs for one benchmark profile.
type Params struct {
	// WorkingSet is the size of the cold data the stream and chase
	// archetypes walk.
	WorkingSet uint64
	// ResidentBytes is the hot set reused by resident accesses.
	ResidentBytes uint64
	// MemFraction is the fraction of instructions that reference
	// memory.
	MemFraction float64
	// StoreFraction is the fraction of memory references that are
	// stores.
	StoreFraction float64
	// StreamWeight and ChaseWeight select the archetype per reference;
	// the remainder is resident reuse.
	StreamWeight, ChaseWeight float64
	// Streams is the number of concurrent sequential streams.
	Streams int
	// ElemBytes is the stream advance per access; values below
	// blockBytes model multiple touches per block.
	ElemBytes int
	// Coverage is the fraction of stream blocks actually referenced;
	// skipped blocks reduce spatial locality and prefetch accuracy.
	Coverage float64
	// DependentChase serializes chase loads on their predecessor
	// (pointer chasing); independent chase references overlap and can
	// saturate bandwidth.
	DependentChase bool
	// ChaseSpill is the probability a chase node spans into the next
	// 64-byte block (real nodes are often 100-200 bytes), adding a
	// second access there. It gives pointer codes the mild spatial
	// locality that makes 128-256B cache blocks worthwhile.
	ChaseSpill float64
	// ResidentDependent is the probability a resident (hot-set) load
	// depends on the previous load. Real code carries load-use chains
	// through its hot data structures, which exposes L1-miss/L2-hit
	// latency that independent loads would hide in the window; Figure 1
	// attributes 12% of execution time to it.
	ResidentDependent float64
	// SWPrefetch configures compiler-style prefetch emission.
	SWPrefetch SWPF
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.WorkingSet == 0 && p.StreamWeight+p.ChaseWeight > 0 {
		return fmt.Errorf("workload: zero working set with cold-access weight")
	}
	if p.MemFraction <= 0 || p.MemFraction > 1 {
		return fmt.Errorf("workload: mem fraction %v outside (0,1]", p.MemFraction)
	}
	if p.StoreFraction < 0 || p.StoreFraction > 1 {
		return fmt.Errorf("workload: store fraction %v outside [0,1]", p.StoreFraction)
	}
	w := p.StreamWeight + p.ChaseWeight
	if p.StreamWeight < 0 || p.ChaseWeight < 0 || w > 1 {
		return fmt.Errorf("workload: archetype weights %v/%v invalid", p.StreamWeight, p.ChaseWeight)
	}
	if w < 1 && p.ResidentBytes == 0 {
		return fmt.Errorf("workload: resident weight %v with zero resident set", 1-w)
	}
	if p.ResidentDependent < 0 || p.ResidentDependent > 1 {
		return fmt.Errorf("workload: resident dependence %v outside [0,1]", p.ResidentDependent)
	}
	if p.ChaseSpill < 0 || p.ChaseSpill > 1 {
		return fmt.Errorf("workload: chase spill %v outside [0,1]", p.ChaseSpill)
	}
	if p.StreamWeight > 0 {
		if p.Streams <= 0 {
			return fmt.Errorf("workload: stream weight with no streams")
		}
		if p.ElemBytes <= 0 {
			return fmt.Errorf("workload: element stride %d invalid", p.ElemBytes)
		}
		if p.Coverage <= 0 || p.Coverage > 1 {
			return fmt.Errorf("workload: coverage %v outside (0,1]", p.Coverage)
		}
	}
	return nil
}

// Profile names a calibrated benchmark configuration.
type Profile struct {
	Name string
	// Notes records the paper observations the calibration targets.
	Notes  string
	Params Params
}

// rng is a splitmix64 generator: tiny, fast, and deterministic.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// generator produces the instruction stream for one profile instance.
type generator struct {
	p    Params
	rng  rng
	swpf bool

	streamCur []uint64 // per-stream byte offsets within the stream span
	chaseSpan uint64
	// pending queues follow-up ops ahead of fresh ones, from index
	// head; it rewinds to empty once drained, so it never regrows.
	pending []trace.Op
	head    int

	nonMemMax int // uniform [0, nonMemMax] non-memory instructions per op
}

// NewGenerator builds the stream for params. seed varies the sample;
// swPrefetch enables software-prefetch emission. The stream is
// infinite; bound it with the core's instruction budget.
func NewGenerator(params Params, seed uint64, swPrefetch bool) (trace.Generator, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	g := &generator{p: params, rng: rng{s: seed ^ 0x5851f42d4c957f2d}, swpf: swPrefetch}
	if params.StreamWeight > 0 {
		g.streamCur = make([]uint64, params.Streams)
		span := g.streamSpan()
		for i := range g.streamCur {
			// Stagger the streams through their span.
			g.streamCur[i] = (uint64(i) * span / uint64(params.Streams)) &^ (blockBytes - 1)
		}
	}
	g.chaseSpan = params.WorkingSet
	mean := (1 - params.MemFraction) / params.MemFraction
	g.nonMemMax = int(math.Round(2 * mean))
	return g, nil
}

// streamSpan is each stream's private slice of the working set.
func (g *generator) streamSpan() uint64 {
	span := g.p.WorkingSet / uint64(g.p.Streams)
	if span < blockBytes {
		span = blockBytes
	}
	return span &^ (blockBytes - 1)
}

// coldBase is where the cold working set begins (above the hot set).
func (g *generator) coldBase() uint64 { return g.p.ResidentBytes }

// streamSkewBlocks staggers each stream's segment by a non-row-multiple
// offset, as allocator headers and array padding do in real programs.
// Without it, power-of-two segment spacings can pin two streams to the
// same or adjacent DRAM banks for an entire run — a pathology real
// address layouts do not sustain.
const streamSkewBlocks = 101

// streamBase is the absolute base address of stream s.
func (g *generator) streamBase(s int) uint64 {
	return g.coldBase() + uint64(s)*g.streamSpan() + uint64(s)*streamSkewBlocks*blockBytes
}

// Next implements trace.Generator. The stream never ends.
func (g *generator) Next() (trace.Op, bool) {
	if g.head < len(g.pending) {
		op := g.pending[g.head]
		g.head++
		if g.head == len(g.pending) {
			g.pending, g.head = g.pending[:0], 0
		}
		return op, true
	}

	op := trace.Op{NonMem: g.rng.intn(g.nonMemMax + 1), Kind: trace.Load}
	r := g.rng.float()
	switch {
	case r < g.p.StreamWeight:
		op.Addr = g.nextStream()
	case r < g.p.StreamWeight+g.p.ChaseWeight:
		op.Addr = g.nextChase()
		op.DependsOnPrev = g.p.DependentChase
		if g.rng.float() < g.p.ChaseSpill {
			// The node spans into the next block; the follow-up field
			// access needs no new pointer, so it issues in parallel.
			g.pending = append(g.pending, trace.Op{
				NonMem: 1,
				Addr:   op.Addr + blockBytes,
				Kind:   trace.Load,
			})
		}
	default:
		op.Addr = g.nextResident()
		op.DependsOnPrev = g.rng.float() < g.p.ResidentDependent
	}
	if !op.DependsOnPrev && g.rng.float() < g.p.StoreFraction {
		op.Kind = trace.Store
	}
	return op, true
}

func (g *generator) nextStream() uint64 {
	s := g.rng.intn(g.p.Streams)
	span := g.streamSpan()
	cur := g.streamCur[s]
	old := cur / blockBytes
	cur += uint64(g.p.ElemBytes)
	if cur/blockBytes != old {
		// Entering a new block: honour the coverage knob by skipping
		// blocks that this benchmark would not reference, which breaks
		// up region contiguity.
		for g.p.Coverage < 1 && g.rng.float() > g.p.Coverage {
			cur += blockBytes
		}
		if g.swpf && g.p.SWPrefetch.Prob > 0 && g.rng.float() < g.p.SWPrefetch.Prob {
			target := cur + uint64(g.p.SWPrefetch.DistanceBlocks*blockBytes)
			if g.p.SWPrefetch.Wild {
				target = g.coldBase() + g.rng.next()%g.chaseSpan
			} else {
				target = g.streamBase(s) + target%span
			}
			g.pending = append(g.pending, trace.Op{Addr: target &^ (blockBytes - 1), Kind: trace.SWPrefetch})
		}
	}
	cur %= span
	g.streamCur[s] = cur
	return g.streamBase(s) + cur
}

func (g *generator) nextChase() uint64 {
	off := (g.rng.next() % g.chaseSpan) &^ (blockBytes - 1)
	return g.coldBase() + off
}

func (g *generator) nextResident() uint64 {
	if g.p.ResidentBytes == 0 {
		return 0
	}
	return g.rng.next() % g.p.ResidentBytes
}
