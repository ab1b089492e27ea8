package addrmap

import (
	"testing"
	"testing/quick"

	"memsim/internal/dram"
)

func base4x2(t *testing.T) Geometry {
	t.Helper()
	g := Geometry{Channels: 4, DevicesPerChannel: 2}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGeometryBaseSystem(t *testing.T) {
	// The paper's base system: 4 channels, 256 MB total.
	g := base4x2(t)
	if g.Capacity() != 256<<20 {
		t.Errorf("capacity = %d, want 256MB", g.Capacity())
	}
	if g.UnitBytes() != 64 {
		t.Errorf("unit = %d, want 64 (4 dualocts)", g.UnitBytes())
	}
	if g.LogicalRowBytes() != 8192 {
		t.Errorf("logical row = %d, want 8KB", g.LogicalRowBytes())
	}
	if bw := g.PeakBandwidth(); bw != 6.4e9 {
		t.Errorf("peak bandwidth = %g, want 6.4GB/s", bw)
	}
}

func TestGeometryValidate(t *testing.T) {
	bad := []Geometry{
		{Channels: 0, DevicesPerChannel: 1},
		{Channels: 3, DevicesPerChannel: 1},
		{Channels: 4, DevicesPerChannel: 0},
		{Channels: 4, DevicesPerChannel: 6},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", g)
		}
	}
	if err := (Geometry{Channels: 1, DevicesPerChannel: 32}).Validate(); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
}

// TestByName checks each constructor names its mapper as the policy
// registry knows it (unknown names are the registry's to reject).
func TestByName(t *testing.T) {
	g := base4x2(t)
	for name, build := range constructors {
		m, err := build(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("mapper name = %q, want %q", m.Name(), name)
		}
	}
}

func TestBaseMapContiguity(t *testing.T) {
	// Adjacent blocks map contiguously into a single DRAM row before
	// striping across devices and banks.
	g := base4x2(t)
	m, _ := NewBase(g)
	unit := g.UnitBytes()
	c0 := m.Map(0)
	if c0 != (Coord{Device: 0, Bank: 0, Row: 0, Col: 0}) {
		t.Fatalf("Map(0) = %v", c0)
	}
	for i := uint64(1); i < dram.ColumnsPerRow; i++ {
		c := m.Map(i * unit)
		if !c.SameRow(c0) || c.Col != int(i) {
			t.Fatalf("Map(unit*%d) = %v, want same row col %d", i, c, i)
		}
	}
	// The next unit after the row stripes to the next device.
	c := m.Map(dram.ColumnsPerRow * unit)
	if c.Device != 1 || c.Bank != 0 || c.Row != 0 || c.Col != 0 {
		t.Fatalf("first unit of next row = %v, want dev1/bank0/row0/col0", c)
	}
	// After all devices, the bank advances.
	c = m.Map(uint64(g.DevicesPerChannel) * dram.ColumnsPerRow * unit)
	if c.Bank != 1 || c.Device != 0 {
		t.Fatalf("after device stripe = %v, want bank 1 dev 0", c)
	}
}

func TestBaseMapRowInTopBits(t *testing.T) {
	g := base4x2(t)
	m, _ := NewBase(g)
	// One full stripe of all banks and devices = row size * banks * devs.
	stride := g.LogicalRowBytes() * dram.BanksPerDevice * uint64(g.DevicesPerChannel)
	c := m.Map(stride)
	if c.Row != 1 || c.Bank != 0 || c.Device != 0 {
		t.Fatalf("Map(stride) = %v, want row 1", c)
	}
}

func TestBaseCacheAliasSameBank(t *testing.T) {
	// The writeback anomaly (Section 3.4): blocks that map to the same
	// 1MB-cache set differ only in high-order bits, which under the
	// base mapping select different rows of the same bank (with one
	// device per channel), guaranteeing a bank conflict.
	g := Geometry{Channels: 4, DevicesPerChannel: 1}
	m, _ := NewBase(g)
	cacheWay := uint64(1 << 18) // 1MB / 4 ways
	a := m.Map(0x12340)
	b := m.Map(0x12340 + 4*cacheWay) // same L2 set, different tag
	if a.Bank != b.Bank || a.Device != b.Device {
		t.Fatalf("aliasing blocks in different banks (%v vs %v) under base mapping", a, b)
	}
	if a.Row == b.Row {
		t.Fatal("aliasing blocks in same row; expected row conflict")
	}
}

func TestXORCacheAliasSpreadsBanks(t *testing.T) {
	// The XOR mapping distributes blocks that map to a given cache set
	// evenly across the banks.
	g := Geometry{Channels: 4, DevicesPerChannel: 1}
	m, _ := NewXOR(g)
	// Blocks aliasing to one L2 set recur every way size (1MB/4 = 256KB).
	waySize := uint64(1 << 18)
	banks := map[int]bool{}
	for i := uint64(0); i < 32; i++ {
		c := m.Map(0x40 + waySize*i)
		banks[c.Bank] = true
	}
	if len(banks) < 16 {
		t.Fatalf("XOR mapping spread aliases over only %d banks", len(banks))
	}
}

func TestXORPreservesRowContiguity(t *testing.T) {
	// "This mapping retains the contiguous-address striping properties
	// of the base mapping": within one row's worth of addresses the
	// coordinate stays in a single (device, bank, row).
	g := base4x2(t)
	m, _ := NewXOR(g)
	unit := g.UnitBytes()
	first := m.Map(0)
	for i := uint64(1); i < dram.ColumnsPerRow; i++ {
		c := m.Map(i * unit)
		if !c.SameRow(first) {
			t.Fatalf("address %d left the row: %v vs %v", i*unit, c, first)
		}
	}
}

func TestXOREvenBanksFirst(t *testing.T) {
	// The bank-LSB rotation stripes addresses across all the even
	// banks successively, then across the odd banks, so consecutive
	// row-sized stripes never touch adjacent banks until half the
	// banks are in use.
	g := Geometry{Channels: 4, DevicesPerChannel: 1}
	m, _ := NewXOR(g)
	rowStride := g.LogicalRowBytes()
	var firstHalf []int
	for i := uint64(0); i < 16; i++ {
		c := m.Map(i * rowStride)
		firstHalf = append(firstHalf, c.Bank)
	}
	for i, b := range firstHalf {
		if b%2 != 0 {
			t.Fatalf("stripe %d landed on odd bank %d before even banks exhausted: %v", i, b, firstHalf)
		}
	}
	// The 17th stripe starts the odd banks.
	if c := m.Map(16 * rowStride); c.Bank%2 != 1 {
		t.Fatalf("17th stripe on bank %d, want odd", c.Bank)
	}
}

func TestSwapAliasRowHit(t *testing.T) {
	// "If the bank and row are largely determined by the cache index,
	// then the writeback will go from being a likely bank conflict to a
	// likely row-buffer hit."
	g := Geometry{Channels: 4, DevicesPerChannel: 1}
	m, _ := NewSwap(g)
	a := m.Map(0x12340)
	b := m.Map(0x12340 + 1<<20) // same L2 set, different tag
	if !a.SameRow(b) {
		t.Fatalf("swap mapping: cache aliases not in same row: %v vs %v", a, b)
	}
	if a.Col == b.Col {
		t.Fatal("distinct aliases share a full coordinate")
	}
}

func TestSwapReducesSpatialLocality(t *testing.T) {
	// "By placing discontiguous addresses in a single row, spatial
	// locality is reduced": consecutive column-unit addresses advance
	// the row index within one bank instead of walking a row.
	g := base4x2(t)
	m, _ := NewSwap(g)
	a := m.Map(0)
	b := m.Map(g.UnitBytes())
	if a.Bank != b.Bank || a.Device != b.Device {
		t.Fatalf("consecutive units changed banks: %v vs %v", a, b)
	}
	if a.SameRow(b) {
		t.Fatalf("consecutive units stayed in one row (%v, %v); swap should disperse them", a, b)
	}
}

func TestMapWrapsCapacity(t *testing.T) {
	g := base4x2(t)
	for _, m := range []Mapper{mustBase(g), mustXOR(g), mustSwap(g)} {
		a := m.Map(0x1234c0)
		b := m.Map(0x1234c0 + g.Capacity())
		if a != b {
			t.Errorf("%s: Map does not wrap at capacity: %v vs %v", m.Name(), a, b)
		}
	}
}

func mustBase(g Geometry) Mapper { m, _ := NewBase(g); return m }
func mustXOR(g Geometry) Mapper  { m, _ := NewXOR(g); return m }
func mustSwap(g Geometry) Mapper { m, _ := NewSwap(g); return m }

// Property: every mapper yields in-range coordinates for any address.
func TestPropertyCoordsInRange(t *testing.T) {
	g := base4x2(t)
	mappers := []Mapper{mustBase(g), mustXOR(g), mustSwap(g)}
	f := func(addr uint64) bool {
		for _, m := range mappers {
			c := m.Map(addr)
			if c.Device < 0 || c.Device >= g.DevicesPerChannel ||
				c.Bank < 0 || c.Bank >= dram.BanksPerDevice ||
				c.Row < 0 || c.Row >= dram.RowsPerBank ||
				c.Col < 0 || c.Col >= dram.ColumnsPerRow {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: each mapping is a bijection on the capacity: two distinct
// in-range column units never share a coordinate.
func TestPropertyBijection(t *testing.T) {
	g := Geometry{Channels: 1, DevicesPerChannel: 1} // 32MB, small enough to enumerate sparsely
	for _, m := range []Mapper{mustBase(g), mustXOR(g), mustSwap(g)} {
		seen := make(map[Coord]uint64)
		unit := g.UnitBytes()
		// Stride through a structured subset covering all field
		// interactions: every 257th unit wraps through rows and banks.
		for i := uint64(0); i < 1<<16; i++ {
			a := (i * 257 * unit) % g.Capacity()
			c := m.Map(a)
			if prev, ok := seen[c]; ok && prev != a {
				t.Fatalf("%s: collision %v for addrs %#x and %#x", m.Name(), c, prev, a)
			}
			seen[c] = a
		}
	}
}

// Property: XOR and base mappings agree on row and column (only the
// device/bank placement differs).
func TestPropertyXORPreservesRowCol(t *testing.T) {
	g := base4x2(t)
	bm, xm := mustBase(g), mustXOR(g)
	f := func(addr uint64) bool {
		a, b := bm.Map(addr), xm.Map(addr)
		return a.Row == b.Row && a.Col == b.Col
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpansSingleBlock(t *testing.T) {
	g := base4x2(t)
	m := mustBase(g)
	// A 64-byte block on a 4-channel system is one logical column.
	spans := Spans(m, 0x1000, 64)
	if len(spans) != 1 || spans[0].NCols != 1 {
		t.Fatalf("spans = %v, want single 1-col span", spans)
	}
	// A 256-byte block is 4 contiguous columns in one row.
	spans = Spans(m, 0x1000, 256)
	if len(spans) != 1 || spans[0].NCols != 4 {
		t.Fatalf("spans = %v, want single 4-col span", spans)
	}
}

func TestSpansCrossRow(t *testing.T) {
	g := base4x2(t)
	m := mustBase(g)
	// An 8KB block on the 4-channel system is exactly one logical row.
	spans := Spans(m, 0, 8192)
	if len(spans) != 1 || spans[0].NCols != dram.ColumnsPerRow {
		t.Fatalf("8KB spans = %v, want one full-row span", spans)
	}
	// Starting mid-row, the same size must split across coordinates.
	spans = Spans(m, 4096, 8192)
	if len(spans) != 2 {
		t.Fatalf("mid-row 8KB spans = %d, want 2", len(spans))
	}
	if spans[0].NCols+spans[1].NCols != dram.ColumnsPerRow {
		t.Fatalf("span columns = %d+%d, want %d total", spans[0].NCols, spans[1].NCols, dram.ColumnsPerRow)
	}
}

func TestSpansZeroSize(t *testing.T) {
	g := base4x2(t)
	if s := Spans(mustBase(g), 0x40, 0); s != nil {
		t.Fatalf("Spans(size=0) = %v, want nil", s)
	}
}

// Property: span column counts always sum to ceil(size/unit) and spans
// cover contiguous logical columns.
func TestPropertySpansCoverage(t *testing.T) {
	g := base4x2(t)
	m := mustXOR(g)
	unit := g.UnitBytes()
	f := func(addr uint64, sz uint16) bool {
		size := uint64(sz%8192) + 1
		addr = addr % (1 << 30)
		a := addr / unit * unit
		want := int((addr + size - a + unit - 1) / unit)
		total := 0
		for _, s := range Spans(m, addr, size) {
			if s.NCols < 1 {
				return false
			}
			total += s.NCols
		}
		return total == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
