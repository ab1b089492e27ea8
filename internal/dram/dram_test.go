package dram

import (
	"testing"
	"testing/quick"

	"memsim/internal/sim"
)

func TestPart800x40Latencies(t *testing.T) {
	// Section 2.2: "A single, contentionless dualoct access that
	// misses in the row buffer will incur 77.5 ns ... An access to a
	// precharged bank therefore requires 57.5 ns, and a page hit
	// requires only 40 ns."
	p := Part800x40
	if got, want := p.RowHitLatency(), 40*sim.Nanosecond; got != want {
		t.Errorf("row hit latency = %v, want %v", got, want)
	}
	if got, want := p.PrechargedLatency(), 57500*sim.Picosecond; got != want {
		t.Errorf("precharged latency = %v, want %v", got, want)
	}
	if got, want := p.RowMissLatency(), 77500*sim.Picosecond; got != want {
		t.Errorf("row miss latency = %v, want %v", got, want)
	}
}

func TestPartOrdering(t *testing.T) {
	// The sensitivity-study parts must be strictly ordered in speed.
	if !(Part800x34.RowMissLatency() < Part800x40.RowMissLatency() &&
		Part800x40.RowMissLatency() < Part800x50.RowMissLatency()) {
		t.Error("parts not ordered 34 < 40 < 50 in row-miss latency")
	}
	if Part800x34.RowHitLatency() != 34*sim.Nanosecond {
		t.Errorf("800-34 hit latency = %v, want 34ns", Part800x34.RowHitLatency())
	}
	if Part800x50.RowHitLatency() != 50*sim.Nanosecond {
		t.Errorf("800-50 hit latency = %v, want 50ns", Part800x50.RowHitLatency())
	}
}

func TestPartByName(t *testing.T) {
	p, err := PartByName("800-40")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "800-40" {
		t.Errorf("part name = %q", p.Name)
	}
	if _, err := PartByName("bogus"); err == nil {
		t.Error("PartByName(bogus) did not error")
	}
}

func TestGeometryConstants(t *testing.T) {
	if DeviceBytes != 32<<20 {
		t.Errorf("DeviceBytes = %d, want 32MB (256 Mbit)", DeviceBytes)
	}
	if ColumnsPerRow != 128 {
		t.Errorf("ColumnsPerRow = %d, want 128", ColumnsPerRow)
	}
}

func TestNewDeviceAllClosed(t *testing.T) {
	d := NewDevice()
	if d.NumBanks() != BanksPerDevice {
		t.Fatalf("NumBanks = %d, want %d", d.NumBanks(), BanksPerDevice)
	}
	for b := 0; b < d.NumBanks(); b++ {
		if _, open := d.OpenRow(b); open {
			t.Fatalf("bank %d open after NewDevice", b)
		}
	}
	if d.ActiveBanks() != 0 {
		t.Fatalf("ActiveBanks = %d, want 0", d.ActiveBanks())
	}
}

func TestActivateOpensRow(t *testing.T) {
	d := NewDevice()
	d.Activate(5, 100)
	if !d.IsOpen(5, 100) {
		t.Error("bank 5 not open at row 100")
	}
	if d.IsOpen(5, 101) {
		t.Error("bank 5 reported open at wrong row")
	}
	row, open := d.OpenRow(5)
	if !open || row != 100 {
		t.Errorf("OpenRow(5) = %d,%v, want 100,true", row, open)
	}
}

func TestActivateClosesNeighbors(t *testing.T) {
	// Section 2.2: "An access to bank 1 will thus flush the row
	// buffers of banks 0 and 2 if they are active, even if the previous
	// access to bank 1 involved the same row."
	d := NewDevice()
	d.Activate(0, 10)
	d.Activate(2, 20)
	d.Activate(1, 30)
	if _, open := d.OpenRow(0); open {
		t.Error("bank 0 still active after activating bank 1")
	}
	if _, open := d.OpenRow(2); open {
		t.Error("bank 2 still active after activating bank 1")
	}
	if !d.IsOpen(1, 30) {
		t.Error("bank 1 not open")
	}
}

func TestPrechargesForClosedBank(t *testing.T) {
	d := NewDevice()
	self, neighbors := d.Precharges(4, 7)
	if self || neighbors != [2]int{NoBank, NoBank} {
		t.Errorf("closed bank Precharges = %v,%v, want false,none", self, neighbors)
	}
}

func TestPrechargesRowHitNeedsNothing(t *testing.T) {
	d := NewDevice()
	d.Activate(4, 7)
	self, neighbors := d.Precharges(4, 7)
	if self || neighbors != [2]int{NoBank, NoBank} {
		t.Errorf("row-hit Precharges = %v,%v, want false,none", self, neighbors)
	}
}

func TestPrechargesRowMiss(t *testing.T) {
	d := NewDevice()
	d.Activate(4, 7)
	self, neighbors := d.Precharges(4, 8)
	if !self {
		t.Error("row miss should require self precharge")
	}
	if neighbors != [2]int{NoBank, NoBank} {
		t.Errorf("unexpected neighbor precharges %v", neighbors)
	}
}

func TestPrechargesNeighborConflict(t *testing.T) {
	d := NewDevice()
	d.Activate(3, 7)
	self, neighbors := d.Precharges(4, 9)
	if self {
		t.Error("closed bank should not need self precharge")
	}
	if neighbors != [2]int{3, NoBank} {
		t.Errorf("neighbors = %v, want [3 none]", neighbors)
	}
}

func TestPrechargesBothNeighbors(t *testing.T) {
	d := NewDevice()
	d.Activate(3, 1)
	// Activating bank 5 closes bank 4; reopen 3 is unaffected.
	d.Activate(5, 2)
	if !d.IsOpen(3, 1) || !d.IsOpen(5, 2) {
		t.Fatal("setup failed: banks 3 and 5 should be open")
	}
	self, neighbors := d.Precharges(4, 0)
	if self {
		t.Error("self precharge not needed for closed bank 4")
	}
	if neighbors != [2]int{3, 5} {
		t.Fatalf("neighbors = %v, want both 3 and 5", neighbors)
	}
}

func TestEdgeBanks(t *testing.T) {
	d := NewDevice()
	d.Activate(1, 5)
	_, neighbors := d.Precharges(0, 3)
	if neighbors != [2]int{NoBank, 1} {
		t.Errorf("bank 0 neighbors = %v, want [none 1]", neighbors)
	}
	d.PrechargeAll()
	d.Activate(BanksPerDevice-2, 5)
	_, neighbors = d.Precharges(BanksPerDevice-1, 3)
	if neighbors != [2]int{BanksPerDevice - 2, NoBank} {
		t.Errorf("top bank neighbors = %v", neighbors)
	}
}

func TestPrecharge(t *testing.T) {
	d := NewDevice()
	d.Activate(9, 42)
	d.Precharge(9)
	if _, open := d.OpenRow(9); open {
		t.Error("bank open after Precharge")
	}
}

func TestPrechargeAll(t *testing.T) {
	d := NewDevice()
	d.Activate(0, 1)
	d.Activate(10, 2)
	d.Activate(20, 3)
	d.PrechargeAll()
	if d.ActiveBanks() != 0 {
		t.Errorf("ActiveBanks = %d after PrechargeAll", d.ActiveBanks())
	}
}

func TestActivatePanicsOnBadRow(t *testing.T) {
	d := NewDevice()
	defer func() {
		if recover() == nil {
			t.Fatal("Activate with out-of-range row did not panic")
		}
	}()
	d.Activate(0, RowsPerBank)
}

// Property: no two adjacent banks are ever simultaneously active, no
// matter the activation sequence (the shared sense-amp invariant).
func TestPropertyAdjacentExclusion(t *testing.T) {
	f := func(ops []uint16) bool {
		d := NewDevice()
		for _, op := range ops {
			bank := int(op) % BanksPerDevice
			row := (int(op) / BanksPerDevice) % RowsPerBank
			d.Activate(bank, row)
			for b := 0; b < BanksPerDevice-1; b++ {
				_, openA := d.OpenRow(b)
				_, openB := d.OpenRow(b + 1)
				if openA && openB {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: after Activate(b, r), an immediate access to (b, r) is a
// row hit requiring no precharges.
func TestPropertyActivateThenHit(t *testing.T) {
	f := func(bank uint8, row uint16) bool {
		b := int(bank) % BanksPerDevice
		r := int(row) % RowsPerBank
		d := NewDevice()
		d.Activate(b, r)
		self, neighbors := d.Precharges(b, r)
		return d.IsOpen(b, r) && !self && neighbors == [2]int{NoBank, NoBank}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
