package platform

import (
	"math"
	"strings"
	"testing"
)

func TestBlackfordMatchesFig4(t *testing.T) {
	a := Blackford()
	if a.NumCPUs != 8 {
		t.Fatalf("NumCPUs = %d, want 8", a.NumCPUs)
	}
	if a.CPUHz != 2.327e9 {
		t.Fatalf("CPUHz = %v, want 2.327e9", a.CPUHz)
	}
	if a.L1.SizeBytes != 32<<10 {
		t.Fatalf("L1 = %d, want 32 KB", a.L1.SizeBytes)
	}
	if a.L2.SizeBytes != 4<<20 {
		t.Fatalf("L2 = %d, want 4 MB", a.L2.SizeBytes)
	}
	if a.L2Count() != 4 {
		t.Fatalf("L2Count = %d, want 4", a.L2Count())
	}
	if a.DRAMBytes != 4<<30 {
		t.Fatalf("DRAM = %d, want 4 GB", a.DRAMBytes)
	}
	if a.L1BWGBs != 72 || a.L2BWGBs != 48 || a.MemBWGBs != 29 {
		t.Fatalf("bandwidths = %v/%v/%v, want 72/48/29", a.L1BWGBs, a.L2BWGBs, a.MemBWGBs)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Blackford must validate: %v", err)
	}
}

func TestValidateRejectsBadArch(t *testing.T) {
	base := Blackford()

	a := base
	a.NumCPUs = 0
	if a.Validate() == nil {
		t.Fatal("zero CPUs accepted")
	}

	a = base
	a.NumCPUs, a.L2SharedBy = 256, 2
	if a.Validate() == nil {
		t.Fatal("256 CPUs accepted: a mapping holds at most 255 stripes")
	}
	a.NumCPUs = 254 // even, so only the cap could reject it
	if err := a.Validate(); err != nil {
		t.Fatalf("254 CPUs rejected: %v", err)
	}

	a = base
	a.CPUHz = 0
	if a.Validate() == nil {
		t.Fatal("zero frequency accepted")
	}

	a = base
	a.L2SharedBy = 3 // 8 % 3 != 0
	if a.Validate() == nil {
		t.Fatal("uneven L2 sharing accepted")
	}

	a = base
	a.MemBWGBs = 0
	if a.Validate() == nil {
		t.Fatal("zero memory bandwidth accepted")
	}

	a = base
	a.L1 = CacheLevel{SizeBytes: 100, LineBytes: 64}
	if a.Validate() == nil {
		t.Fatal("invalid L1 accepted")
	}

	a = base
	a.L2 = CacheLevel{SizeBytes: 100, LineBytes: 64}
	if a.Validate() == nil {
		t.Fatal("invalid L2 accepted")
	}
}

func TestNewMachineValidates(t *testing.T) {
	bad := Blackford()
	bad.NumCPUs = -1
	if _, err := NewMachine(bad); err == nil {
		t.Fatal("NewMachine accepted invalid arch")
	}
	if _, err := NewMachine(Blackford()); err != nil {
		t.Fatal(err)
	}
}

func TestCostAddScale(t *testing.T) {
	c := Cost{Cycles: 100, MemBytes: 10}
	d := c.Add(Cost{Cycles: 50, MemBytes: 5})
	if d.Cycles != 150 || d.MemBytes != 15 {
		t.Fatalf("Add = %+v", d)
	}
	h := c.Scale(0.5)
	if h.Cycles != 50 || h.MemBytes != 5 {
		t.Fatalf("Scale = %+v", h)
	}
}

func TestExecMsComputeOnly(t *testing.T) {
	m, _ := NewMachine(Blackford())
	arch := m.Arch()
	// 2.327e6 cycles ~= 1 ms of pure compute (plus switch overhead).
	got := m.ExecMs(Cost{Cycles: 2.327e6}, 1)
	want := (2.327e6 + arch.SwitchCost) / arch.CPUHz * 1e3
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("ExecMs = %v, want %v", got, want)
	}
}

func TestExecMsMemoryStall(t *testing.T) {
	m, _ := NewMachine(Blackford())
	// 29 GB at 29 GB/s (single core) = 1 s = 1000 ms of memory time.
	got := m.ExecMs(Cost{MemBytes: 29e9}, 1)
	overhead := m.CyclesToMs(m.Arch().SwitchCost)
	if math.Abs(got-overhead-1000) > 1e-6 {
		t.Fatalf("ExecMs = %v, want ~1000+overhead", got)
	}
}

func TestExecMsContentionSlowsMemory(t *testing.T) {
	m, _ := NewMachine(Blackford())
	c := Cost{MemBytes: 1e9}
	alone := m.ExecMs(c, 1)
	shared := m.ExecMs(c, 4)
	if shared <= alone {
		t.Fatal("contention must increase memory time")
	}
	// With 4 contenders the bandwidth share is 1/4 -> memory part 4x.
	overhead := m.CyclesToMs(m.Arch().SwitchCost)
	ratio := (shared - overhead) / (alone - overhead)
	if math.Abs(ratio-4) > 1e-6 {
		t.Fatalf("contention ratio = %v, want 4", ratio)
	}
}

func TestExecMsContentionClamped(t *testing.T) {
	m, _ := NewMachine(Blackford())
	c := Cost{Cycles: 1e6, MemBytes: 1e6}
	if m.ExecMs(c, 0) != m.ExecMs(c, 1) {
		t.Fatal("contending < 1 must clamp to 1")
	}
	if m.ExecMs(c, 100) != m.ExecMs(c, 8) {
		t.Fatal("contending > NumCPUs must clamp")
	}
}

func TestExecMsL2PortLimit(t *testing.T) {
	a := Blackford()
	a.MemBWGBs = 1000 // memory faster than the L2 port
	m, _ := NewMachine(a)
	got := m.ExecMs(Cost{MemBytes: 48e9}, 1)
	overhead := m.CyclesToMs(a.SwitchCost)
	// Limited by the 48 GB/s L2 port -> 1000 ms.
	if math.Abs(got-overhead-1000) > 1e-6 {
		t.Fatalf("L2 port limit not applied: %v", got)
	}
}

func TestStripedMsSpeedsUpCompute(t *testing.T) {
	m, _ := NewMachine(Blackford())
	c := Cost{Cycles: 1e8} // pure compute
	serial := m.StripedMs(c, 1)
	dual := m.StripedMs(c, 2)
	if dual >= serial {
		t.Fatal("2-stripe must be faster for compute-bound work")
	}
	// Near-ideal speedup for pure compute (only switch overhead differs).
	if dual > serial*0.55 {
		t.Fatalf("2-stripe speedup too small: %v vs %v", dual, serial)
	}
}

func TestStripedMsMemoryBoundDoesNotScale(t *testing.T) {
	m, _ := NewMachine(Blackford())
	c := Cost{MemBytes: 5e9} // pure memory traffic
	serial := m.StripedMs(c, 1)
	quad := m.StripedMs(c, 4)
	overhead := m.CyclesToMs(m.Arch().SwitchCost)
	// Each stripe moves 1/4 of the bytes at 1/4 bandwidth: same time.
	if math.Abs((quad-overhead)-(serial-overhead)) > 1e-6 {
		t.Fatalf("memory-bound striping changed time: %v vs %v", quad, serial)
	}
}

func TestStripedMsClamps(t *testing.T) {
	m, _ := NewMachine(Blackford())
	c := Cost{Cycles: 1e7}
	if m.StripedMs(c, 0) != m.StripedMs(c, 1) {
		t.Fatal("k < 1 must clamp to 1")
	}
	if m.StripedMs(c, 999) != m.StripedMs(c, 8) {
		t.Fatal("k > NumCPUs must clamp")
	}
}

func TestCycleConversionRoundTrip(t *testing.T) {
	m, _ := NewMachine(Blackford())
	ms := 12.5
	if got := m.CyclesToMs(m.MsToCycles(ms)); math.Abs(got-ms) > 1e-9 {
		t.Fatalf("round trip = %v, want %v", got, ms)
	}
}

func TestDescribeMentionsKeyNumbers(t *testing.T) {
	d := Blackford().Describe()
	for _, want := range []string{"8 x 2327", "32 KB", "4 MB", "72", "48", "29", "0.94", "3.83"} {
		if !strings.Contains(d, want) {
			t.Fatalf("Describe() missing %q:\n%s", want, d)
		}
	}
}
