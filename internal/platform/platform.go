// Package platform models the paper's evaluation hardware (Fig. 4): a
// dual quad-core general-purpose multiprocessor — 8 CPUs of 2.327 GCycles/s,
// 8 level-1 caches of 32 KB, 4 level-2 caches of 4 MB shared per core pair,
// 4 GB of external memory, and the bus bandwidths the figure annotates.
//
// The paper profiles wall-clock time on real hardware; this reproduction
// replaces profiling with a deterministic machine model (see DESIGN.md §2):
// each task reports the work it actually performed as abstract cycles plus
// external-memory traffic, and the machine converts that into milliseconds,
// including bandwidth contention between cores. All experiments therefore
// reproduce bit-identically on any host.
//
// The machine's L2 is modeled twice: a set-associative LRU simulator that
// measures intra-task traffic (cache.go) and the paper's space-time
// buffer-occupation model that predicts it (occupation.go, Fig. 5).
package platform

import (
	"errors"
	"fmt"
	"strings"
)

// Arch describes the platform's static resources.
type Arch struct {
	NumCPUs     int     // processing cores
	CPUHz       float64 // cycles per second per core
	L1          CacheLevel
	L2          CacheLevel
	L2SharedBy  int     // cores sharing one L2 (Fig. 4: two)
	DRAMBytes   int64   // external memory capacity
	L1BWGBs     float64 // CPU <-> L1 bandwidth, GB/s (Fig. 4: 72)
	L2BWGBs     float64 // L2 <-> bus bandwidth, GB/s (Fig. 4: 48)
	MemBWGBs    float64 // bus <-> external memory, GB/s (Fig. 4: 29)
	IOBWMinGBs  float64 // I/O hub min bandwidth (Fig. 4: 0.94)
	IOBWMaxGBs  float64 // I/O hub max bandwidth (Fig. 4: 3.83)
	SwitchCost  float64 // task-switch and control overhead per task start, cycles
	Description string
}

// Blackford returns the instantiated architecture of the paper's Fig. 4(b):
// the Intel 5000-series ("Blackford") dual quad-core platform.
func Blackford() Arch {
	return Arch{
		NumCPUs:     8,
		CPUHz:       2.327e9,
		L1:          CacheLevel{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8},
		L2:          CacheLevel{SizeBytes: 4 << 20, LineBytes: 64, Assoc: 16},
		L2SharedBy:  2,
		DRAMBytes:   4 << 30,
		L1BWGBs:     72,
		L2BWGBs:     48,
		MemBWGBs:    29,
		IOBWMinGBs:  0.94,
		IOBWMaxGBs:  3.83,
		SwitchCost:  20000, // ~8.6 us of control overhead per task activation
		Description: "Intel 5000 (Blackford) dual quad-core, 8x2.327 GCycles/s",
	}
}

// MaxCPUs is the largest NumCPUs an Arch may have, so a stripe count fits
// the byte partition.Mapping keeps per task.
const MaxCPUs = 255

// Validate checks the architecture for structural consistency.
func (a Arch) Validate() error {
	if a.NumCPUs <= 0 {
		return errors.New("platform: need at least one CPU")
	}
	if a.NumCPUs > MaxCPUs {
		return fmt.Errorf("platform: %d CPUs, at most %d", a.NumCPUs, MaxCPUs)
	}
	if a.CPUHz <= 0 {
		return errors.New("platform: CPU frequency must be positive")
	}
	if a.L2SharedBy <= 0 || a.NumCPUs%a.L2SharedBy != 0 {
		return errors.New("platform: cores must divide evenly over L2 caches")
	}
	if a.MemBWGBs <= 0 || a.L2BWGBs <= 0 || a.L1BWGBs <= 0 {
		return errors.New("platform: bandwidths must be positive")
	}
	if err := a.L1.Validate(); err != nil {
		return fmt.Errorf("platform: L1: %w", err)
	}
	if err := a.L2.Validate(); err != nil {
		return fmt.Errorf("platform: L2: %w", err)
	}
	return nil
}

// L2Count returns the number of level-2 caches.
func (a Arch) L2Count() int { return a.NumCPUs / a.L2SharedBy }

// Cost is the resource demand of one task execution, the machine model's
// currency: pure compute plus external-memory traffic.
type Cost struct {
	Cycles   float64 // compute work in CPU cycles
	MemBytes float64 // traffic between cache hierarchy and external memory
}

// Scale returns the cost multiplied by f (used when striping a task over
// multiple cores: each stripe carries a fraction of the work).
func (c Cost) Scale(f float64) Cost {
	return Cost{Cycles: c.Cycles * f, MemBytes: c.MemBytes * f}
}

// Machine converts Costs into execution times on an Arch.
type Machine struct {
	arch Arch
}

// NewMachine validates arch and returns a machine model.
func NewMachine(arch Arch) (*Machine, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	return &Machine{arch: arch}, nil
}

// Arch returns the machine's architecture.
func (m *Machine) Arch() Arch { return m.arch }

// ExecMs returns the time in milliseconds to execute a task of the given
// cost on a single core while `contending` cores in total are generating
// memory traffic (contending >= 1). Compute and memory transfer overlap is
// pessimistically ignored: the times add, which matches the paper's
// observation that cache overflow directly inflates task time.
func (m *Machine) ExecMs(c Cost, contending int) float64 {
	if contending < 1 {
		contending = 1
	}
	if contending > m.arch.NumCPUs {
		contending = m.arch.NumCPUs
	}
	computeS := (c.Cycles + m.arch.SwitchCost) / m.arch.CPUHz
	// Each contending core receives an equal share of the external-memory
	// bandwidth, and a single core can never exceed the L2 port bandwidth.
	perCoreBW := m.arch.MemBWGBs / float64(contending)
	if perCoreBW > m.arch.L2BWGBs {
		perCoreBW = m.arch.L2BWGBs
	}
	memS := c.MemBytes / (perCoreBW * 1e9)
	return (computeS + memS) * 1e3
}

// StripedMs returns the time to execute cost c split evenly over k cores
// (data-parallel striping), including a per-stripe fork/join overhead and
// bandwidth contention between the stripes. A stripe carries 1/k of the
// compute but the stripes' memory traffic contends.
func (m *Machine) StripedMs(c Cost, k int) float64 {
	if k < 1 {
		k = 1
	}
	if k > m.arch.NumCPUs {
		k = m.arch.NumCPUs
	}
	stripe := c.Scale(1 / float64(k))
	return m.ExecMs(stripe, k)
}

// MsToCycles converts milliseconds to cycles at the machine's clock.
func (m *Machine) MsToCycles(ms float64) float64 { return ms / 1e3 * m.arch.CPUHz }

// CyclesToMs converts cycles to milliseconds at the machine's clock.
func (m *Machine) CyclesToMs(cycles float64) float64 { return cycles / m.arch.CPUHz * 1e3 }

// Describe renders the architecture the way Fig. 4(b) annotates it.
func (a Arch) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", a.Description)
	fmt.Fprintf(&b, "  CPUs      : %d x %.0f MCycles/s\n", a.NumCPUs, a.CPUHz/1e6)
	fmt.Fprintf(&b, "  L1 caches : %d x %d KB (%d-way, %d B lines)\n",
		a.NumCPUs, a.L1.SizeBytes>>10, a.L1.Assoc, a.L1.LineBytes)
	fmt.Fprintf(&b, "  L2 caches : %d x %d MB shared by %d cores (%d-way)\n",
		a.L2Count(), a.L2.SizeBytes>>20, a.L2SharedBy, a.L2.Assoc)
	fmt.Fprintf(&b, "  Memory    : %d GB external\n", a.DRAMBytes>>30)
	fmt.Fprintf(&b, "  Bandwidth : CPU-cache %.0f GB/s, cache-bus %.0f GB/s, bus-memory %.0f GB/s, I/O %.2f-%.2f GB/s\n",
		a.L1BWGBs, a.L2BWGBs, a.MemBWGBs, a.IOBWMinGBs, a.IOBWMaxGBs)
	return b.String()
}
