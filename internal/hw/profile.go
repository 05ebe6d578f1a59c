// Package hw models the three evaluation targets of the paper (§IV): an AMD
// Ryzen 7 5800X-class x86 CPU, a Raspberry Pi 4 Cortex-A72, and a SiFive
// U74-MC — their Table I cache hierarchies plus a cycle-approximate timing
// model and a noisy measurement harness.
//
// In the paper, reference run times t_ref come from executing every
// implementation natively on the physical boards. This package is the
// repository's stand-in for that hardware: the timing model consumes the
// same instruction stream as the instruction-accurate simulator but
// additionally models what the IA simulator cannot see — per-class issue
// costs, cache-miss latencies damped by out-of-order overlap, a stream
// prefetcher, branch-mispredict penalties, and run-to-run measurement
// noise.
package hw

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/isa"
)

// Profile bundles everything the reproduction knows about one target CPU.
type Profile struct {
	Arch isa.Arch
	// Name is the marketing name of the modelled part.
	Name string
	// FreqGHz is the core clock used to convert cycles to seconds
	// (paper §IV: 2.2, 1.5 and 1.2 GHz).
	FreqGHz float64
	// Caches is the Table I hierarchy.
	Caches cache.HierarchyConfig
	// Timing holds the microarchitectural cost model.
	Timing TimingParams
	// SimMIPS is the modelled simulation rate (million instructions per
	// second) of a gem5-atomic-class simulator for this ISA, used by the
	// Eq. (4) speedup analysis.
	SimMIPS float64
}

// TimingParams is the cycle-approximate cost model of one CPU.
type TimingParams struct {
	// IssueCost is the average issue cost in cycles per instruction class
	// (reciprocal throughput on the modelled pipeline).
	IssueCost [isa.NumClasses]float64
	// Latency maps cache service depth (1=L1, 2=L2, 3=L3/mem, 4=mem) to a
	// load-to-use latency in cycles. Index 0 is unused.
	Latency [6]float64
	// MLPOverlap in [0,1) is the fraction of miss latency hidden by
	// out-of-order execution / memory-level parallelism.
	MLPOverlap float64
	// PrefetchEff in [0,1) is the fraction of a detected streaming miss's
	// latency hidden by the hardware prefetcher.
	PrefetchEff float64
	// MispredictPenalty is the pipeline refill cost of a mispredicted
	// branch in cycles.
	MispredictPenalty float64
	// GuardMispredictEvery makes every Nth guard branch mispredict
	// (deterministic stand-in for data-dependent branch noise; 0 = never).
	GuardMispredictEvery uint64
	// CallOverheadSec is the fixed per-run overhead (process start, timer
	// reads, tvm runtime dispatch).
	CallOverheadSec float64
	// NoiseBase is the relative run-to-run noise floor of the platform.
	NoiseBase float64
	// NoiseShort is additional relative noise for very short runs (timer
	// granularity, transient load), fading with run time.
	NoiseShort float64
	// NoiseRefSec is the run time at which NoiseShort has fallen to half.
	NoiseRefSec float64
	// OutlierProb is the probability of a background-load spike per
	// repetition; OutlierScale is its magnitude.
	OutlierProb  float64
	OutlierScale float64
}

// line64 is the cache-line size shared by all Table I CPUs.
const line64 = 64

// profiles are the three Table I machines.
var profiles = map[isa.Arch]Profile{
	isa.X86: {
		Arch:    isa.X86,
		Name:    "AMD Ryzen 7 5800X (1 core)",
		FreqGHz: 2.2,
		Caches: cache.HierarchyConfig{
			L1D: cache.Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: line64, Assoc: 8},
			L1I: cache.Config{Name: "L1I", SizeBytes: 32 << 10, LineBytes: line64, Assoc: 8},
			L2:  cache.Config{Name: "L2", SizeBytes: 512 << 10, LineBytes: line64, Assoc: 8},
			L3:  cache.Config{Name: "L3", SizeBytes: 32 << 20, LineBytes: line64, Assoc: 16},
		},
		Timing: TimingParams{
			IssueCost: perClass(map[isa.Class]float64{
				isa.Load: 0.5, isa.Store: 0.5, isa.VLoad: 0.5, isa.VStore: 0.5,
				isa.ALU: 0.25, isa.FMA: 0.5, isa.VFMA: 0.5, isa.Branch: 0.5,
			}),
			// L1 4 cyc (folded into issue), L2 12, L3 40, DRAM ~170 cycles.
			Latency:              [6]float64{0, 3, 12, 40, 170, 170},
			MLPOverlap:           0.85,
			PrefetchEff:          0.85,
			MispredictPenalty:    14,
			GuardMispredictEvery: 48,
			CallOverheadSec:      40e-6,
			NoiseBase:            0.012,
			NoiseShort:           0.045,
			NoiseRefSec:          4e-3,
			OutlierProb:          0.06,
			OutlierScale:         0.35,
		},
		SimMIPS: 3.0,
	},
	isa.ARM: {
		Arch:    isa.ARM,
		Name:    "Raspberry Pi 4 / Cortex-A72 (1 core)",
		FreqGHz: 1.5,
		Caches: cache.HierarchyConfig{
			L1D: cache.Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: line64, Assoc: 2},
			L1I: cache.Config{Name: "L1I", SizeBytes: 48 << 10, LineBytes: line64, Assoc: 3},
			L2:  cache.Config{Name: "L2", SizeBytes: 1 << 20, LineBytes: line64, Assoc: 16},
		},
		Timing: TimingParams{
			IssueCost: perClass(map[isa.Class]float64{
				isa.Load: 0.7, isa.Store: 0.7, isa.VLoad: 1.0, isa.VStore: 1.0,
				isa.ALU: 0.35, isa.FMA: 1.0, isa.VFMA: 1.0, isa.Branch: 0.6,
			}),
			// A72: L1 4 cyc, L2 ~21, DRAM ~150 ns ≈ 225 cycles @1.5 GHz.
			Latency:              [6]float64{0, 4, 21, 225, 225, 225},
			MLPOverlap:           0.55,
			PrefetchEff:          0.5,
			MispredictPenalty:    15,
			GuardMispredictEvery: 64,
			CallOverheadSec:      120e-6,
			NoiseBase:            0.006,
			NoiseShort:           0.02,
			NoiseRefSec:          4e-3,
			OutlierProb:          0.03,
			OutlierScale:         0.2,
		},
		SimMIPS: 4.0,
	},
	isa.RISCV: {
		Arch:    isa.RISCV,
		Name:    "SiFive U74-MC (1 core)",
		FreqGHz: 1.2,
		Caches: cache.HierarchyConfig{
			L1D: cache.Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: line64, Assoc: 8},
			L1I: cache.Config{Name: "L1I", SizeBytes: 32 << 10, LineBytes: line64, Assoc: 8},
			L2:  cache.Config{Name: "L2", SizeBytes: 2 << 20, LineBytes: line64, Assoc: 16},
		},
		Timing: TimingParams{
			IssueCost: perClass(map[isa.Class]float64{
				// Dual-issue in-order; vector classes never occur (no SIMD)
				// but keep scalar-equivalent costs for safety.
				isa.Load: 0.8, isa.Store: 0.8, isa.VLoad: 0.8, isa.VStore: 0.8,
				isa.ALU: 0.5, isa.FMA: 2.0, isa.VFMA: 2.0, isa.Branch: 1.0,
			}),
			// U74: L1 2-3 cyc, L2 ~20, DRAM ~135 ns ≈ 160 cycles @1.2 GHz.
			Latency:              [6]float64{0, 3, 20, 160, 160, 160},
			MLPOverlap:           0.15,
			PrefetchEff:          0.1,
			MispredictPenalty:    6,
			GuardMispredictEvery: 64,
			CallOverheadSec:      150e-6,
			NoiseBase:            0.005,
			NoiseShort:           0.015,
			NoiseRefSec:          4e-3,
			OutlierProb:          0.02,
			OutlierScale:         0.15,
		},
		SimMIPS: 5.0,
	},
}

// perClass expands a class→cost map into the dense array, defaulting to 1.
func perClass(m map[isa.Class]float64) [isa.NumClasses]float64 {
	var out [isa.NumClasses]float64
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		if v, ok := m[c]; ok {
			out[c] = v
		} else {
			out[c] = 1
		}
	}
	return out
}

// Lookup returns the profile of one architecture.
func Lookup(a isa.Arch) Profile {
	p, ok := profiles[a]
	if !ok {
		panic(fmt.Sprintf("hw: unknown arch %q", a))
	}
	return p
}

// Profiles returns all three targets in paper order.
func Profiles() []Profile {
	out := make([]Profile, 0, 3)
	for _, a := range isa.Archs() {
		out = append(out, Lookup(a))
	}
	return out
}
