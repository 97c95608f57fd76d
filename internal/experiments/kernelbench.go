package experiments

import (
	"fmt"
	"strings"
	"time"

	"vtjoin/internal/cost"
	"vtjoin/internal/join"
)

// KernelBenchSpecs are the in-memory matching microbenchmarks of the
// Scan-versus-Sweep kernel comparison, scaled like the figures. The
// interesting regimes:
//
//   - high-overlap keyed: few key values and long intervals, so each
//     key bucket accumulates many concurrently-live tuples — the
//     workload the sweep's gapless active lists are built for;
//   - sparse keyed: many key values and chronon-length intervals, the
//     regime where the scan kernel's hash probe is already near-O(1);
//   - time-join: no shared attributes and long intervals, where the
//     scan kernel rescans the start-ordered outer prefix per probe
//     while the sweep touches each dead tuple once.
func KernelBenchSpecs(p Params) []join.KernelBenchSpec {
	n := p.TuplesPerRelation
	return []join.KernelBenchSpec{
		{
			Name:        "high-overlap keyed",
			OuterTuples: n, InnerTuples: n,
			Keys:     64,
			Lifespan: p.Lifespan, Duration: p.Lifespan / 16,
			Batch: 256, Seed: p.Seed + 1,
		},
		{
			Name:        "sparse keyed",
			OuterTuples: n, InnerTuples: n,
			Keys:     int64(n),
			Lifespan: p.Lifespan, Duration: 1,
			Batch: 256, Seed: p.Seed + 2,
		},
		{
			Name:        "time-join",
			OuterTuples: n / 8, InnerTuples: n / 8,
			Keys:     0,
			Lifespan: p.Lifespan, Duration: p.Lifespan / 64,
			Batch: 256, Seed: p.Seed + 3,
		},
	}
}

// RunKernelBench measures both kernels on every spec. Each run also
// differentially checks that the kernels emit identical results.
func RunKernelBench(p Params) ([]join.KernelBenchResult, error) {
	var out []join.KernelBenchResult
	for _, spec := range KernelBenchSpecs(p) {
		res, err := join.RunKernelBench(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, res...)
	}
	return out, nil
}

// AlgoPhaseTiming is one algorithm phase of a full join run under one
// kernel: the simulated I/O counters next to the real wall-clock and
// CPU time the phase consumed.
type AlgoPhaseTiming struct {
	Algorithm string
	Kernel    string
	Phase     string
	IO        int64 // total page accesses (random + sequential)
	Wall, CPU time.Duration
}

// RunKernelPhases runs sort-merge and the partition join end to end
// under each kernel on a keyed high-overlap workload and reports
// per-phase CPU and wall time next to the I/O counters. The I/O totals
// are asserted identical across kernels — the kernel switch must only
// change CPU-side work.
func RunKernelPhases(p Params) ([]AlgoPhaseTiming, error) {
	var out []AlgoPhaseTiming
	memoryPages := p.MemoryPages(4)
	// A heavy long-lived population (the paper's Figure 7 regime) makes
	// the merge's live windows and the partition join's carried sets
	// large — the workloads the kernels actually differ on.
	longLived := p.ScaleCount(16384)
	for _, kernel := range []join.Kernel{join.KernelScan, join.KernelSweep} {
		var perAlgo []AlgoPhaseTiming
		_, r, s, err := buildPair(p, longLived)
		if err != nil {
			return nil, err
		}
		for _, run := range []struct {
			name string
			algo join.Algorithm
		}{{AlgoSortMerge, join.AlgorithmSortMerge}, {AlgoPartition, join.AlgorithmPartition}} {
			spec := p.joinSpec(memoryPages, cost.Ratio(5), p.Seed)
			spec.Kernel = kernel
			rep, err := runJoin(run.algo, r, s, spec, false)
			if err != nil {
				return nil, err
			}
			for _, ph := range rep.Phases {
				perAlgo = append(perAlgo, AlgoPhaseTiming{
					Algorithm: run.name, Kernel: kernel.String(), Phase: ph.Name,
					IO: ph.Counters.Total(), Wall: ph.Wall, CPU: ph.CPU,
				})
			}
		}
		out = append(out, perAlgo...)
	}
	// The kernel must not change what I/O happens, phase by phase.
	half := len(out) / 2
	for i := 0; i < half; i++ {
		a, b := out[i], out[half+i]
		if a.Algorithm != b.Algorithm || a.Phase != b.Phase || a.IO != b.IO {
			return nil, fmt.Errorf("experiments: kernel changed I/O: %s/%s %d accesses under %s vs %s/%s %d under %s",
				a.Algorithm, a.Phase, a.IO, a.Kernel, b.Algorithm, b.Phase, b.IO, b.Kernel)
		}
	}
	return out, nil
}

// RenderKernelBench formats the microbenchmark comparison. The output
// contains timings and is NOT deterministic across runs — the kernels
// section is therefore excluded from "-figure all" (whose output the
// determinism checks diff).
func RenderKernelBench(rows []join.KernelBenchResult, phases []AlgoPhaseTiming) string {
	var b strings.Builder
	b.WriteString("Kernel comparison: scan vs sweep (in-memory matching, CPU only)\n")
	b.WriteString(fmt.Sprintf("\n  %-20s %-6s %12s %12s %12s %14s\n",
		"spec", "kernel", "pairs", "wall", "cpu", "tuples/sec"))
	for _, r := range rows {
		b.WriteString(fmt.Sprintf("  %-20s %-6s %12d %12s %12s %14.0f\n",
			r.Spec, r.Kernel, r.Pairs,
			r.Wall.Round(time.Microsecond), r.CPU.Round(time.Microsecond), r.TuplesPerSec))
	}
	if len(phases) > 0 {
		b.WriteString(fmt.Sprintf("\n  %-14s %-6s %-12s %10s %12s %12s\n",
			"algorithm", "kernel", "phase", "io pages", "wall", "cpu"))
		for _, ph := range phases {
			b.WriteString(fmt.Sprintf("  %-14s %-6s %-12s %10d %12s %12s\n",
				ph.Algorithm, ph.Kernel, ph.Phase, ph.IO,
				ph.Wall.Round(time.Microsecond), ph.CPU.Round(time.Microsecond)))
		}
		b.WriteString("\n  (per-phase I/O is asserted identical across kernels)\n")
	}
	return b.String()
}
