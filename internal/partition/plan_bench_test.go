package partition

import (
	"math/rand"
	"testing"

	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/workload"
)

var benchPlan *Plan

// BenchmarkDeterminePartIntervals plans relations shaped like the outer
// inputs of the repository benchmark's two join workloads: a keyed v2
// relation with a quarter long-lived tuples planned into 29 buffer
// pages, and the paper's Figure 7 point planned into 61. Both sample
// the whole relation with one scan (Section 4.2) and score every
// candidate partSize, 29 and 61 of them, against that one sample.
func BenchmarkDeterminePartIntervals(b *testing.B) {
	for _, bc := range []struct {
		name     string
		spec     workload.Spec
		format   page.Format
		buffSize int
	}{
		{"overlap", workload.Spec{Tuples: 8192, LongLived: 2048, Lifespan: 1_000_000, Keys: 64, RecordBytes: 133, Seed: 1}, page.FormatV2, 29},
		{"longlived", workload.Spec{Tuples: 8192, LongLived: 2000, Lifespan: 1_000_000, RecordBytes: 128, Seed: 1}, page.FormatV1, 61},
	} {
		b.Run(bc.name, func(b *testing.B) {
			d := disk.New(4096)
			d.SetPageFormat(bc.format)
			r, err := bc.spec.Build(d)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, _, err := DeterminePartIntervals(r, PlanConfig{
					BuffSize: bc.buffSize,
					Weights:  cost.Ratio(5),
					Rng:      rand.New(rand.NewSource(1)),
				})
				if err != nil {
					b.Fatal(err)
				}
				benchPlan = plan
			}
		})
	}
}
