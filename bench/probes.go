package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"vtjoin/internal/csvio"
	"vtjoin/internal/extsort"
	"vtjoin/internal/join"
	"vtjoin/internal/page"
	"vtjoin/internal/partition"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
)

// probeReps is how often the traced run repeats each layer probe; the
// metric is the median.
const probeReps = 3

// engineInputs are the relations a workload's ops join, as the layer
// probes rebuild them on a private device.
type engineInputs struct {
	ls, rs *schema.Schema
	r, s   []tuple.Tuple
	format page.Format
	memory int
}

// probeEngine times the storage and engine layers — the partition
// planner, Grace partitioning, the matching kernel, the external sort,
// the page codec and CSV — called directly on the workload's inputs,
// with the workload's page format and memory budget.
func probeEngine(tr *tracer, m map[string]float64, in engineInputs) error {
	plan, err := schema.PlanNaturalJoin(in.ls, in.rs)
	if err != nil {
		return err
	}
	var samples, cands, graceBytes, results, sweepFrac, tpp []float64
	for rep := 0; rep < probeReps; rep++ {
		d := newDevice(in.format)
		r, err := relation.FromTuples(d, in.ls, in.r)
		if err != nil {
			return err
		}
		s, err := relation.FromTuples(d, in.rs, in.s)
		if err != nil {
			return err
		}
		tr.dev = d
		root := tr.begin("probe.engine", -1, -1)

		id := tr.begin("partition.plan", -1, root)
		pp, cs, err := partition.DeterminePartIntervals(r, partition.PlanConfig{
			BuffSize: in.memory - 3, Weights: weights, Rng: rand.New(rand.NewSource(1)),
		})
		tr.end(id)
		if err != nil {
			return fmt.Errorf("planner: %w", err)
		}
		samples, cands = append(samples, float64(pp.SamplesDrawn)), append(cands, float64(len(cs)))

		id = tr.begin("partition.grace", -1, root)
		rp, sp, err := partition.DoPartitioningPair(context.Background(), r, s, pp.Partitioning)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("grace: %w", err)
		}
		graceBytes = append(graceBytes, float64(tr.spans[id].Bytes))
		if err := rp.Drop(); err != nil {
			return err
		}
		if err := sp.Drop(); err != nil {
			return err
		}

		// The kernel joins the pair in memory in the batch shapes the
		// nested-loop engine feeds it: outer blocks of memory-3 pages,
		// inner batches of one page.
		pages, err := r.Pages()
		if err != nil {
			return err
		}
		perPage := max(1, len(in.r)/max(1, pages))
		tpp = append(tpp, float64(len(in.r))/float64(max(1, pages)))
		id = tr.begin("join.kernel", -1, root)
		var mt *join.Matcher
		var n int64
		count := func(tuple.Tuple) error { n++; return nil }
		for lo, block := 0, perPage*(in.memory-3); lo < len(in.r); lo += block {
			outer := in.r[lo:min(lo+block, len(in.r))]
			if mt == nil {
				if mt, err = join.NewMatcher(plan, 0, join.KernelSweep, outer); err != nil {
					return err
				}
			} else {
				mt.Reset(outer)
			}
			for i := 0; i < len(in.s); i += perPage {
				if err := mt.ProbeBatch(in.s[i:min(i+perPage, len(in.s))], count); err != nil {
					return err
				}
			}
		}
		tr.end(id)
		sw, pt := mt.KernelDecisions()
		results = append(results, float64(n))
		if sw+pt > 0 {
			sweepFrac = append(sweepFrac, float64(sw)/float64(sw+pt))
		}

		id = tr.begin("extsort.sort", -1, root)
		sorted, err := extsort.Sort(context.Background(), r, extsort.ByStartTime, in.memory)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("extsort: %w", err)
		}
		if err := sorted.Drop(); err != nil {
			return err
		}

		if err := probeCodecs(tr, root, in); err != nil {
			return err
		}
		tr.end(root)
	}
	m["partition.plan_ms"], m["partition.plan_io"] = tr.medianMS("partition.plan"), tr.medianIO("partition.plan")
	m["partition.samples_drawn"], m["partition.candidates"] = median(samples), median(cands)
	m["partition.grace_ms"], m["partition.grace_io"] = tr.medianMS("partition.grace"), tr.medianIO("partition.grace")
	m["partition.grace_bytes"] = median(graceBytes)
	m["join.kernel_ms"], m["join.results_per_op"], m["join.sweep_frac"] = tr.medianMS("join.kernel"), median(results), median(sweepFrac)
	m["extsort.sort_ms"], m["extsort.sort_io"] = tr.medianMS("extsort.sort"), tr.medianIO("extsort.sort")
	m["page.tuples_per_page"] = median(tpp)
	k := float64(len(in.r)) / 1000
	m["page.encode_us_per_ktuple"] = 1000 * tr.medianMS("page.encode") / k
	m["page.decode_us_per_ktuple"] = 1000 * tr.medianMS("page.decode") / k
	m["csvio.encode_us_per_krow"] = 1000 * tr.medianMS("csvio.encode") / k
	m["csvio.decode_us_per_krow"] = 1000 * tr.medianMS("csvio.decode") / k
	return nil
}

// probeCodecs times encoding the left input into pages of the
// workload's format and decoding them back, and the same round trip
// through CSV.
func probeCodecs(tr *tracer, root int, in engineInputs) error {
	id := tr.begin("page.encode", -1, root)
	var pages []*page.Page
	p := page.MustNewFormat(pageSize, in.format)
	for _, t := range in.r {
		ok, err := p.AppendTuple(t)
		if err != nil {
			return err
		}
		if !ok {
			pages = append(pages, p)
			p = page.MustNewFormat(pageSize, in.format)
			if _, err := p.AppendTuple(t); err != nil {
				return err
			}
		}
	}
	pages = append(pages, p)
	tr.end(id)

	id = tr.begin("page.decode", -1, root)
	n := 0
	for _, p := range pages {
		ts, err := p.Tuples()
		if err != nil {
			return err
		}
		n += len(ts)
	}
	tr.end(id)
	if n != len(in.r) {
		return fmt.Errorf("page codec round trip: %d tuples in, %d out", len(in.r), n)
	}

	var buf bytes.Buffer
	id = tr.begin("csvio.encode", -1, root)
	err := csvio.WriteTuples(&buf, in.ls, in.r)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("csvio.decode", -1, root)
	_, ts, err := csvio.ReadTuples(&buf)
	tr.end(id)
	if err != nil {
		return err
	}
	if len(ts) != len(in.r) {
		return fmt.Errorf("csv round trip: %d tuples in, %d out", len(in.r), len(ts))
	}
	return nil
}
