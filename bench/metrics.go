package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload;
// BENCHMARK.json lists the same names with their regression bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"weighted_io_per_op", "wpage"},
	{"alloc_mb_per_op", "MiB"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the metrics a traced run reports on every workload. A
// layer the workload's ops do not reach reads 0.
var perLayer = []metricDef{
	{"partition.plan_ms", "ms"},
	{"partition.plan_io", "wpage"},
	{"partition.samples_drawn", "count"},
	{"partition.candidates", "count"},
	{"partition.grace_ms", "ms"},
	{"partition.grace_io", "wpage"},
	{"partition.grace_bytes", "B"},
	{"join.partition.sample_ms", "ms"},
	{"join.partition.sample_io", "wpage"},
	{"join.partition.partition_ms", "ms"},
	{"join.partition.partition_io", "wpage"},
	{"join.partition.join_ms", "ms"},
	{"join.partition.join_io", "wpage"},
	{"join.sortmerge.sort_ms", "ms"},
	{"join.sortmerge.sort_io", "wpage"},
	{"join.sortmerge.merge_ms", "ms"},
	{"join.sortmerge.merge_io", "wpage"},
	{"join.nestedloop.join_ms", "ms"},
	{"join.nestedloop.join_io", "wpage"},
	{"join.kernel_ms", "ms"},
	{"join.results_per_op", "count"},
	{"join.sweep_frac", "fraction"},
	{"extsort.sort_ms", "ms"},
	{"extsort.sort_io", "wpage"},
	{"shard.plan_ms", "ms"},
	{"shard.split_io", "wpage"},
	{"shard.join_io", "wpage"},
	{"shard.io_ratio", "fraction"},
	{"shard.sharded_pages", "page"},
	{"shard.unsharded_pages", "page"},
	{"page.encode_us_per_ktuple", "us"},
	{"page.decode_us_per_ktuple", "us"},
	{"page.tuples_per_page", "count"},
	{"disk.bytes_per_op", "B"},
	{"query.normalize_us", "us"},
	{"query.parse_us", "us"},
	{"plan2.bind_us", "us"},
	{"plan2.run_ms", "ms"},
	{"serve.execute_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.cache_hit_frac", "fraction"},
	{"serve.rejects", "count"},
	{"csvio.encode_us_per_krow", "us"},
	{"csvio.decode_us_per_krow", "us"},
	{"incremental.build_ms", "ms"},
	{"incremental.fold_ms", "ms"},
	{"incremental.delta_rows", "count"},
	{"serve.fanout_ms", "ms"},
	{"serve.view_pool_pages", "page"},
	{"serve.append_io", "wpage"},
	{"loadgen.lag_ms", "ms"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"runtime.allocs_per_op", "count"},
	{"slo_miss_frac", "fraction"},
	{"failed_frac", "fraction"},
	{"delivery_p50_ms", "ms"},
	{"delivery_p90_ms", "ms"},
	{"trace.overhead_frac", "fraction"},
}

// failedLatency is what a latency percentile reads when it lands on a
// failed or refused op: failures rank above every successful op.
const failedLatency = 10 * time.Second

// recorder accumulates one run's measurements over its timed regions.
// Workloads bracket each timed region with begin and end and add their
// per-op samples; it is used from one goroutine.
type recorder struct {
	lat      []time.Duration // successful ops, timed from send (or due time)
	delivery []time.Duration
	lag      []time.Duration
	ops      int64 // measured ops, failed ones included
	failed   int64
	sloMiss  int64
	wall     time.Duration
	tputOps  int64 // closed-loop throughput phase, when separate
	tputWall time.Duration
	cpu      time.Duration
	alloc    uint64
	mallocs  uint64
	gcCPU    float64
	allCPU   float64
	io       float64 // weighted page accesses
	setups   []time.Duration
	oracle   time.Duration

	t0           time.Time
	cpu0         time.Duration
	alloc0, mal0 uint64
	gc0, all0    float64
}

func (r *recorder) begin() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.alloc0, r.mal0 = ms.TotalAlloc, ms.Mallocs
	r.gc0, r.all0 = runtimeCPU()
	r.cpu0 = processCPU()
	r.t0 = time.Now()
}

func (r *recorder) end() {
	r.wall += time.Since(r.t0)
	r.cpu += processCPU() - r.cpu0
	gc, all := runtimeCPU()
	r.gcCPU += gc - r.gc0
	r.allCPU += all - r.all0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.alloc += ms.TotalAlloc - r.alloc0
	r.mallocs += ms.Mallocs - r.mal0
}

// op records one measured op.
func (r *recorder) op(lat time.Duration, failed bool) {
	r.ops++
	if failed {
		r.failed++
		r.sloMiss++
		return
	}
	r.lat = append(r.lat, lat)
}

// latency is the q-quantile (nearest rank) of the measured ops, with
// failed ops ranked last.
func (r *recorder) latency(q float64) time.Duration {
	sort.Slice(r.lat, func(i, j int) bool { return r.lat[i] < r.lat[j] })
	rank := int(math.Ceil(q * float64(len(r.lat)+int(r.failed))))
	switch {
	case rank < 1:
		rank = 1
	case rank > len(r.lat):
		return failedLatency
	}
	return r.lat[rank-1]
}

func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	return s[max(rank, 1)-1]
}

// median is the middle value, or the mean of the two middle values, as
// Python's statistics.median gives it; 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (r *recorder) perOp(x float64) float64 {
	if r.ops == 0 {
		return 0
	}
	return x / float64(r.ops)
}

// endToEndMetrics derives every end-to-end metric from the run.
func (r *recorder) endToEndMetrics() map[string]float64 {
	tput := float64(r.ops) / r.wall.Seconds()
	if r.tputOps > 0 {
		tput = float64(r.tputOps) / r.tputWall.Seconds()
	}
	return map[string]float64{
		"setup_s":            quantile(r.setups, 0.5).Seconds(),
		"ops_per_s":          tput,
		"latency_p50_ms":     ms(r.latency(0.50)),
		"latency_p90_ms":     ms(r.latency(0.90)),
		"latency_p99_ms":     ms(r.latency(0.99)),
		"cpu_ms_per_op":      r.perOp(ms(r.cpu)),
		"weighted_io_per_op": r.perOp(r.io),
		"alloc_mb_per_op":    r.perOp(float64(r.alloc) / (1 << 20)),
		"max_rss_mb":         peakRSS(),
	}
}

// sideMetrics are the run-level numbers that are not end-to-end
// metrics but that every run prints, and the traced run reports.
func (r *recorder) sideMetrics() map[string]float64 {
	m := map[string]float64{
		"slo_miss_frac":         r.perOp(float64(r.sloMiss)),
		"failed_frac":           r.perOp(float64(r.failed)),
		"delivery_p50_ms":       ms(quantile(r.delivery, 0.5)),
		"delivery_p90_ms":       ms(quantile(r.delivery, 0.9)),
		"loadgen.lag_ms":        ms(quantile(r.lag, 0.99)),
		"runtime.allocs_per_op": r.perOp(float64(r.mallocs)),
		"oracle_s":              r.oracle.Seconds(),
		"samples":               float64(len(r.lat)) + float64(r.failed),
	}
	if r.allCPU > 0 {
		m["runtime.gc_cpu_frac"] = r.gcCPU / r.allCPU
	}
	return m
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCPU reads the Go runtime's GC and total CPU-time estimates.
func runtimeCPU() (gc, all float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		all = s[1].Value.Float64()
	}
	return gc, all
}

// peakRSS returns the process's peak resident set (VmHWM) in MiB,
// falling back to getrusage where /proc is unavailable.
func peakRSS() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
