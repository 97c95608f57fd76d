package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration // measured time a run aims for; sets its episode count
	trace    bool
	// tiny shrinks inputs and op counts so the test suite can run every
	// workload in seconds.
	tiny bool
	// corrupt alters one result row (joins, queries) or one delta row
	// (subscriptions) before verification; the run must then fail.
	corrupt bool
}

// minSetups is how many set-ups an untraced run times at least;
// setup_s is their median.
const minSetups = 15

// bench is one workload. An episode sets the workload up from scratch
// on inputs generated from its own seed and runs a fixed number of ops
// on them. A run's episode count follows from --seconds alone, so a
// seed and a run length fix every op a run does, and per-op counters
// repeat exactly; drawing fresh inputs per episode averages out how
// much one draw of the inputs happens to cost.
type bench interface {
	// setup builds an episode from its input seed: inputs, relations,
	// server, subscribers. A non-nil tracer makes it record spans.
	setup(tr *tracer, seed int64) (episode, error)
	// warmEach reports whether every episode warms up, or only the
	// first (when the episode carries no cache of its own to fill).
	warmEach() bool
	counts() opCounts
	// layers adds the traced run's per-layer metrics, from the spans of
	// its episodes and from the layer probes it runs on the workload's
	// inputs.
	layers(tr *tracer, m map[string]float64) error
}

type opCounts struct {
	PerEpisode int `json:"per_episode"`
	Warmup     int `json:"warmup"`
	// Seconds is how long one episode measures on the 2-core x86-64
	// host the benchmark was calibrated on.
	Seconds float64 `json:"episode_s"`
}

// episodeCount is the number of episodes a run of the given length
// performs: as many as measure closest to that long on the calibration
// host, and at least one.
func episodeCount(ops opCounts, seconds time.Duration) int {
	return max(1, int(math.Round(seconds.Seconds()/ops.Seconds)))
}

// episodeSeed derives episode ep's input seed from the run's seed.
func episodeSeed(seed int64, ep int) int64 { return seed*1009 + int64(ep) }

type episode interface {
	// oracle computes the reference answers, outside every timed
	// region.
	oracle() error
	warm() error
	// measure runs the episode's ops inside timed regions and records
	// them; verification happens outside the timed regions.
	measure(rec *recorder) error
	close() error
}

var workloads = []struct {
	name string
	new  func(cfg config) bench
}{
	{"join-overlap", newJoinOverlap},
	{"join-longlived", newJoinLongLived},
	{"serve-mix", newServeMix},
	{"subs-append", newSubsAppend},
}

func lookupWorkload(name string) (func(cfg config) bench, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.new, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runResult is what one run reports.
type runResult struct {
	Workload  string             `json:"workload"`
	Host      host               `json:"host"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Side holds informational numbers printed beside the metrics.
	Side   map[string]float64 `json:"side,omitempty"`
	Report string             `json:"report,omitempty"`
}

// host is the results file's record of where and how a run ran.
type host struct {
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Go         string   `json:"go"`
	OS         string   `json:"os"`
	Arch       string   `json:"arch"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Ops        opCounts `json:"ops"`
	Episodes   int      `json:"episodes"`
	Measured   int64    `json:"measured_ops"`
}

// run executes one workload in this process.
func run(cfg config, tr *tracer) (*runResult, error) {
	newBench, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	b := newBench(cfg)
	res := &runResult{
		Workload: cfg.workload,
		Trace:    cfg.trace,
		Host: host{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			OS: runtime.GOOS, Arch: runtime.GOARCH, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(),
			Ops: b.counts(),
		},
	}
	n := episodeCount(b.counts(), cfg.seconds)
	res.Host.Episodes = n
	if !cfg.trace {
		rec := &recorder{}
		if err := episodes(b, cfg, rec, nil, n, (minSetups+n-1)/n); err != nil {
			return nil, err
		}
		res.Host.Measured = rec.ops
		res.Metrics, res.Side = rec.endToEndMetrics(), rec.sideMetrics()
		res.Attempted, res.Failed, res.Correct = rec.ops, rec.failed, rec.failed == 0
		return res.finite(), nil
	}

	// Traced run: one untraced episode first, as the baseline the
	// tracing overhead and the runtime layer are read from; then the
	// run's episodes, traced; then the layer probes.
	base := &recorder{}
	if err := episodes(b, cfg, base, nil, 1, 1); err != nil {
		return nil, err
	}
	rec := &recorder{}
	if err := episodes(b, cfg, rec, tr, n, 1); err != nil {
		return nil, err
	}
	m := map[string]float64{}
	if err := b.layers(tr, m); err != nil {
		return nil, err
	}
	side := base.sideMetrics()
	for _, d := range perLayer {
		if v, ok := side[d.name]; ok {
			m[d.name] = v
		}
	}
	if p50 := base.latency(0.5); p50 > 0 && p50 < failedLatency {
		m["trace.overhead_frac"] = float64(rec.latency(0.5))/float64(p50) - 1
	}
	res.Metrics = make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		res.Metrics[d.name] = m[d.name]
	}
	res.Report = renderSelfTimes(tr.selfTimes())
	res.Host.Measured = rec.ops
	res.Attempted = base.ops + rec.ops
	res.Failed = base.failed + rec.failed
	res.Correct = res.Failed == 0
	return res.finite(), nil
}

// finite zeroes values that are not finite numbers (a ratio over an
// empty phase), which JSON cannot carry.
func (res *runResult) finite() *runResult {
	for _, m := range []map[string]float64{res.Metrics, res.Side} {
		for k, v := range m {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				m[k] = 0
			}
		}
	}
	return res
}

// episodes runs n episodes: set-up, oracle, warm-up and measured ops.
// Each episode is set up `setups` times and runs on the last set-up;
// the others are only timed and closed. Spreading the set-ups over the
// run this way makes setup_s a median over the whole run, not over one
// moment of the host's load.
func episodes(b bench, cfg config, rec *recorder, tr *tracer, n, setups int) error {
	for ep := 0; ep < n; ep++ {
		for k := 1; k < setups; k++ {
			e, err := timedSetup(b, cfg, rec, nil, ep)
			if err != nil {
				return err
			}
			if err := e.close(); err != nil {
				return fmt.Errorf("%s: %w", cfg.workload, err)
			}
		}
		e, err := timedSetup(b, cfg, rec, tr, ep)
		if err != nil {
			return err
		}
		err = runEpisode(e, rec, ep == 0 || b.warmEach())
		if cerr := e.close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.workload, err)
		}
	}
	return nil
}

// timedSetup sets episode ep up and records how long that took. It
// collects the previous episode's garbage first, so that collection is
// not charged to the set-up.
func timedSetup(b bench, cfg config, rec *recorder, tr *tracer, ep int) (episode, error) {
	runtime.GC()
	t0 := time.Now()
	e, err := b.setup(tr, episodeSeed(cfg.seed, ep))
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", cfg.workload, err)
	}
	rec.setups = append(rec.setups, time.Since(t0))
	return e, nil
}

func runEpisode(e episode, rec *recorder, warm bool) error {
	t0 := time.Now()
	if err := e.oracle(); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	rec.oracle += time.Since(t0)
	if warm {
		if err := e.warm(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return e.measure(rec)
}
