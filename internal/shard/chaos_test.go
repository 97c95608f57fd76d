package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"vtjoin/internal/disk"
	"vtjoin/internal/execctx"
	"vtjoin/internal/join"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
	"vtjoin/internal/testutil"
	"vtjoin/internal/trace"
	"vtjoin/internal/tuple"
)

// The sharded chaos harness extends the join package's abort matrix to
// the K-device executor: cancellation, deadline expiry and permanent
// device faults strike at seeded random I/O ordinals of a random
// shard's private device, and the whole execution must abort cleanly —
// the right error wrapped the right way, zero files left on any of the
// K shard devices, the global device untouched, buffer budgets
// balanced, counter attribution intact, and no engine goroutine left
// running.

// shardRig instruments every shard device the executor asks for: an
// armed counter (for trigger placement) plus a read counter (fault
// plans count only reads).
type shardRig struct {
	pageSize int
	acs      []*testutil.ArmedCounter
	reads    []*atomic.Int64
	devs     []*disk.Disk
	// strike configuration: on device `target`, ordinal `at`
	target int
	at     int64
	fire   func()
	// faulty, when set, replaces device `target` with a fault-injecting
	// device whose first read fault lands after `at` reads.
	faulty bool
	fs     *disk.FaultStore
}

// newDevice is the Config.NewDevice hook. Devices are created on the
// driver in shard order, so ordinals are deterministic under
// Sequential execution.
func (g *shardRig) newDevice(j int) *disk.Disk {
	if g.faulty && j == g.target {
		d, fs := disk.NewFaulty(g.pageSize, disk.FaultPlan{
			Faults: []disk.Fault{
				{Kind: disk.FaultPermanentRead, Page: -1, After: int(g.at)},
			},
		})
		g.fs = fs
		g.acs = append(g.acs, nil)
		g.reads = append(g.reads, new(atomic.Int64))
		g.devs = append(g.devs, d)
		return d
	}
	ac := &testutil.ArmedCounter{}
	rd := new(atomic.Int64)
	if j == g.target && g.fire != nil {
		ac.Arm(g.at, g.fire)
	} else {
		ac.Arm(0, nil) // count, never fire
	}
	d := disk.NewHooked(g.pageSize, func(op disk.PageOp) {
		ac.Tick()
		if !op.Write {
			rd.Add(1)
		}
	})
	g.acs = append(g.acs, ac)
	g.reads = append(g.reads, rd)
	g.devs = append(g.devs, d)
	return d
}

// runShardChaos executes one sharded join with full rig control.
func runShardChaos(ctx context.Context, algo join.Algorithm, r, s *relation.Relation, tr *trace.Tracer, rig *shardRig, sequential bool) ([]tuple.Tuple, error) {
	var sink relation.CollectSink
	_, _, err := Join(algo, r, s, &sink, Config{
		Ctx: ctx, Shards: 3, MemoryPages: 30, Seed: 404,
		Sequential: sequential, Tracer: tr, NewDevice: rig.newDevice,
	})
	if err != nil {
		return nil, err
	}
	return sink.Tuples, nil
}

// shardChaosBaseline runs an algorithm cleanly on instrumented devices
// and returns the per-shard operation and read schedules the strikes
// are drawn from, plus the canonical result.
func shardChaosBaseline(t *testing.T, algo join.Algorithm, rTuples, sTuples []tuple.Tuple) (ops, reads []int64) {
	t.Helper()
	d := disk.New(page.DefaultSize)
	r := load(t, d, empSchema, rTuples)
	s := load(t, d, deptSchema, sTuples)
	rig := &shardRig{pageSize: page.DefaultSize, target: -1}
	if _, err := runShardChaos(nil, algo, r, s, nil, rig, true); err != nil {
		t.Fatalf("baseline %s failed: %v", algo, err)
	}
	for j := range rig.devs {
		ops = append(ops, rig.acs[j].Ops())
		reads = append(reads, rig.reads[j].Load())
	}
	if len(ops) < 2 {
		t.Fatalf("baseline %s realized only %d shard(s); strikes need a multi-device run", algo, len(ops))
	}
	for j, n := range ops {
		if n == 0 {
			t.Fatalf("baseline %s shard %d performed no I/O; trigger points are meaningless", algo, j)
		}
	}
	return ops, reads
}

// assertShardCleanAbort checks the post-abort invariants: audits clean,
// every shard device fully reclaimed, global device unchanged.
func assertShardCleanAbort(t *testing.T, global *disk.Disk, globalBefore []disk.FileID, rig *shardRig, tr *trace.Tracer) {
	t.Helper()
	if _, err := tr.Finish(); err != nil {
		t.Errorf("audit violations after abort: %v", err)
	}
	for j, sd := range rig.devs {
		if live := sd.LiveFiles(); len(live) != 0 {
			t.Errorf("shard device %d leaked %d files after abort: %v", j, len(live), live)
		}
	}
	if after := global.LiveFiles(); len(after) != len(globalBefore) {
		t.Errorf("global device: %d live files before, %d after abort", len(globalBefore), len(after))
	}
}

func chaosInputs(seed int64) (r, s []tuple.Tuple) {
	rng := rand.New(rand.NewSource(seed))
	w := workload{keys: 10, n: 400, longEvery: 5, lifespan: 8000}
	return w.generate(rng, 1), w.generate(rng, 2)
}

// TestShardChaosMidQueryAbort: cancellation and deadline expiry strike
// at seeded random ordinals of a random shard device's I/O schedule,
// under sequential execution (deterministic schedules). Triggers are
// drawn from the first half of the shard's schedule so they always
// land mid-execution.
func TestShardChaosMidQueryAbort(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	rTuples, sTuples := chaosInputs(301)
	rng := rand.New(rand.NewSource(2028))

	for _, algo := range join.Algorithms {
		algo := algo
		t.Run(algo.Label(), func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			ops, _ := shardChaosBaseline(t, algo, rTuples, sTuples)

			for _, cause := range []struct {
				name string
				err  error
			}{
				{"cancel", context.Canceled},
				{"deadline", context.DeadlineExceeded},
			} {
				for point := 0; point < 2; point++ {
					target := rng.Intn(len(ops))
					at := 1 + rng.Int63n(ops[target]/2+1)
					t.Run(fmt.Sprintf("%s@shard%d/op%d", cause.name, target, at), func(t *testing.T) {
						testutil.VerifyNoLeaks(t)
						d := disk.New(page.DefaultSize)
						r := load(t, d, empSchema, rTuples)
						s := load(t, d, deptSchema, sTuples)
						before := d.LiveFiles()

						ctx := testutil.NewTriggerCtx()
						rig := &shardRig{
							pageSize: page.DefaultSize,
							target:   target, at: at,
							fire: func() { ctx.Fire(cause.err) },
						}
						tr := trace.New(d, "shard-chaos", trace.Options{Audit: true})
						_, err := runShardChaos(ctx, algo, r, s, tr, rig, true)
						if err == nil {
							t.Fatalf("sharded join completed despite %s at op %d of shard %d", cause.name, at, target)
						}
						if !errors.Is(err, cause.err) {
							t.Errorf("error %v does not wrap %v", err, cause.err)
						}
						var abort *execctx.AbortError
						if !errors.As(err, &abort) {
							t.Errorf("error %v (type %T) does not wrap *execctx.AbortError", err, err)
						}
						assertShardCleanAbort(t, d, before, rig, tr)
					})
				}
			}
		})
	}
}

// TestShardChaosPermanentFaultAbort: a permanently failing read on one
// shard's private device aborts the whole execution cleanly, wrapping
// *disk.IOError, with every shard device reclaimed.
func TestShardChaosPermanentFaultAbort(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	rTuples, sTuples := chaosInputs(302)
	rng := rand.New(rand.NewSource(2029))

	for _, algo := range join.Algorithms {
		algo := algo
		t.Run(algo.Label(), func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			_, reads := shardChaosBaseline(t, algo, rTuples, sTuples)

			for point := 0; point < 2; point++ {
				target := rng.Intn(len(reads))
				at := 1 + rng.Int63n(reads[target]/2+1)
				t.Run(fmt.Sprintf("fault@shard%d/read%d", target, at), func(t *testing.T) {
					testutil.VerifyNoLeaks(t)
					d := disk.New(page.DefaultSize)
					r := load(t, d, empSchema, rTuples)
					s := load(t, d, deptSchema, sTuples)
					before := d.LiveFiles()

					rig := &shardRig{
						pageSize: page.DefaultSize,
						target:   target, at: at, faulty: true,
					}
					tr := trace.New(d, "shard-chaos", trace.Options{Audit: true})
					_, err := runShardChaos(nil, algo, r, s, tr, rig, true)
					if err == nil {
						t.Fatalf("sharded join completed despite a permanent read fault after read %d on shard %d", at, target)
					}
					var ioe *disk.IOError
					if !errors.As(err, &ioe) {
						t.Errorf("error %v (type %T) does not wrap *disk.IOError", err, err)
					}
					if rig.fs.Stats().PermanentReads == 0 {
						t.Error("permanent fault never fired yet the sharded join failed")
					}
					assertShardCleanAbort(t, d, before, rig, tr)
				})
			}
		})
	}
}

// TestShardChaosParallelCancel repeats the cancellation strike with the
// pipelines running concurrently: the pool must drain every worker
// before returning, so the abort is exactly as clean as sequential —
// just with a nondeterministic strike placement.
func TestShardChaosParallelCancel(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	rTuples, sTuples := chaosInputs(303)
	rng := rand.New(rand.NewSource(2030))

	for _, algo := range join.Algorithms {
		algo := algo
		t.Run(algo.Label(), func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			ops, _ := shardChaosBaseline(t, algo, rTuples, sTuples)
			target := rng.Intn(len(ops))
			at := 1 + rng.Int63n(ops[target]/2+1)

			d := disk.New(page.DefaultSize)
			r := load(t, d, empSchema, rTuples)
			s := load(t, d, deptSchema, sTuples)
			before := d.LiveFiles()

			ctx := testutil.NewTriggerCtx()
			rig := &shardRig{
				pageSize: page.DefaultSize,
				target:   target, at: at,
				fire: func() { ctx.Fire(context.Canceled) },
			}
			tr := trace.New(d, "shard-chaos", trace.Options{Audit: true})
			_, err := runShardChaos(ctx, algo, r, s, tr, rig, false)
			if err == nil {
				t.Fatalf("sharded join completed despite cancellation at op %d of shard %d", at, target)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("error %v does not wrap context.Canceled", err)
			}
			assertShardCleanAbort(t, d, before, rig, tr)
		})
	}
}

// TestShardHookedDevicesAreTransparent pins the other half of the
// chaos contract: instrumented shard devices with never-firing triggers
// leave results and per-device I/O schedules byte-identical to plain
// devices.
func TestShardHookedDevicesAreTransparent(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	rTuples, sTuples := chaosInputs(304)

	for _, algo := range join.Algorithms {
		algo := algo
		t.Run(algo.Label(), func(t *testing.T) {
			plainDev := disk.New(page.DefaultSize)
			var plainShards []*disk.Disk
			var plainSink relation.CollectSink
			_, _, err := Join(algo,
				load(t, plainDev, empSchema, rTuples),
				load(t, plainDev, deptSchema, sTuples),
				&plainSink, Config{
					Shards: 3, MemoryPages: 30, Seed: 404, Sequential: true,
					NewDevice: func(int) *disk.Disk {
						nd := disk.New(page.DefaultSize)
						plainShards = append(plainShards, nd)
						return nd
					},
				})
			if err != nil {
				t.Fatal(err)
			}

			d := disk.New(page.DefaultSize)
			r := load(t, d, empSchema, rTuples)
			s := load(t, d, deptSchema, sTuples)
			rig := &shardRig{pageSize: page.DefaultSize, target: -1}
			ctx := testutil.NewTriggerCtx() // live, never fires
			got, err := runShardChaos(ctx, algo, r, s, nil, rig, true)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, algo.String()+" on hooked devices", got, plainSink.Tuples)
			if len(rig.devs) != len(plainShards) {
				t.Fatalf("hooked run realized %d shards, plain run %d", len(rig.devs), len(plainShards))
			}
			for j := range rig.devs {
				if g, w := rig.devs[j].Counters(), plainShards[j].Counters(); g != w {
					t.Errorf("hooked shard device %d changed the I/O schedule: %+v vs %+v", j, g, w)
				}
			}
		})
	}
}
