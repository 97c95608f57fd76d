package experiments

import (
	"flag"
	"sync"
	"testing"

	"vtjoin/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current figures")

// memoKey names one figure computation. Workers 0 and 1 share a key:
// mapTasks runs both inline, so their rows are the same computation.
type memoKey struct {
	figure string
	p      Params
}

var memo = struct {
	sync.Mutex
	results map[memoKey]any
}{results: map[memoKey]any{}}

// memoized returns run(p), computing each (figure, Params) pair once
// per test binary so the shape, golden and determinism tests share
// rows instead of recomputing them.
func memoized[T any](t *testing.T, figure string, p Params, run func(Params) (T, error)) T {
	t.Helper()
	key := memoKey{figure, p}
	if key.p.Workers == 0 {
		key.p.Workers = 1
	}
	memo.Lock()
	defer memo.Unlock()
	if v, ok := memo.results[key]; ok {
		return v.(T)
	}
	v, err := run(p)
	if err != nil {
		t.Fatalf("figure %s: %v", figure, err)
	}
	memo.results[key] = v
	return v
}

// TestFigureGoldens compares what vtbench -figure 4|5|6|7|8|ablations
// -scale 64 renders with testdata/, exactly. Every figure row is a
// deterministic counter, so a change that moves one shows up as a
// diff of these files; regenerate them with -update when the move is
// intended.
func TestFigureGoldens(t *testing.T) {
	p := testParams(t)
	figures := []struct {
		name   string
		render func(t *testing.T) string
	}{
		{"figure4", func(t *testing.T) string { return RenderFigure4(memoized(t, "4", p, RunFigure4)) }},
		{"figure5", func(t *testing.T) string { return RenderParameterTable(p.ParameterTable()) }},
		{"figure6", func(t *testing.T) string { return RenderFigure6(memoized(t, "6", p, RunFigure6)) }},
		{"figure7", func(t *testing.T) string { return RenderFigure7(memoized(t, "7", p, RunFigure7)) }},
		{"figure8", func(t *testing.T) string { return RenderFigure8(memoized(t, "8", p, RunFigure8)) }},
		{"ablations", func(t *testing.T) string {
			return RenderAblations(memoized(t, "A", p, RunAblationReplication), memoized(t, "B", p, RunAblationSampling))
		}},
	}
	for _, fig := range figures {
		t.Run(fig.name, func(t *testing.T) {
			testutil.Golden(t, "testdata/"+fig.name+".golden", fig.render(t), *update)
		})
	}
}
