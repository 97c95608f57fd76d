package experiments

import (
	"errors"
	"testing"
)

func TestMapTasksOrderAndParallel(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		got, err := mapTasks(nil, workers, 10, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d", workers, i, v)
			}
		}
	}
}

func TestMapTasksLowestIndexError(t *testing.T) {
	boom2 := errors.New("task 2")
	boom7 := errors.New("task 7")
	_, err := mapTasks(nil, 4, 10, func(i int) (int, error) {
		switch i {
		case 2:
			return 0, boom2
		case 7:
			return 0, boom7
		}
		return i, nil
	})
	if !errors.Is(err, boom2) {
		t.Fatalf("got %v, want the lowest-index failure", err)
	}
}

// TestFiguresWorkerDeterminism asserts the harness invariant: every
// figure emits identical rows regardless of the worker count, because
// each data point builds its own relations on its own device. The
// sequential side comes from the memo the shape and golden tests fill,
// so only the Workers = 4 side is computed here.
func TestFiguresWorkerDeterminism(t *testing.T) {
	p := testParams(t)
	base := p
	base.Workers = 1
	par := p
	par.Workers = 4

	figures := []struct {
		name string
		run  func(Params) ([]Row, error)
	}{
		{"6", RunFigure6},
		{"7", RunFigure7},
		{"8", RunFigure8},
	}
	for _, fig := range figures {
		t.Run("figure"+fig.name, func(t *testing.T) {
			want := memoized(t, fig.name, base, fig.run)
			got, err := fig.run(par)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d rows with workers=4, %d with workers=1", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d differs:\n workers=4: %+v\n workers=1: %+v", i, got[i], want[i])
				}
			}
		})
	}
}
