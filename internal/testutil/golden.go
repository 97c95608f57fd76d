package testutil

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden compares got with the file at path. With update set it
// rewrites the file instead, so a test's -update flag regenerates its
// goldens. A mismatch fails the test with the first differing lines,
// numbered, so a one-counter change reads as a one-line diff.
func Golden(t testing.TB, path, got string, update bool) {
	t.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run the test with -update to create it)", err)
	}
	want := string(raw)
	if got == want {
		return
	}
	wantLines, gotLines := strings.Split(want, "\n"), strings.Split(got, "\n")
	var diff strings.Builder
	shown := 0
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w == g {
			continue
		}
		if shown == 10 {
			diff.WriteString("...\n")
			break
		}
		shown++
		fmt.Fprintf(&diff, "line %d:\n  want: %s\n  got:  %s\n", i+1, w, g)
	}
	t.Fatalf("%s differs (%d lines want, %d got; rerun with -update if the change is intended):\n%s",
		path, len(wantLines), len(gotLines), diff.String())
}
