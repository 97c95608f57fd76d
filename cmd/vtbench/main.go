// Command vtbench regenerates the evaluation figures of Soo, Snodgrass
// & Jensen, "Efficient Evaluation of the Valid-Time Natural Join"
// (ICDE 1994), and the ablations A–C of EXPERIMENTS.md. The repository's
// performance benchmark is bench/ (bash bench/run.sh), not this command.
//
// Usage:
//
//	vtbench [-figure 4|5|6|7|8|ablations|all] [-scale N] [-seed S] [-workers W]
//	        [-timeout duration] [-audit] [-cpuprofile F] [-memprofile F]
//
// -audit runs every sort-merge and partition join under the trace
// invariant audits (exact counter attribution, partition coverage,
// buffer-budget balance, cache-paging symmetry); the emitted figures
// are identical, but any accounting violation fails the run.
//
// Scale divides the paper's tuple counts and memory sizes together
// (preserving every ratio); -scale 1 runs the full 32 MiB-per-relation
// configuration and takes correspondingly longer. Workers bounds how
// many figure data points evaluate concurrently; the emitted figures
// are identical for every setting (each point is self-contained), so
// -workers only changes wall-clock time.
//
// -timeout bounds the whole run: once the deadline passes (or the
// process is interrupted), in-flight joins abort cooperatively at the
// next page boundary and the process exits with a distinct code.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error,
// 3 deadline exceeded or interrupted.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"vtjoin/internal/execctx"
	"vtjoin/internal/experiments"
)

func main() {
	figure := flag.String("figure", "all", "figure to regenerate: 4, 5, 6, 7, 8, ablations or all")
	scale := flag.Int("scale", 16, "scale divisor on tuple counts and memory (1 = paper scale)")
	seed := flag.Int64("seed", 1994, "base RNG seed")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent figure data points (1 = sequential; output is identical at any setting)")
	audit := flag.Bool("audit", false, "run every join under the trace invariant audits (figures are identical; violations fail the run)")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline); exits 3 on expiry")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	switch *figure {
	case "4", "5", "6", "7", "8", "ablations", "all":
	default:
		usage(fmt.Errorf("unknown figure %q (want 4, 5, 6, 7, 8, ablations or all)", *figure))
	}
	if *workers < 1 {
		usage(fmt.Errorf("-workers must be >= 1, got %d", *workers))
	}

	p, err := experiments.Scaled(*scale)
	if err != nil {
		usage(err)
	}
	p.Seed = *seed
	p.Workers = *workers
	p.Audit = *audit

	ctx, cancel := execctx.Bootstrap(*timeout)
	defer cancel()
	p.Ctx = ctx

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(fmt.Errorf("cpuprofile: %w", err))
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("cpuprofile: %w", err))
		}
		defer pprof.StopCPUProfile()
	}

	run := func(name string, f func() error) {
		if *figure != name && *figure != "all" {
			return
		}
		start := time.Now()
		if err := f(); err != nil {
			fatal(fmt.Errorf("figure %s: %w", name, err))
		}
		fmt.Printf("[figure %s regenerated in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("5", func() error {
		fmt.Print(experiments.RenderParameterTable(p.ParameterTable()))
		return nil
	})
	run("4", func() error {
		points, err := experiments.RunFigure4(p)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFigure4(points))
		return nil
	})
	run("6", func() error {
		rows, err := experiments.RunFigure6(p)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFigure6(rows))
		return nil
	})
	run("7", func() error {
		rows, err := experiments.RunFigure7(p)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFigure7(rows))
		return nil
	})
	run("8", func() error {
		rows, err := experiments.RunFigure8(p)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFigure8(rows))
		return nil
	})
	run("ablations", func() error {
		repl, err := experiments.RunAblationReplication(p)
		if err != nil {
			return err
		}
		smpl, err := experiments.RunAblationSampling(p)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderAblations(repl, smpl))
		return nil
	})

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(fmt.Errorf("memprofile: %w", err))
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(fmt.Errorf("memprofile: %w", err))
		}
	}
}

// fatal reports a runtime failure (experiment execution) and exits 1 —
// or 3 when the failure is a cancellation or expired deadline.
func fatal(err error) { execctx.Fatal("vtbench", err) }

// usage reports a command-line mistake and exits 2.
func usage(err error) {
	execctx.Usage("vtbench", err,
		"vtbench [-figure 4|5|6|7|8|ablations|all] [-scale N] [-seed S] [-workers W] [-timeout D] [-audit] [-cpuprofile F] [-memprofile F]")
}
