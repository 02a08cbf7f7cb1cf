package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"noctg/internal/journal"
	"noctg/internal/platform"
	"noctg/internal/scenario"
	"noctg/internal/sim"
	"noctg/internal/valid"
)

// runValidate executes the generator-validation harness: the stock
// fidelity suite by default, or sources derived from a scenario file's
// stochastic workloads with -scenario. The report lands in <out>.json (or
// on stdout with "-"); any failed fidelity check exits nonzero.
//
// The fidelity report is byte-identical for every kernel (the harness pins
// all kernels to the same cycle schedule), so "auto" takes the event kernel
// like replay runs do.
func runValidate(scenPath string, workers int, mode platform.KernelMode, out string) {
	kernel := mode.SimKernel(sim.KernelEvent)
	sources := valid.StockSources()
	if scenPath != "" {
		specs := scenario.Library()
		if scenPath != "library" {
			f, err := os.Open(scenPath)
			fail(err)
			specs, err = scenario.Parse(f)
			f.Close()
			fail(err)
		}
		pts, err := scenario.Points(specs)
		fail(err)
		sources = sources[:0]
		seen := map[string]bool{}
		skipped := 0
		for _, p := range pts {
			s, ok := valid.FromPoint(p)
			if !ok {
				skipped++
				continue
			}
			if seen[s.Name] {
				continue // same workload on another fabric: same open-loop source
			}
			seen[s.Name] = true
			sources = append(sources, s)
		}
		if skipped > 0 {
			fmt.Fprintf(os.Stderr, "tgsweep: %d points have no analytic spec, skipped\n", skipped)
		}
		if len(sources) == 0 {
			fail(fmt.Errorf("no validatable stochastic workloads in %s", scenPath))
		}
	}

	fmt.Fprintf(os.Stderr, "tgsweep: validating %d sources, %d workers, %v kernel\n",
		len(sources), workers, kernel)
	start := time.Now()
	rep := valid.Validate(sources, kernel, workers)
	checks := 0
	for _, s := range rep.Sources {
		checks += len(s.Checks)
		for _, c := range s.Checks {
			if !c.Pass {
				fmt.Fprintf(os.Stderr, "tgsweep: FAIL %s %s: %g outside [%g, %g]\n",
					s.Source, c.Name, c.Value, c.Low, c.High)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "tgsweep: %d fidelity checks in %v\n",
		checks, time.Since(start).Round(time.Millisecond))

	if out == "-" {
		fail(rep.WriteJSON(os.Stdout))
	} else {
		var buf bytes.Buffer
		fail(rep.WriteJSON(&buf))
		fail(journal.AtomicWrite(out+".json", buf.Bytes()))
		fmt.Fprintf(os.Stderr, "tgsweep: wrote %s.json\n", out)
	}
	if !rep.Pass {
		fmt.Fprintln(os.Stderr, "tgsweep: generator validation FAILED")
		os.Exit(1)
	}
}
