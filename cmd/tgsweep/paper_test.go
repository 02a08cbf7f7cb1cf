package main

// Subprocess tests of tgsweep -paper: the paper evaluation runs through
// the same guard and -on-violation handling as grid sweeps, and a plain
// run prints the paper's reports.

import (
	"bytes"
	"errors"
	"os/exec"
	"strings"
	"testing"
)

func TestPaperCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a subprocess")
	}
	bin := buildTgsweep(t)

	t.Run("run-budget-fails", func(t *testing.T) {
		// A 1ns budget trips on the first guard check of every platform:
		// the evaluation must abort with the violation, print no report,
		// and exit nonzero under -on-violation fail.
		cmd := exec.Command(bin, "-paper", "-sizes", "quick", "-run-budget", "1ns", "-on-violation", "fail")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Fatalf("want a nonzero exit, got %v\n%s", err, stderr.Bytes())
		}
		if !strings.Contains(stderr.String(), "guard: run-budget") {
			t.Fatalf("stderr lacks the guard violation:\n%s", stderr.Bytes())
		}
		if stdout.Len() != 0 {
			t.Fatalf("aborted evaluation printed a report:\n%s", stdout.Bytes())
		}
	})

	t.Run("reports", func(t *testing.T) {
		out := string(runSweep(t, bin, "-paper", "-sizes", "quick"))
		for _, want := range []string{
			"== Table 2: TG vs ARM performance with AMBA ==",
			"== Cross-interconnect .tgp equality (AMBA vs xpipes) ==",
			"programs IDENTICAL",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("output lacks %q:\n%s", want, out)
			}
		}
		if strings.Contains(out, "DIFFER") {
			t.Fatalf("cross-interconnect programs differ:\n%s", out)
		}
	})
}
