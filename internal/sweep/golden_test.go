package sweep

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"noctg/internal/exp"
	"noctg/internal/journal"
)

// The golden-file regression harness: every deterministic experiment
// artifact — the paper experiments (Table 2, the cross-interconnect check,
// the Figure 2 pair) and the spatial-pattern scenario grid — is snapshotted
// under testdata/golden/ and compared byte-for-byte on every test run, so
// any behavioural drift in the simulation models fails CI with a diffable
// artifact. Regenerate after an intentional change with
//
//	go test ./internal/sweep -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files instead of comparing")

// golden marshals v and compares it with testdata/golden/<name>.json,
// or rewrites the file under -update.
func golden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden", name+".json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		// Atomic like every other artifact writer: an interrupted -update
		// must not leave a torn golden masquerading as a real baseline.
		if err := journal.AtomicWrite(path, got); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from its golden file.\nIf the change is intentional, regenerate with:\n  go test ./internal/sweep -run %s -update\ngot:\n%s\nwant:\n%s",
			name, t.Name(), clip(got), clip(want))
	}
}

// clip bounds a diff dump so a drifted 26-point result set stays readable.
func clip(b []byte) []byte {
	const max = 4096
	if len(b) <= max {
		return b
	}
	return append(append([]byte{}, b[:max]...), []byte("\n... [clipped]")...)
}

// TestGoldenScenarioGrid locks the full spatial-pattern × topology scenario
// sweep: every pattern on AMBA, mesh and torus, byte-identical to the
// committed snapshot (and, via TestKernelDifferentialScenarios, identical
// under both kernels).
func TestGoldenScenarioGrid(t *testing.T) {
	results, err := Runner{}.Run(ScenarioGrid().Expand())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("point %d (%s @ %s): %s", r.ID, r.Workload, r.Fabric, r.Err)
		}
	}
	golden(t, "scenarios", results)
}

// goldenRow is the deterministic projection of a Table 2 row: simulated
// cycles, accuracy and trace size, but no host wall-clock fields.
type goldenRow struct {
	Bench      string  `json:"bench"`
	Cores      int     `json:"cores"`
	CyclesARM  uint64  `json:"cycles_arm"`
	CyclesTG   uint64  `json:"cycles_tg"`
	ErrorPct   float64 `json:"error_pct"`
	TraceBytes int     `json:"trace_bytes"`
}

// TestGoldenTable2 locks the Table 2 accuracy numbers for the tiny
// benchmark sizes.
func TestGoldenTable2(t *testing.T) {
	res, err := RunPaperSelect(tinySizes(), exp.DefaultOptions(), 0, PaperSelect{Table2: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]goldenRow, len(res.Table2))
	for i, r := range res.Table2 {
		rows[i] = goldenRow{
			Bench:      r.Bench,
			Cores:      r.Cores,
			CyclesARM:  r.CyclesARM,
			CyclesTG:   r.CyclesTG,
			ErrorPct:   r.ErrorPct,
			TraceBytes: r.TraceBytes,
		}
	}
	golden(t, "table2", rows)
}

// TestGoldenCrossCheck locks the cross-interconnect .tgp equality
// experiment (every field of the result is simulation-derived).
func TestGoldenCrossCheck(t *testing.T) {
	res, err := RunPaperSelect(tinySizes(), exp.DefaultOptions(), 0, PaperSelect{CrossCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "crosscheck", res.CrossChecks)
}

// TestGoldenFig2 locks both Figure 2 experiments.
func TestGoldenFig2(t *testing.T) {
	res, err := RunPaperSelect(tinySizes(), exp.DefaultOptions(), 0, PaperSelect{Fig2: true})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fig2", struct {
		Fig2a *exp.Fig2aResult `json:"fig2a"`
		Fig2b *exp.Fig2bResult `json:"fig2b"`
	}{res.Fig2a, res.Fig2b})
}
