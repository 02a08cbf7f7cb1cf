package sweep

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzParseGrid: arbitrary bytes must never panic the grid parser, and a
// grid it accepts must pass its own validation and survive a re-encode →
// re-parse round trip (the -print-grid template path).
func FuzzParseGrid(f *testing.F) {
	for _, g := range []Grid{DefaultGrid(), ScenarioGrid()} {
		src, err := json.Marshal(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	// The execution-policy and measurement axes the stock grids leave out.
	f.Add(`{"workloads":[{"kind":"stochastic","dist":"poisson","cores":2,"count":50}],` +
		`"fabrics":[{"interconnect":"xpipes","mesh_width":4,"mesh_height":2}],"shards":2,` +
		`"measure":{"warmup":100,"epoch_cycles":200,"epochs":2,"drain":50},` +
		`"retry":{"max_attempts":3,"backoff_ms":1,"deadline_ms":1000}}`)
	for _, tc := range parseGridRejects {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ParseGrid(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted grid fails validation: %v\n%s", err, src)
		}
		out, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("accepted grid does not encode: %v\n%s", err, src)
		}
		if _, err := ParseGrid(strings.NewReader(string(out))); err != nil {
			t.Fatalf("re-encoded grid rejected: %v\n%s", err, out)
		}
	})
}
