package sweep

import (
	"bytes"
	"math/rand"
	"testing"

	"noctg/internal/platform"
)

// legacyEquivalentMeasure is the phased configuration the equivalence
// property pins: no warmup, one open epoch to completion, no drain.
func legacyEquivalentMeasure() *Measure { return &Measure{Epochs: 1} }

// stripPhases clears the phased extension so a phased Result can be
// compared byte-for-byte against a legacy one.
func stripPhases(results []Result) []Result {
	out := append([]Result(nil), results...)
	for i := range out {
		out[i].Phases = nil
	}
	return out
}

func marshalResults(t *testing.T, results []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomPoint draws one randomized stochastic scenario point.
func randomPoint(rng *rand.Rand) Point {
	patterns := []string{"", "uniform", "transpose", "bitcomp", "bitrev", "hotspot", "neighbor"}
	dists := []string{"uniform", "gaussian", "poisson", "bursty"}
	w := Workload{
		Kind:    KindStochastic,
		Dist:    dists[rng.Intn(len(dists))],
		Cores:   4,
		MeanGap: []float64{3, 6, 12}[rng.Intn(3)],
		Count:   100 + rng.Intn(200),
	}
	if pat := patterns[rng.Intn(len(patterns))]; pat != "" {
		w.Pattern = pat
		w.PatternW, w.PatternH = 2, 2
		if pat == "hotspot" {
			w.Hotspot = []float64{0, 0.7, 0, 0}
		}
	}
	fabrics := []Fabric{
		{Interconnect: FabricAMBA},
		{Interconnect: FabricXPipes, MeshWidth: 4, MeshHeight: 3},
		{Interconnect: FabricXPipes, Topology: "torus", MeshWidth: 4, MeshHeight: 3},
	}
	return Point{
		Workload:      w,
		Fabric:        fabrics[rng.Intn(len(fabrics))],
		ClockPeriodNS: 5,
		Seed:          rng.Int63n(1 << 20),
	}
}

// TestPhasedLegacyEquivalenceProperty is the compatibility property the
// refactor hinges on: for randomized scenarios, under both kernels, a
// phased run with warmup=0, epochs=1, drain=0 produces a Result — and a
// serialised artifact — byte-identical to the legacy single-window run
// (modulo the purely additive phases block).
func TestPhasedLegacyEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260727))
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		base := randomPoint(rng)
		phased := base
		phased.Measure = legacyEquivalentMeasure()
		for _, kernel := range diffKernels() {
			r := Runner{Kernel: kernel}
			legacy, err := r.Run([]Point{base})
			if err != nil {
				t.Fatal(err)
			}
			ph, err := r.Run([]Point{phased})
			if err != nil {
				t.Fatal(err)
			}
			if legacy[0].Err != "" || ph[0].Err != "" {
				t.Fatalf("trial %d kernel %v: errs %q / %q (point %+v)",
					trial, kernel, legacy[0].Err, ph[0].Err, base)
			}
			if ph[0].Phases == nil {
				t.Fatalf("trial %d kernel %v: phased run reported no phase stats", trial, kernel)
			}
			if !ph[0].Phases.Completed || ph[0].Phases.WarmupCycles != 0 || len(ph[0].Phases.Epochs) != 1 {
				t.Fatalf("trial %d kernel %v: phase stats %+v", trial, kernel, ph[0].Phases)
			}
			want := marshalResults(t, legacy)
			got := marshalResults(t, stripPhases(ph))
			if !bytes.Equal(want, got) {
				t.Fatalf("trial %d kernel %v (%s @ %s): phased(0,1,0) diverged from legacy\nlegacy: %s\nphased: %s",
					trial, kernel, legacy[0].Workload, legacy[0].Fabric, want, got)
			}
		}
	}
}

// TestPhasedKernelDifferential asserts the second half of the invariant:
// a genuinely phased run (warmup, fixed epochs, drain) is byte-identical —
// including every epoch's counter breakdown — across the strict and event
// kernels.
func TestPhasedKernelDifferential(t *testing.T) {
	m := &Measure{WarmupCycles: 300, EpochCycles: 400, Epochs: 3, DrainCycles: 10_000}
	var points []Point
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 3; i++ {
		p := randomPoint(rng)
		p.ID = i
		p.Measure = m
		points = append(points, p)
	}
	strict, err := Runner{Kernel: platform.KernelStrict}.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range strict {
		if r.Err != "" {
			t.Fatalf("strict point %d: %s", r.ID, r.Err)
		}
		if r.Phases == nil || len(r.Phases.Epochs) == 0 {
			t.Fatalf("strict point %d: no phase stats", r.ID)
		}
	}
	want := marshalResults(t, strict)
	for _, kernel := range diffKernels()[1:] {
		got, err := Runner{Kernel: kernel}.Run(points)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, marshalResults(t, got)) {
			t.Fatalf("phased artifacts differ between strict and %v kernels", kernel)
		}
	}
}

// TestPhasedAdaptiveEpochs exercises the CI-driven stopping mode: the run
// must stop between minCIEpochs and the cap, report convergence, and tile
// the measure window exactly with its epochs.
func TestPhasedAdaptiveEpochs(t *testing.T) {
	p := Point{
		Workload: Workload{Kind: KindStochastic, Dist: "poisson", Cores: 4,
			Pattern: "uniform", PatternW: 2, PatternH: 2, Count: 1 << 30, MeanGap: 6},
		Fabric:        Fabric{Interconnect: FabricXPipes, MeshWidth: 4, MeshHeight: 3},
		ClockPeriodNS: 5,
		Seed:          1,
		Measure:       &Measure{WarmupCycles: 1000, EpochCycles: 2000, CITarget: 0.1},
	}
	res, err := Runner{}.Run([]Point{p})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != "" {
		t.Fatal(res[0].Err)
	}
	ps := res[0].Phases
	if ps == nil {
		t.Fatal("no phase stats")
	}
	if !ps.Converged {
		t.Fatalf("adaptive run did not converge: %+v", ps)
	}
	if n := len(ps.Epochs); n < minCIEpochs || n >= defaultMaxEpochs {
		t.Fatalf("epochs = %d", n)
	}
	if ps.CIHalfWidthRel <= 0 || ps.CIHalfWidthRel > 0.1 {
		t.Fatalf("ci half-width = %g", ps.CIHalfWidthRel)
	}
	if ps.WarmupCycles != 1000 {
		t.Fatalf("warmup = %d", ps.WarmupCycles)
	}
	// Epochs tile the measure window contiguously.
	start := uint64(1000)
	for i, e := range ps.Epochs {
		if e.StartCycle != start || e.EndCycle != start+2000 {
			t.Fatalf("epoch %d window [%d,%d), want [%d,%d)", i, e.StartCycle, e.EndCycle, start, start+2000)
		}
		start = e.EndCycle
		if e.Counters == nil {
			t.Fatalf("epoch %d has no counter breakdown", i)
		}
		// The per-VC breakdown must tally with the total flit count.
		var vcs uint64
		for _, name := range []string{"noc/flits/req", "noc/flits/resp", "noc/flits/req_dl", "noc/flits/resp_dl"} {
			vcs += e.Counters[name]
		}
		if vcs != e.Counters["noc/flits_routed"] || e.FlitsRouted != vcs {
			t.Fatalf("epoch %d: per-VC flits %d != total %d (%d)", i, vcs, e.Counters["noc/flits_routed"], e.FlitsRouted)
		}
	}
	if ps.MeasureCycles != start-1000 {
		t.Fatalf("measure cycles = %d, epochs covered %d", ps.MeasureCycles, start-1000)
	}
}

func TestMeasureValidate(t *testing.T) {
	valid := []Measure{
		{},
		{Epochs: 1},
		{WarmupCycles: 100, EpochCycles: 200, Epochs: 4, DrainCycles: 50},
		{EpochCycles: 200, CITarget: 0.05, MaxEpochs: 10},
	}
	for i, m := range valid {
		if err := m.Validate(); err != nil {
			t.Errorf("valid measure %d rejected: %v", i, err)
		}
	}
	invalid := []Measure{
		{CITarget: -0.1},
		{CITarget: 1},
		{CITarget: 0.05}, // adaptive without epoch_cycles
		{EpochCycles: 100, CITarget: 0.05, Epochs: 2}, // both modes
		{MaxEpochs: 5}, // cap without adaptive mode
		{Epochs: 3},    // multiple epochs without a length
		{Epochs: -1},
	}
	for i, m := range invalid {
		if err := m.Validate(); err == nil {
			t.Errorf("invalid measure %d accepted: %+v", i, m)
		}
	}
}
