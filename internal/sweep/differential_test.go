package sweep

import (
	"bytes"
	"reflect"
	"testing"

	"noctg/internal/exp"
	"noctg/internal/platform"
)

// diffKernels is the kernel matrix every differential gate runs: the strict
// reference and the event-driven active-set kernel.
func diffKernels() []platform.KernelMode {
	return []platform.KernelMode{platform.KernelStrict, platform.KernelEvent}
}

// assertKernelDifferential runs points under every kernel and asserts the
// Results — and the JSON/CSV artifacts serialised from them — are
// byte-identical to the strict reference.
func assertKernelDifferential(t *testing.T, points []Point) {
	t.Helper()
	strict, err := Runner{Kernel: platform.KernelStrict}.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	for i := range strict {
		if strict[i].Err != "" {
			t.Fatalf("strict point %d (%s @ %s): %s", i, strict[i].Workload, strict[i].Fabric, strict[i].Err)
		}
	}
	var js, cs bytes.Buffer
	if err := WriteJSON(&js, strict); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&cs, strict); err != nil {
		t.Fatal(err)
	}

	for _, kernel := range diffKernels()[1:] {
		got, err := Runner{Kernel: kernel}.Run(points)
		if err != nil {
			t.Fatal(err)
		}
		if len(strict) != len(got) {
			t.Fatalf("strict produced %d results, %v %d", len(strict), kernel, len(got))
		}
		for i := range strict {
			if !reflect.DeepEqual(strict[i], got[i]) {
				t.Fatalf("point %d (%s @ %s) diverged:\nstrict: %+v\n%v: %+v",
					i, strict[i].Workload, strict[i].Fabric, strict[i], kernel, got[i])
			}
		}
		var jk, ck bytes.Buffer
		if err := WriteJSON(&jk, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(js.Bytes(), jk.Bytes()) {
			t.Fatalf("JSON artifacts differ between strict and %v kernels", kernel)
		}
		if err := WriteCSV(&ck, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cs.Bytes(), ck.Bytes()) {
			t.Fatalf("CSV artifacts differ between strict and %v kernels", kernel)
		}
	}
}

// TestKernelDifferentialGrid is the tentpole equivalence gate for the grid
// sweep: every DefaultGrid point must produce an identical Result under the
// strict and event kernels, down to byte-identical JSON and CSV
// artifacts.
func TestKernelDifferentialGrid(t *testing.T) {
	assertKernelDifferential(t, DefaultGrid().Expand())
}

// TestKernelDifferentialScenarios extends the equivalence gate over the
// scenario space: every spatial pattern × fabric topology point of
// ScenarioGrid must produce byte-identical JSON and CSV artifacts under
// the strict and event kernels.
func TestKernelDifferentialScenarios(t *testing.T) {
	assertKernelDifferential(t, ScenarioGrid().Expand())
}

// TestKernelDifferentialPaper runs every paper experiment family under both
// kernels and asserts the simulated-state results (makespans, poll counts,
// program equality — everything except host wall-clock) are identical.
func TestKernelDifferentialPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("paper differential is a long test")
	}
	sizes := tinySizes()
	sel := AllPaper()

	run := func(kernel platform.KernelMode) *PaperResults {
		t.Helper()
		opt := exp.DefaultOptions()
		opt.Platform.Kernel = kernel
		res, err := RunPaperSelect(sizes, opt, 0, sel)
		if err != nil {
			t.Fatalf("kernel %v: %v", kernel, err)
		}
		return res
	}
	strict := run(platform.KernelStrict)
	for _, kernel := range diffKernels()[1:] {
		assertPaperEqual(t, strict, run(kernel))
	}
}

// assertPaperEqual compares every simulated-state field of two full paper
// evaluations.
func assertPaperEqual(t *testing.T, strict, event *PaperResults) {
	t.Helper()
	if len(strict.Table2) != len(event.Table2) {
		t.Fatalf("table2 rows: strict %d, event %d", len(strict.Table2), len(event.Table2))
	}
	for i := range strict.Table2 {
		s, k := strict.Table2[i], event.Table2[i]
		if s.Bench != k.Bench || s.Cores != k.Cores ||
			s.CyclesARM != k.CyclesARM || s.CyclesTG != k.CyclesTG ||
			s.ErrorPct != k.ErrorPct || s.TraceBytes != k.TraceBytes {
			t.Fatalf("table2 row %d diverged:\nstrict: %+v\nevent:  %+v", i, s, k)
		}
	}
	if !reflect.DeepEqual(strict.CrossChecks, event.CrossChecks) {
		t.Fatalf("cross-checks diverged:\nstrict: %+v\nevent:  %+v", strict.CrossChecks, event.CrossChecks)
	}
	if strict.Overhead.TraceBytes != event.Overhead.TraceBytes ||
		strict.Overhead.Events != event.Overhead.Events {
		t.Fatalf("overhead diverged:\nstrict: %+v\nevent:  %+v", strict.Overhead, event.Overhead)
	}
	if !reflect.DeepEqual(strict.Fidelity, event.Fidelity) {
		t.Fatalf("fidelity ablation diverged:\nstrict: %+v\nevent:  %+v", strict.Fidelity, event.Fidelity)
	}
	if !reflect.DeepEqual(strict.Arbitration, event.Arbitration) {
		t.Fatalf("arbitration ablation diverged:\nstrict: %+v\nevent:  %+v", strict.Arbitration, event.Arbitration)
	}
	if !reflect.DeepEqual(strict.Fig2a, event.Fig2a) {
		t.Fatalf("fig2a diverged:\nstrict: %+v\nevent:  %+v", strict.Fig2a, event.Fig2a)
	}
	if !reflect.DeepEqual(strict.Fig2b, event.Fig2b) {
		t.Fatalf("fig2b diverged:\nstrict: %+v\nevent:  %+v", strict.Fig2b, event.Fig2b)
	}
}

// TestKernelDefaultIsEvent pins the TG-replay default: a sweep Runner with
// the zero-value kernel mode must behave exactly like an explicit
// event-kernel selection (the active-set kernel is the replay default).
func TestKernelDefaultIsEvent(t *testing.T) {
	points := DefaultGrid().Expand()[:2]
	auto, err := Runner{}.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	event, err := Runner{Kernel: platform.KernelEvent}.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(auto, event) {
		t.Fatal("zero-value Runner kernel must resolve to event")
	}
}
