package sim

import (
	"errors"
	"reflect"
	"testing"
)

func TestRunEveryStrideDetection(t *testing.T) {
	e := NewEngine(Clock{})
	n := 0
	e.Add(DeviceFunc(func(uint64) { n++ }))
	// Condition true after 10 cycles, stride 8 → detected at cycle 16.
	ran, err := e.RunEvery(1000, 8, func() bool { return n >= 10 })
	if err != nil {
		t.Fatal(err)
	}
	if ran != 16 {
		t.Fatalf("detected after %d cycles, want 16 (stride rounding)", ran)
	}
}

func TestRunEveryChecksFinalCycle(t *testing.T) {
	// The predicate is evaluated after the last budgeted cycle even when
	// it does not fall on a stride boundary.
	e := NewEngine(Clock{})
	n := 0
	e.Add(DeviceFunc(func(uint64) { n++ }))
	ran, err := e.RunEvery(10, 64, func() bool { return n >= 10 })
	if err != nil {
		t.Fatalf("final-cycle check missed: %v", err)
	}
	if ran != 10 {
		t.Fatalf("ran %d", ran)
	}
}

func TestRunEveryLimit(t *testing.T) {
	e := NewEngine(Clock{})
	_, err := e.RunEvery(20, 4, func() bool { return false })
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunEveryZeroStride(t *testing.T) {
	e := NewEngine(Clock{})
	n := 0
	e.Add(DeviceFunc(func(uint64) { n++ }))
	ran, err := e.RunEvery(100, 0, func() bool { return n >= 3 })
	if err != nil || ran != 3 {
		t.Fatalf("zero stride should behave like 1: ran=%d err=%v", ran, err)
	}
}

func TestRunEveryNilPredicate(t *testing.T) {
	e := NewEngine(Clock{})
	if _, err := e.RunEvery(10, 1, nil); err == nil {
		t.Fatal("nil predicate should error")
	}
}

func TestDevicesCount(t *testing.T) {
	e := NewEngine(Clock{})
	if e.Devices() != 0 {
		t.Fatal("fresh engine has devices")
	}
	e.Add(DeviceFunc(func(uint64) {}))
	e.Add(DeviceFunc(func(uint64) {}))
	if e.Devices() != 2 {
		t.Fatalf("Devices() = %d", e.Devices())
	}
}

func TestRunEverySingleEvaluationPerBoundary(t *testing.T) {
	// done() must be evaluated exactly once per stride boundary: when the
	// budget's final cycle lands on a boundary, the old post-loop check
	// re-evaluated it a second time.
	e := NewEngine(Clock{})
	e.Add(DeviceFunc(func(uint64) {}))
	evals := 0
	_, err := e.RunEvery(20, 4, func() bool { evals++; return false })
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v", err)
	}
	if evals != 5 {
		t.Fatalf("done() evaluated %d times, want 5 (20 cycles / stride 4)", evals)
	}

	// The event kernel keeps the rule across its jumps. A device busy every
	// cycle pins it to strict's boundaries; with a sparse device, one
	// evaluation of the frozen state at the jump origin (cycle 1) stands in
	// for the boundaries the jump crosses, and the budget's final boundary
	// is still evaluated only once.
	dense := make([]uint64, 20)
	for i := range dense {
		dense[i] = uint64(i)
	}
	strictAt := []uint64{4, 8, 12, 16, 20}
	for _, tc := range []struct {
		name    string
		times   []uint64
		eventAt []uint64
	}{
		{"dense", dense, strictAt},
		{"sparse", []uint64{0, 19}, []uint64{1, 20}},
	} {
		for _, kernel := range bothKernels {
			e := NewEngine(Clock{})
			e.Add(&pulser{times: tc.times})
			e.SetKernel(kernel)
			var at []uint64
			_, err := e.RunEvery(20, 4, func() bool { at = append(at, e.Cycle()); return false })
			if !errors.Is(err, ErrMaxCycles) || e.Cycle() != 20 {
				t.Fatalf("%s/%v: cycle %d, err = %v", tc.name, kernel, e.Cycle(), err)
			}
			want := strictAt
			if kernel == KernelEvent {
				want = tc.eventAt
			}
			if !reflect.DeepEqual(at, want) {
				t.Fatalf("%s/%v: done() evaluated at cycles %v, want %v", tc.name, kernel, at, want)
			}
		}
	}
}

func TestRunEveryStrideLargerThanBudget(t *testing.T) {
	// stride > maxCycles: no in-loop boundary is ever reached, so the
	// post-loop check must evaluate the predicate exactly once.
	e := NewEngine(Clock{})
	n := 0
	e.Add(DeviceFunc(func(uint64) { n++ }))
	evals := 0
	ran, err := e.RunEvery(10, 64, func() bool { evals++; return n >= 10 })
	if err != nil {
		t.Fatalf("final-cycle check missed: %v", err)
	}
	if ran != 10 {
		t.Fatalf("ran %d, want 10", ran)
	}
	if evals != 1 {
		t.Fatalf("done() evaluated %d times, want exactly 1", evals)
	}

	// The same on a sleeping device: the event kernel jumps to the work at
	// cycle 9 and must detect completion at the budget, evaluating once.
	for _, kernel := range bothKernels {
		e := NewEngine(Clock{})
		p := &pulser{times: []uint64{9}}
		e.Add(p)
		e.SetKernel(kernel)
		evals := 0
		ran, err := e.RunEvery(10, 64, func() bool { evals++; return p.done() })
		if err != nil || ran != 10 || evals != 1 {
			t.Fatalf("kernel %v: ran %d, %d evaluations, err %v; want 10, 1, nil", kernel, ran, evals, err)
		}
	}
}

func TestKernelString(t *testing.T) {
	if KernelStrict.String() != "strict" || KernelEvent.String() != "event" {
		t.Fatal("kernel names changed")
	}
}
