package sim

import (
	"errors"
	"fmt"
	"testing"
)

// Idle-cycle skipping: the event kernel fast-forwards the cycle counter over
// spans in which every device sleeps. These tests pin that the skipped spans
// are invisible — each run ends on the strict kernel's cycle, with its error
// and its device-visible work — and that skipping happens only when every
// device is a Sleeper.

func TestSkipKernelEquivalence(t *testing.T) {
	// Cross-device wakes inside skipped spans: a sparse stimulator pokes a
	// sleeping sink, which must run on exactly the strict kernel's cycles.
	times := []uint64{0, 3, 4, 100, 1000, 1001, 5000}
	for _, stride := range []uint64{1, 7, 32} {
		var ran [2]uint64
		var errs [2]error
		var sinks [2]*wakeSink
		var skipped [2]uint64
		for i, kernel := range bothKernels {
			e := NewEngine(Clock{})
			sink := &wakeSink{runTicks: runTicks{n: 2}}
			e.Add(&stimulator{times: times, sink: sink})
			e.Add(sink)
			e.SetKernel(kernel)
			ran[i], errs[i] = e.RunEvery(100_000, stride, func() bool { return sink.work == len(times) })
			sinks[i], skipped[i] = sink, e.SkippedCycles
		}
		if ran[0] != ran[1] || (errs[0] == nil) != (errs[1] == nil) {
			t.Fatalf("stride %d: strict ran %d (err %v), event ran %d (err %v)",
				stride, ran[0], errs[0], ran[1], errs[1])
		}
		if fmt.Sprint(sinks[0].ticks) != fmt.Sprint(sinks[1].ticks) || sinks[0].work != sinks[1].work {
			t.Fatalf("stride %d: strict sink ran at %v (work %d), event at %v (work %d)",
				stride, sinks[0].ticks, sinks[0].work, sinks[1].ticks, sinks[1].work)
		}
		if skipped[0] != 0 || skipped[1] == 0 || skipped[1] >= ran[1] {
			t.Fatalf("stride %d: skipped strict %d, event %d of %d cycles", stride, skipped[0], skipped[1], ran[1])
		}
	}
}

func TestSkipKernelLimitEquivalence(t *testing.T) {
	// A run whose predicate never holds must exhaust the budget at exactly
	// the strict kernel's final cycle, whether the devices are asleep from
	// the start or fall asleep for good part-way, and whatever the stride
	// (including one that does not divide the budget or exceeds it).
	for _, times := range [][]uint64{nil, {2}, {0, 499}} {
		for _, stride := range []uint64{1, 32, 1000} {
			var work [2]int
			for i, kernel := range bothKernels {
				e := NewEngine(Clock{})
				p := &pulser{times: times}
				e.Add(p)
				e.SetKernel(kernel)
				ran, err := e.RunEvery(500, stride, func() bool { return false })
				if !errors.Is(err, ErrMaxCycles) {
					t.Fatalf("times %v stride %d kernel %v: err = %v", times, stride, kernel, err)
				}
				if ran != 500 || e.Cycle() != 500 {
					t.Fatalf("times %v stride %d kernel %v: ran %d, cycle %d, want 500",
						times, stride, kernel, ran, e.Cycle())
				}
				if kernel == KernelEvent && p.ticks != len(times) {
					t.Fatalf("times %v stride %d: event kernel ticked %d times, want %d",
						times, stride, p.ticks, len(times))
				}
				work[i] = p.work
			}
			if work[0] != work[1] || work[0] != len(times) {
				t.Fatalf("times %v stride %d: work strict %d, event %d, want %d",
					times, stride, work[0], work[1], len(times))
			}
		}
	}
}

func TestSkipKernelStrideDetectionRounding(t *testing.T) {
	// Work at cycle w is visible from engine cycle w+1; strict detects it at
	// the first stride boundary at or after that, or at the budget's final
	// check when no boundary falls inside the budget. The event kernel
	// jumps over the idle cycles on both sides and must report the
	// identical detection cycle.
	cases := []struct {
		work, stride, budget, want uint64
	}{
		{9, 8, 1000, 16},     // boundary past the visible cycle
		{7, 8, 1000, 8},      // visible exactly on a boundary
		{15, 8, 1000, 16},    // last cycle before a boundary
		{0, 5, 1000, 5},      // work at the first cycle
		{994, 8, 1000, 1000}, // boundary coincides with the budget
		{995, 7, 1000, 1000}, // next boundary beyond the budget: final check
	}
	for _, tc := range cases {
		for _, kernel := range bothKernels {
			e := NewEngine(Clock{})
			p := &pulser{times: []uint64{tc.work}}
			e.Add(p)
			e.SetKernel(kernel)
			ran, err := e.RunEvery(tc.budget, tc.stride, p.done)
			if err != nil {
				t.Fatalf("%+v kernel %v: %v", tc, kernel, err)
			}
			if ran != tc.want || e.Cycle() != tc.want {
				t.Fatalf("%+v kernel %v: detected after %d cycles (cycle %d), want %d",
					tc, kernel, ran, e.Cycle(), tc.want)
			}
		}
	}
}

func TestSkipRequiresAllSleepers(t *testing.T) {
	// With only Sleepers registered the event kernel skips idle cycles; one
	// non-Sleeper, registered before or after them, turns skipping off for
	// the whole engine, and every device sees every cycle.
	e := NewEngine(Clock{})
	p := &pulser{times: []uint64{50}}
	e.Add(p)
	e.SetKernel(KernelEvent)
	if _, err := e.Run(1000, p.done); err != nil {
		t.Fatal(err)
	}
	if e.SkippedCycles == 0 || p.ticks != 1 {
		t.Fatalf("all-Sleeper engine: skipped %d cycles, pulser ticked %d times, want >0 and 1",
			e.SkippedCycles, p.ticks)
	}

	for _, plainFirst := range []bool{true, false} {
		e := NewEngine(Clock{})
		p := &pulser{times: []uint64{50}}
		n := 0
		plain := DeviceFunc(func(uint64) { n++ })
		if plainFirst {
			e.Add(plain)
			e.Add(p)
		} else {
			e.Add(p)
			e.Add(plain)
		}
		e.SetKernel(KernelEvent)
		if _, err := e.Run(1000, p.done); err != nil {
			t.Fatal(err)
		}
		if e.SkippedCycles != 0 || n != 51 || p.ticks != 51 {
			t.Fatalf("plain first %v: skipped %d cycles, plain ticked %d, pulser %d, want 0, 51, 51",
				plainFirst, e.SkippedCycles, n, p.ticks)
		}
	}
}
