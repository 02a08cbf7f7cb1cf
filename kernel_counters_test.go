package noctg_test

import (
	"reflect"
	"testing"

	"noctg/internal/core"
	"noctg/internal/platform"
)

func TestBusCounterKernelEquivalence(t *testing.T) {
	src := `MASTER[0,0]
REGISTER addr 0x08000000
REGISTER data 7
BEGIN
	Write(addr, data)
	Idle(5000)
	Write(addr, data)
	Halt
END`
	run := func(kernel platform.KernelMode) (busy, idle uint64) {
		progs := make([]*core.Program, 2)
		for i := range progs {
			p, err := core.Assemble(src)
			if err != nil {
				t.Fatal(err)
			}
			progs[i] = p
		}
		sys, err := platform.BuildTG(platform.Config{Cores: 2, Kernel: kernel}, progs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(100_000); err != nil {
			t.Fatal(err)
		}
		return sys.Bus.BusyCycles(), sys.Bus.IdleCycles()
	}
	sb, si := run(platform.KernelStrict)
	if kb, ki := run(platform.KernelEvent); sb != kb || si != ki {
		t.Fatalf("bus counters diverge: strict busy=%d idle=%d, event busy=%d idle=%d", sb, si, kb, ki)
	}
	t.Logf("busy=%d idle=%d identical across kernels", sb, si)
}

// TestBusWaitCyclesBudgetExhaustTail pins the WaitCycles getter's tail
// settlement: a run cut off by its cycle budget while the bus sleeps
// through a long transfer with another master queued must still report the
// strict kernel's per-cycle wait counts (the lazily credited frozen-set
// span up to the final cycle).
func TestBusWaitCyclesBudgetExhaustTail(t *testing.T) {
	occupier := `MASTER[0,0]
REGISTER addr 0x08000000
REGISTER data 7
BEGIN
	BurstWrite(addr, data, 8)
	Idle(5000)
	Halt
END`
	waiter := `MASTER[0,0]
REGISTER addr 0x08000040
REGISTER data 9
BEGIN
	Write(addr, data)
	Halt
END`
	run := func(kernel platform.KernelMode) []uint64 {
		progs := make([]*core.Program, 2)
		for i, src := range []string{occupier, waiter} {
			p, err := core.Assemble(src)
			if err != nil {
				t.Fatal(err)
			}
			progs[i] = p
		}
		sys, err := platform.BuildTG(platform.Config{Cores: 2, Kernel: kernel}, progs)
		if err != nil {
			t.Fatal(err)
		}
		// The budget lands mid-transfer: the 8-beat burst occupies the bus
		// well past cycle 10 while the waiter sits in portRequesting.
		if _, err := sys.Run(10); err == nil {
			t.Fatal("expected the cycle budget to exhaust mid-transfer")
		}
		return append([]uint64(nil), sys.Bus.WaitCycles()...)
	}
	want := run(platform.KernelStrict)
	if want[1] == 0 {
		t.Fatal("waiter accumulated no wait cycles under strict; the scenario is miswired")
	}
	if got := run(platform.KernelEvent); !reflect.DeepEqual(want, got) {
		t.Fatalf("WaitCycles diverge on budget exhaust: strict %v, event %v", want, got)
	}
}
