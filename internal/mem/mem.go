// Package mem provides the system slaves of the MPARM-like platform:
// word-addressed RAM (used for both private and shared memories) and the
// hardware test-and-set semaphore bank that drives the paper's reactive
// polling scenarios (Figure 2(b), Figure 3).
package mem

import (
	"fmt"

	"noctg/internal/ocp"
)

// RAM is a word-addressed memory slave with a configurable access time.
// Private memories and the shared memory differ only in the address range
// the platform maps them at and in cacheability.
//
// Storage is paged and a page is allocated on its first non-zero write, so
// a platform's footprint follows the words its masters touch, not its
// address map: a private RAM spans 128 KiB, of which a program touches a
// few pages.
type RAM struct {
	base  uint32
	words int // size in words
	// pages holds pageWords words each; a nil page reads as zeros.
	pages [][]uint32
	// waitStates is the intrinsic per-access service time in cycles
	// (the paper's "slave access time"). Bursts pay it once per beat.
	waitStates uint64
	name       string
}

// NewRAM builds a RAM of size bytes mapped at base. Size and base must be
// word aligned.
func NewRAM(name string, base, size uint32, waitStates uint64) *RAM {
	if base%4 != 0 || size%4 != 0 || size == 0 {
		panic(fmt.Sprintf("mem: RAM %s base/size must be word aligned and non-zero", name))
	}
	words := int(size / 4)
	pages := make([][]uint32, (words+pageWords-1)/pageWords)
	return &RAM{base: base, words: words, pages: pages, waitStates: waitStates, name: name}
}

// pageWords is the RAM page size in words (4 KiB).
const pageWords = 1024

func (r *RAM) word(idx int) uint32 {
	if p := r.pages[idx/pageWords]; p != nil {
		return p[idx%pageWords]
	}
	return 0
}

func (r *RAM) setWord(idx int, v uint32) {
	p := r.pages[idx/pageWords]
	if p == nil {
		if v == 0 {
			return
		}
		p = make([]uint32, pageWords)
		r.pages[idx/pageWords] = p
	}
	p[idx%pageWords] = v
}

// Name returns the memory's diagnostic name.
func (r *RAM) Name() string { return r.name }

// Range returns the address range the RAM occupies.
func (r *RAM) Range() ocp.AddrRange {
	return ocp.AddrRange{Base: r.base, Size: uint32(r.words * 4)}
}

// AccessCycles implements ocp.Slave.
func (r *RAM) AccessCycles(req *ocp.Request) uint64 {
	return r.waitStates * uint64(req.Burst)
}

// Perform implements ocp.Slave.
func (r *RAM) Perform(req *ocp.Request) ocp.Response {
	return r.PerformInto(req, make([]uint32, 0, req.Burst))
}

// PerformInto implements ocp.BufferedSlave: read data is appended to dst
// instead of freshly allocated, so interconnects can reuse one buffer per
// port across transactions.
func (r *RAM) PerformInto(req *ocp.Request, dst []uint32) ocp.Response {
	idx, ok := r.index(req.Addr)
	if !ok || idx+req.Burst > r.words {
		return ocp.Response{Err: true}
	}
	switch {
	case req.Cmd.IsRead():
		for i := idx; i < idx+req.Burst; i++ {
			dst = append(dst, r.word(i))
		}
		return ocp.Response{Data: dst}
	case req.Cmd.IsWrite():
		for i, v := range req.Data[:min(len(req.Data), req.Burst)] {
			r.setWord(idx+i, v)
		}
		return ocp.Response{}
	}
	return ocp.Response{Err: true}
}

// NextWake implements sim.Sleeper: a RAM is purely reactive (it acts only
// inside a fabric-invoked Perform), so it never needs a clock tick of its
// own under any kernel — the invoking fabric is awake whenever an access
// is pending, which is all the event kernel requires.
func (r *RAM) NextWake(uint64) uint64 { return wakeNever }

// wakeNever mirrors sim.WakeNever without importing sim: the passive slaves
// in this package implement the Sleeper method set but are not engine
// devices.
const wakeNever = ^uint64(0)

// PeekWord reads a word directly, bypassing timing — used by program
// loaders, test assertions and functional validation only.
func (r *RAM) PeekWord(addr uint32) uint32 {
	idx, ok := r.index(addr)
	if !ok {
		panic(fmt.Sprintf("mem: PeekWord %#08x outside %s %v", addr, r.name, r.Range()))
	}
	return r.word(idx)
}

// PokeWord writes a word directly, bypassing timing.
func (r *RAM) PokeWord(addr uint32, v uint32) {
	idx, ok := r.index(addr)
	if !ok {
		panic(fmt.Sprintf("mem: PokeWord %#08x outside %s %v", addr, r.name, r.Range()))
	}
	r.setWord(idx, v)
}

// LoadWords copies words into memory starting at addr (loader path).
func (r *RAM) LoadWords(addr uint32, words []uint32) {
	idx, ok := r.index(addr)
	if !ok || idx+len(words) > r.words {
		panic(fmt.Sprintf("mem: LoadWords %#08x+%d outside %s %v", addr, len(words), r.name, r.Range()))
	}
	for i, v := range words {
		r.setWord(idx+i, v)
	}
}

// Clear zeroes the whole memory.
func (r *RAM) Clear() {
	clear(r.pages)
}

func (r *RAM) index(addr uint32) (int, bool) {
	if addr < r.base || addr%4 != 0 {
		return 0, false
	}
	idx := int((addr - r.base) / 4)
	if idx >= r.words {
		return 0, false
	}
	return idx, true
}

var _ ocp.Slave = (*RAM)(nil)
var _ ocp.BufferedSlave = (*RAM)(nil)
