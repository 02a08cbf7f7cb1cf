package sim

// The event-driven kernel. The engine partitions devices into an active
// list (sorted by registration index) and a sleep heap (an indexed binary
// min-heap ordered by (wake cycle, registration index)). Each executed
// cycle first admits every sleeper whose wake is due into the active list,
// then sweeps the list in index order, ticking each device and asking its
// post-tick NextWake: a device that stays active costs no data-structure
// work at all, and one that goes back to sleep moves to the heap. The
// per-cycle cost therefore scales with the number of awake devices — a
// steady active set touches the heap zero times per cycle — and when the
// active list empties, run's jump logic advances the cycle counter straight
// to the heap's earliest wake.
//
// Correctness leans on two properties. First, the Sleeper contract (see
// engine.go) makes a reported wake w a promise that every omitted Tick in
// [now, w) would have been a no-op, so omitting them cannot change
// simulated state. Second, a device that can be stimulated by another
// device outside its own Tick — an interconnect whose master ports receive
// TryRequest calls — implements WakeSink and calls its Waker at the moment
// of stimulus; the engine then moves it back to the active list. The sorted
// sweep makes the timing come out exactly as under strict ticking: a sink
// with a higher registration index than the stimulating device is inserted
// ahead of the sweep position and ticks in the same cycle (under strict
// ticking its slot runs after the stimulator's), while a lower-indexed sink
// is inserted behind the sweep position and first ticks next cycle (under
// strict ticking its slot this cycle already ran, before the stimulus
// existed, and was a no-op). Early wakes are always safe: ticking a device
// that has nothing to do is a no-op by construction, so a conservative wake
// can never diverge from strict semantics.

// Waker is the engine-provided wake handle for one registered device. Wake
// never blocks and never allocates; outside an event-kernel run it is a
// no-op.
type Waker interface {
	Wake()
}

// WakeSink is implemented by devices whose earliest action can be moved
// earlier by another device's Tick — the canonical case is an interconnect
// whose ports are poked by masters via TryRequest. The engine calls
// SetWaker once at registration; the device must call Wake whenever such
// external input arrives while it may be sleeping. Purely self-timed
// devices (absolute idle deadlines, recorded replay schedules) and devices
// that never report future wakes need not implement it.
type WakeSink interface {
	SetWaker(Waker)
}

// TickSleeper is an optional fast path for the event kernel, fusing
// Device.Tick and Sleeper.NextWake into one dynamic call: TickWake(c) must
// behave exactly like Tick(c) followed by NextWake(c+1). An awake device is
// ticked and re-queried every executed cycle, so halving its dispatch cost
// measurably widens the event kernel's margin; devices that don't implement
// it simply take the two-call path.
type TickSleeper interface {
	TickWake(cycle uint64) uint64
}

// engineWaker binds a Waker to one device slot of one engine.
type engineWaker struct {
	e   *Engine
	idx int32
}

// Wake implements Waker.
func (w *engineWaker) Wake() { w.e.wakeDevice(w.idx) }

// notInHeap marks a device that is on the active list rather than in the
// sleep heap.
const notInHeap = int32(-1)

// wakeDevice handles an external-stimulus wake for device idx: inside an
// event run, it moves a sleeping device back to the active list.
func (e *Engine) wakeDevice(idx int32) {
	if !e.evLive || e.evPos[idx] == notInHeap {
		return
	}
	e.heapRemove(idx)
	e.activeInsert(idx)
}

// initEventSchedule (re)builds the active list and sleep heap from every
// device's current NextWake. It runs at the start of each event-kernel Run,
// so state changes made between runs (direct device manipulation in tests,
// programs loaded after a previous run) are always picked up. Storage is
// reused across runs; steady-state event runs allocate nothing.
func (e *Engine) initEventSchedule() {
	n := len(e.devices)
	if cap(e.evWake) < n {
		e.evWake = make([]uint64, n)
		e.evPos = make([]int32, n)
		e.evHeap = make([]int32, 0, n)
		e.evActive = make([]int32, 0, n)
	}
	e.evWake = e.evWake[:n]
	e.evPos = e.evPos[:n]
	e.evHeap = e.evHeap[:0]
	e.evActive = e.evActive[:0]
	now := e.cycle
	for i := 0; i < n; i++ {
		w := e.sleepers[i].NextWake(now)
		if w <= now {
			// Ascending i keeps the active list sorted by construction.
			e.evPos[i] = notInHeap
			e.evActive = append(e.evActive, int32(i))
			continue
		}
		e.evWake[i] = w
		e.evHeap = append(e.evHeap, int32(i))
		e.evPos[i] = int32(len(e.evHeap) - 1)
	}
	for i := int32(len(e.evHeap))/2 - 1; i >= 0; i-- {
		e.evDown(i)
	}
	e.evSweep = 0
}

// stepEvent executes one cycle under the event kernel: it admits every due
// sleeper, then ticks the active list in registration order, re-sorting
// each device into active/sleeping from its post-tick horizon. A device
// woken mid-cycle by a lower-indexed device lands ahead of the sweep and is
// picked up before the cycle ends.
func (e *Engine) stepEvent() {
	c := e.cycle
	if h := e.evHeap; len(h) != 0 && e.evWake[h[0]] <= c {
		e.admitDue(c)
	}
	devices, sleepers, fused := e.devices, e.sleepers, e.evFused
	for e.evSweep = 0; int(e.evSweep) < len(e.evActive); {
		idx := e.evActive[e.evSweep]
		var nw uint64
		if f := fused[idx]; f != nil {
			nw = f.TickWake(c)
		} else {
			devices[idx].Tick(c)
			nw = sleepers[idx].NextWake(c + 1)
		}
		if nw <= c+1 {
			e.evSweep++
			continue
		}
		e.activeRemoveAt(e.evSweep)
		e.heapPush(idx, nw)
	}
	e.cycle++
}

// admitDue moves every sleeper whose wake is due into the active list
// (out of line: the common cycle pays only the heap-top check).
func (e *Engine) admitDue(c uint64) {
	for len(e.evHeap) > 0 {
		root := e.evHeap[0]
		if e.evWake[root] > c {
			return
		}
		e.heapRemove(root)
		e.activeInsert(root)
	}
}

// eventNextWake returns the earliest cycle at which any device acts: the
// current cycle while the active list is non-empty, else the heap top (or
// WakeNever on a fully quiescent engine).
func (e *Engine) eventNextWake() uint64 {
	if len(e.evActive) > 0 {
		return e.cycle
	}
	if len(e.evHeap) == 0 {
		return WakeNever
	}
	return e.evWake[e.evHeap[0]]
}

// activeInsert places idx into the sorted active list, keeping an in-flight
// sweep consistent: an insertion at or before the sweep position shifts the
// position up so the current cycle neither skips nor re-ticks a device.
func (e *Engine) activeInsert(idx int32) {
	a := e.evActive
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.evActive = append(a, 0)
	copy(e.evActive[lo+1:], e.evActive[lo:])
	e.evActive[lo] = idx
	if int32(lo) <= e.evSweep {
		e.evSweep++
	}
}

// activeRemoveAt drops the active-list entry at position i (the sweep
// position stays put, now pointing at the next entry).
func (e *Engine) activeRemoveAt(i int32) {
	a := e.evActive
	copy(a[i:], a[i+1:])
	e.evActive = a[:len(a)-1]
}

// heapPush files a sleeping device under its wake cycle.
func (e *Engine) heapPush(idx int32, w uint64) {
	e.evWake[idx] = w
	e.evHeap = append(e.evHeap, idx)
	p := int32(len(e.evHeap) - 1)
	e.evPos[idx] = p
	e.evUp(p)
}

// heapRemove detaches device idx from the sleep heap (marking it active).
func (e *Engine) heapRemove(idx int32) {
	p := e.evPos[idx]
	last := int32(len(e.evHeap) - 1)
	if p != last {
		e.evSwap(p, last)
	}
	e.evHeap = e.evHeap[:last]
	e.evPos[idx] = notInHeap
	if p != last {
		moved := e.evHeap[p]
		e.evUp(p)
		if e.evPos[moved] == p {
			e.evDown(p)
		}
	}
}

// evLess orders heap entries by (wake, registration index): the index
// tie-break is what keeps same-cycle admissions in registration order.
func (e *Engine) evLess(a, b int32) bool {
	wa, wb := e.evWake[a], e.evWake[b]
	return wa < wb || (wa == wb && a < b)
}

func (e *Engine) evSwap(i, j int32) {
	h := e.evHeap
	h[i], h[j] = h[j], h[i]
	e.evPos[h[i]] = i
	e.evPos[h[j]] = j
}

func (e *Engine) evUp(i int32) {
	h := e.evHeap
	for i > 0 {
		p := (i - 1) / 2
		if !e.evLess(h[i], h[p]) {
			break
		}
		e.evSwap(i, p)
		i = p
	}
}

func (e *Engine) evDown(i int32) {
	h := e.evHeap
	n := int32(len(h))
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		c := l
		if r := l + 1; r < n && e.evLess(h[r], h[l]) {
			c = r
		}
		if !e.evLess(h[c], h[i]) {
			return
		}
		e.evSwap(i, c)
		i = c
	}
}
