package noc

import "testing"

// allocRig is a 3×3 mesh without NIs: flits enter the centre router (4)
// through its neighbours' links and pile up in the input FIFOs of the
// routers they reach, whose local ports have no sink. Every movement is
// therefore visible as a FIFO occupancy after each cycle.
func allocRig() *Network {
	return New(Config{Width: 3, Height: 3, BufferFlits: 8}, func() uint64 { return 0 })
}

// inject parks a whole packet in the centre router's input FIFO fed by
// neighbour from (leaving through its output dir), stamped as arrived at
// cycle 0.
func inject(n *Network, from, dir int, p *packet) {
	for i := 0; i < p.length; i++ {
		n.routers[from].deliver(dir, vcReq, flit{pkt: p, idx: i}, 0)
	}
}

// occ returns the request-VC occupancy of a router input FIFO.
func occ(n *Network, node, port int) int { return n.routers[node].in[port][vcReq].len() }

// TestAllocatorSameCycleTiming pins, by hand-computed cycle, two orderings
// of the switch allocator that per-cycle bookkeeping must not perturb.
func TestAllocatorSameCycleTiming(t *testing.T) {
	// A tail leaving through an earlier output (N) exposes the next
	// packet's head behind it in the same FIFO; a later output (S) grants
	// that head in the same cycle. Centre router 4's west input holds
	// A (dst 1, north) then B (dst 7, south), two flits each.
	t.Run("exposed head leaves through a later output", func(t *testing.T) {
		n := allocRig()
		a := &packet{src: 3, dst: 1, length: 2}
		b := &packet{src: 3, dst: 7, length: 2}
		inject(n, 3, portE, a)
		inject(n, 3, portE, b)
		// cycle: flits in 4's west input, 1's south input, 7's north input.
		want := [][3]int{
			1: {3, 1, 0}, // A head north; S sees A's tail at the front
			2: {1, 2, 1}, // A tail north, then B head south — same cycle
			3: {0, 2, 2}, // B tail south
		}
		for c := uint64(1); c < uint64(len(want)); c++ {
			n.Tick(c)
			got := [3]int{occ(n, 4, portW), occ(n, 1, portS), occ(n, 7, portN)}
			if got != want[c] {
				t.Fatalf("after cycle %d: occupancies (west in, north out, south out) = %v, want %v", c, got, want[c])
			}
		}
		if f := n.routers[7].in[portN][vcReq].front(); f.pkt != b || !f.head() {
			t.Fatal("router 7 did not receive B's head first")
		}
	})

	// A head blocked behind a held wormhole is granted on the first cycle
	// the output is free again: the tail of the owner passes in cycle 3
	// (the link carries one flit per cycle), the waiting head follows in
	// cycle 4. P (3 flits, from the west) wins output E in cycle 1 because
	// Q's head (from the south) only arrives in cycle 1; both go to node 5.
	t.Run("blocked head granted after the tail passes", func(t *testing.T) {
		n := allocRig()
		p := &packet{src: 3, dst: 5, length: 3}
		q := &packet{src: 7, dst: 5, length: 2}
		inject(n, 3, portE, p)
		for i := 0; i < q.length; i++ {
			n.routers[7].deliver(portN, vcReq, flit{pkt: q, idx: i}, 1)
		}
		// cycle: flits in 4's west input, 4's south input, 5's west input.
		want := [][3]int{
			1: {2, 2, 1}, // P head east; Q's head arrived this cycle
			2: {1, 2, 2},
			3: {0, 2, 3}, // P tail east frees the wormhole
			4: {0, 1, 4}, // Q head granted on the next cycle
			5: {0, 0, 5},
		}
		for c := uint64(1); c < uint64(len(want)); c++ {
			n.Tick(c)
			got := [3]int{occ(n, 4, portW), occ(n, 4, portS), occ(n, 5, portW)}
			if got != want[c] {
				t.Fatalf("after cycle %d: occupancies (west in, south in, east out) = %v, want %v", c, got, want[c])
			}
		}
		dst := &n.routers[5].in[portW][vcReq]
		for i, wantPkt := range []*packet{p, p, p, q, q} {
			if f := dst.buf[(dst.head+i)%len(dst.buf)]; f.pkt != wantPkt {
				t.Fatalf("flit %d at node 5 belongs to the wrong packet — wormholes interleaved", i)
			}
		}
	})
}

// TestVCRoundRobinExact pins the output VC arbiter on one output with two
// live out-VCs: a request packet A (4 flits, from the west) and a response
// packet B (2 flits, from the south) converge on the centre router's east
// output, both headed to node 5. The arbiter alternates between the two
// live VCs and steps over the dead dateline VCs (2, 3) when it wraps: after
// serving resp (VC 1) the pointer sits at VC 2, and the next grant goes to
// req (VC 0). Once B's tail has passed, A owns the link every cycle.
func TestVCRoundRobinExact(t *testing.T) {
	n := allocRig()
	a := &packet{src: 3, dst: 5, length: 4}
	b := &packet{src: 7, dst: 5, length: 2, isResp: true}
	inject(n, 3, portE, a)
	for i := 0; i < b.length; i++ {
		n.routers[7].deliver(portN, vcResp, flit{pkt: b, idx: i}, 0)
	}
	// rrVC of router 4's east output after each cycle.
	wantRR := []int{1: 1, 2: 2, 3: 1, 4: 2, 5: 1, 6: 1}
	for c := uint64(1); c < uint64(len(wantRR)); c++ {
		n.Tick(c)
		if got := n.routers[4].rrVC[portE]; got != wantRR[c] {
			t.Fatalf("after cycle %d: rrVC[E] = %d, want %d", c, got, wantRR[c])
		}
	}
	// The cycle each flit left router 4 is its arrival stamp at node 5.
	for _, tc := range []struct {
		name string
		vc   int
		pkt  *packet
		want []uint64
	}{
		{"req A", vcReq, a, []uint64{1, 3, 5, 6}},
		{"resp B", vcResp, b, []uint64{2, 4}},
	} {
		q := &n.routers[5].in[portW][tc.vc]
		if q.len() != len(tc.want) {
			t.Fatalf("%s: node 5 holds %d flits, want %d", tc.name, q.len(), len(tc.want))
		}
		for i, want := range tc.want {
			f := q.buf[(q.head+i)%len(q.buf)]
			if f.pkt != tc.pkt || f.idx != i || f.arrived != want {
				t.Errorf("%s flit %d: left router 4 in cycle %d (idx %d), want cycle %d", tc.name, i, f.arrived, f.idx, want)
			}
		}
	}
}
