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
