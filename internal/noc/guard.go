package noc

import (
	"fmt"

	"noctg/internal/guard"
)

// This file implements the fabric side of the guard layer: progress/live
// probes, the conservation invariant scan, and the structured diagnostic
// dump. The scan is allocation-free after its first call (the per-domain
// tally scratch is cached on the Network) so the single-engine watchdog
// can run it on a cycle cadence; message formatting happens only when an
// invariant is actually broken.
//
// Validity: on an unpartitioned network every invariant holds at any
// inter-cycle point. On a partitioned network the scan must run at a
// quiescent segment boundary (workers joined, import rings drained) —
// exactly where the shard runner calls it.

// RetiredPackets returns the monotone count of packets retired to their
// pools since construction — the guard layer's progress signal. Unlike the
// registry stats it is never reset. Valid at quiescent points.
func (n *Network) RetiredPackets() uint64 {
	v := n.st.retired
	for _, rg := range n.regions {
		v += rg.st.retired
	}
	return v
}

// LivePackets returns the number of packets currently in flight across all
// pool domains. Valid at quiescent points.
func (n *Network) LivePackets() int {
	v := n.st.livePackets
	for _, rg := range n.regions {
		v += rg.st.livePackets
	}
	return v
}

// Retired returns the region's own monotone retirement count. Per-domain
// counts can lag or lead the packets the region issued (retirement happens
// where the packet dies), but their sum is the global count — which is all
// the shard runner's SPMD deadlock check sums them for.
func (rg *Region) Retired() uint64 { return rg.st.retired }

// Live returns the region pool's outstanding packet count. Per-domain
// values can go negative (a packet may retire in a different domain than
// it was issued from); only the sum across domains is meaningful.
func (rg *Region) Live() int { return rg.st.livePackets }

// domainTally accumulates one pool domain's observed flit and packet
// references during a scan.
type domainTally struct {
	flits int // flits resident in the domain's router FIFOs
	refs  int // live packet references (tail flits + NI-held packets)
}

// countTails returns the number of tail flits in the FIFO. Each live
// packet is reachable through exactly one tail reference (its other flits
// ride the same packet pointer), which is what makes pool mass countable.
func (f *fifo) countTails() int {
	t := 0
	for i := 0; i < f.n; i++ {
		if f.buf[(f.head+i)%len(f.buf)].tail() {
			t++
		}
	}
	return t
}

// scanTally returns the cached tally scratch sized for the current
// partition (index 0 is the base domain, 1+i region i).
func (n *Network) scanTally() []domainTally {
	want := 1 + len(n.regions)
	if cap(n.guardTally) < want {
		n.guardTally = make([]domainTally, want)
	}
	n.guardTally = n.guardTally[:want]
	for i := range n.guardTally {
		n.guardTally[i] = domainTally{}
	}
	return n.guardTally
}

// domainIndex maps a pool domain to its tally slot.
func (n *Network) domainIndex(st *shardState) int {
	if st == &n.st {
		return 0
	}
	return 1 + st.index
}

// CheckInvariants scans the conservation invariants and returns the first
// violation found, or nil. The returned violation's Cycle is left 0 for
// the caller to stamp (the scan has no cycle source of its own at
// quiescent points).
//
// Invariants checked:
//
//   - flit conservation: each domain's residentFlits equals its routers'
//     total FIFO occupancy;
//   - router bookkeeping: each router's flit count equals its FIFO
//     occupancy, its switch-request masks equal the masks recomputed
//     from the head flits at its FIFO fronts, its live-VC masks mark
//     exactly the out-VCs with an owner or a request, and its cached
//     neighbour links match the topology;
//   - link counters: each cut link's per-VC pushed/popped/credit counters
//     are mutually consistent and account exactly for the FIFO they feed
//     (ring empty at boundaries);
//   - pool mass: live packet references (tail flits in FIFOs plus packets
//     held by NIs) equal the pools' outstanding count, and pooled packets
//     all belong to their pool.
func (n *Network) CheckInvariants() *guard.Violation {
	tally := n.scanTally()
	for _, r := range n.routers {
		d := &tally[n.domainIndex(r.st)]
		flits := 0
		var req [numPorts][numVC]uint16
		for p := 0; p < numPorts; p++ {
			for v := 0; v < numVC; v++ {
				q := &r.in[p][v]
				flits += q.len()
				d.refs += q.countTails()
				if !q.empty() && q.front().head() {
					o := n.cfg.NextPort(r.id, q.front().pkt.dst)
					req[o][r.outVC(p, v, o)] |= reqBit(p, v)
				}
			}
		}
		d.flits += flits
		if v := routerViolation(r, flits, &req); v != nil {
			v.Shard = n.domainIndex(r.st) - 1
			return v
		}
	}
	for _, m := range n.masters {
		if m.pkt != nil {
			tally[n.domainIndex(m.st)].refs++
		}
	}
	for _, s := range n.slaves {
		d := &tally[n.domainIndex(s.st)]
		d.refs += len(s.queue) - s.qhead
		if s.current != nil {
			d.refs++
		}
		if s.out != nil {
			d.refs++
		}
	}

	// Flit conservation per domain.
	if n.st.residentFlits != tally[0].flits {
		return conservationViolation(-1, n.st.residentFlits, tally[0].flits)
	}
	for _, rg := range n.regions {
		if rg.st.residentFlits != tally[1+rg.index].flits {
			return conservationViolation(rg.index, rg.st.residentFlits, tally[1+rg.index].flits)
		}
	}

	// Cut-link counters (partitioned networks only). At a boundary the
	// export ring is drained and the exporter's credit snapshot matches the
	// importer's pop count; the push/pop difference is exactly the fed
	// FIFO's occupancy.
	for _, rg := range n.regions {
		for _, cl := range rg.exports {
			if cl.ringHead != cl.ringTail {
				return &guard.Violation{Kind: guard.KindConservation, Shard: rg.index,
					Msg: fmt.Sprintf("cut link into node %d port %s: %d flits left in the export ring at a boundary",
						cl.dst.id, portNames[cl.inPort], cl.ringTail-cl.ringHead)}
			}
			for vc := 0; vc < numVC; vc++ {
				inQ := cl.dst.in[cl.inPort][vc].len()
				switch {
				case cl.popped[vc] > cl.pushed[vc]:
					return linkViolation(cl, vc, "more flits popped than pushed")
				case cl.credit[vc] != cl.popped[vc]:
					return linkViolation(cl, vc, "credit snapshot out of date at a boundary")
				case cl.pushed[vc]-cl.popped[vc] != uint64(inQ):
					return linkViolation(cl, vc, fmt.Sprintf("counters imply %d in-flight flits but the fed FIFO holds %d",
						cl.pushed[vc]-cl.popped[vc], inQ))
				}
			}
		}
	}

	// Pool mass: global live references vs. global outstanding count, and
	// per-pool home integrity.
	refs, live := 0, 0
	for i := range tally {
		refs += tally[i].refs
	}
	live += n.st.livePackets
	for _, rg := range n.regions {
		live += rg.st.livePackets
	}
	if refs != live {
		return &guard.Violation{Kind: guard.KindPoolMass, Shard: -1,
			Msg: fmt.Sprintf("pools report %d packets in flight but %d live references exist "+
				"(leaked or double-recycled packets)", live, refs)}
	}
	if v := poolHomeViolation(&n.st, -1); v != nil {
		return v
	}
	for _, rg := range n.regions {
		if v := poolHomeViolation(&rg.st, rg.index); v != nil {
			return v
		}
	}
	return nil
}

func conservationViolation(shard, resident, observed int) *guard.Violation {
	return &guard.Violation{Kind: guard.KindConservation, Shard: shard,
		Msg: fmt.Sprintf("domain accounts %d resident flits but its router FIFOs hold %d "+
			"(flits created or destroyed in flight)", resident, observed)}
}

// routerViolation compares a router's cached flit count, request masks,
// live-VC masks and neighbour links with the values recomputed from its
// FIFOs (flits, req), its wormhole owners and the topology.
func routerViolation(r *router, flits int, req *[numPorts][numVC]uint16) *guard.Violation {
	if r.flits != flits {
		return &guard.Violation{Kind: guard.KindConservation,
			Msg: fmt.Sprintf("router %d counts %d flits but its FIFOs hold %d", r.id, r.flits, flits)}
	}
	for o := 0; o < numPorts; o++ {
		for vc := 0; vc < numVC; vc++ {
			if r.req[o][vc] != req[o][vc] {
				return &guard.Violation{Kind: guard.KindConservation,
					Msg: fmt.Sprintf("router %d output %s vc %s: request mask %#x, but its FIFO fronts request %#x",
						r.id, portNames[o], vcNames[vc], r.req[o][vc], req[o][vc])}
			}
			want := r.alloc[o][vc].in >= 0 || req[o][vc] != 0
			if got := r.live[o]&(1<<vc) != 0; got != want {
				return &guard.Violation{Kind: guard.KindConservation,
					Msg: fmt.Sprintf("router %d output %s vc %s: live bit %t, but owner %d and request mask %#x",
						r.id, portNames[o], vcNames[vc], got, r.alloc[o][vc].in, req[o][vc])}
			}
		}
		var nb *router
		if o != portL && r.n.hasLink(r, o) {
			nb = r.n.neighbor(r.id, o)
		}
		if r.nb[o] != nb {
			return &guard.Violation{Kind: guard.KindConservation,
				Msg: fmt.Sprintf("router %d output %s: cached neighbour link does not match the topology", r.id, portNames[o])}
		}
	}
	return nil
}

func linkViolation(cl *cutLink, vc int, what string) *guard.Violation {
	return &guard.Violation{Kind: guard.KindConservation, Shard: -1,
		Msg: fmt.Sprintf("cut link into node %d port %s vc %s: %s (pushed %d, popped %d, credit %d)",
			cl.dst.id, portNames[cl.inPort], vcNames[vc], what, cl.pushed[vc], cl.popped[vc], cl.credit[vc])}
}

func poolHomeViolation(st *shardState, shard int) *guard.Violation {
	for _, p := range st.pktPool {
		if p.home != st {
			return &guard.Violation{Kind: guard.KindPoolMass, Shard: shard,
				Msg: "a pooled packet belongs to a different pool domain"}
		}
	}
	return nil
}

// Diagnose captures the structured dump attached to violations: every
// non-empty router FIFO, every non-idle master, cut-link counters and
// pool accounting. It allocates freely — it runs once, after a violation.
// The shard runner appends per-shard window state on top.
func (n *Network) Diagnose(cycle uint64) *guard.Diagnostic {
	d := &guard.Diagnostic{
		Cycle:       cycle,
		LivePackets: n.LivePackets(),
	}
	d.ResidentFlits = n.st.residentFlits
	for _, rg := range n.regions {
		d.ResidentFlits += rg.st.residentFlits
	}
	for _, r := range n.routers {
		for p := 0; p < numPorts; p++ {
			for v := 0; v < numVC; v++ {
				q := &r.in[p][v]
				if q.empty() {
					continue
				}
				head := q.front()
				age := uint64(0)
				if cycle > head.arrived {
					age = cycle - head.arrived
				}
				d.Queues = append(d.Queues, guard.QueueDiag{
					Node: r.id, Port: portNames[p], VC: vcNames[v], Flits: q.len(),
					HeadSrc: head.pkt.src, HeadDst: head.pkt.dst, HeadAge: age,
				})
			}
		}
	}
	stateNames := map[masterNIState]string{niIdle: "idle", niInjecting: "injecting", niInjected: "injected"}
	for _, m := range n.masters {
		if m.idle() {
			continue
		}
		state := stateNames[m.state]
		if m.busyRead {
			state += "+awaiting-read"
		}
		d.Masters = append(d.Masters, guard.MasterDiag{Node: m.node, State: state, ReqStart: m.reqStart})
	}
	for _, rg := range n.regions {
		for _, cl := range rg.exports {
			for vc := 0; vc < numVC; vc++ {
				if cl.pushed[vc] == 0 && cl.popped[vc] == 0 {
					continue
				}
				d.Links = append(d.Links, guard.LinkDiag{
					Node: cl.dst.id, Port: portNames[cl.inPort], VC: vcNames[vc],
					Pushed: cl.pushed[vc], Popped: cl.popped[vc], Credit: cl.credit[vc],
					Ring: cl.ringTail - cl.ringHead,
				})
			}
		}
	}
	addPool := func(st *shardState, domain int) {
		returns := 0
		for _, ret := range st.returns {
			returns += len(ret)
		}
		d.Pools = append(d.Pools, guard.PoolDiag{
			Domain: domain, Live: st.livePackets, Pooled: len(st.pktPool), Returns: returns,
		})
	}
	addPool(&n.st, -1)
	for _, rg := range n.regions {
		addPool(&rg.st, rg.index)
	}
	return d
}
