package noc

import (
	"testing"

	"noctg/internal/guard"
	"noctg/internal/ocp"
	"noctg/internal/simtest"
)

// TestCheckInvariantsRouterBookkeeping corrupts each piece of a router's
// cached state — its flit count, switch-request masks, live-VC masks and
// neighbour links — on a fabric with traffic in flight, and expects the
// conservation scan to report it.
func TestCheckInvariantsRouterBookkeeping(t *testing.T) {
	corruptions := map[string]func(r *router){
		"flit count":      func(r *router) { r.flits++ },
		"flipped request": func(r *router) { r.req[portN][vcResp] ^= reqBit(portW, vcResp) },
		"lost request": func(r *router) {
			for o := range r.req {
				for vc := range r.req[o] {
					r.req[o][vc] = 0
				}
			}
		},
		// The mesh never occupies a dateline VC, so this bit has neither an
		// owner nor a request.
		"stale live bit":  func(r *router) { r.live[portN] |= 1 << vcRespDL },
		"lost live bit":   func(r *router) { r.live = [numPorts]uint8{} },
		"wrong neighbour": func(r *router) { r.nb[portN] = r },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			script := [][]simtest.Step{{{Gap: 0, Req: ocp.Request{Cmd: ocp.BurstRead, Addr: 0x1000, Burst: 4}}}}
			e, n, _, _ := rig(t, Config{}, []int{0}, script)
			// Run until a router holds a requesting head at a FIFO front.
			var busy *router
			for c := 0; c < 100 && busy == nil; c++ {
				e.Step()
				for _, r := range n.routers {
					if r.flits > 0 && r.req != [numPorts][numVC]uint16{} {
						busy = r
						break
					}
				}
			}
			if busy == nil {
				t.Fatal("no router ever held a requesting head flit")
			}
			if v := n.CheckInvariants(); v != nil {
				t.Fatalf("clean fabric reports %v", v)
			}
			corrupt(busy)
			v := n.CheckInvariants()
			if v == nil || v.Kind != guard.KindConservation {
				t.Fatalf("corrupted %s: got %v, want a %s violation", name, v, guard.KindConservation)
			}
		})
	}
}
