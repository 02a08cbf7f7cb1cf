package noc

import "testing"

// TestRouteTerminates walks every pair and checks the enumerated route
// ends with the local ejection at dst and is cycle-free.
func TestRouteTerminates(t *testing.T) {
	for _, topo := range []Topology{Mesh, Torus} {
		cfg := Config{Width: 4, Height: 3, Topology: topo}.WithDefaults()
		nodes := cfg.Width * cfg.Height
		var path []Hop
		for src := 0; src < nodes; src++ {
			for dst := 0; dst < nodes; dst++ {
				path = cfg.Route(src, dst, path[:0])
				if len(path) > nodes+1 {
					t.Fatalf("%v: route %d->%d has %d hops", topo, src, dst, len(path))
				}
				last := path[len(path)-1]
				if last.Node != dst || last.Port != PortL {
					t.Fatalf("%v: route %d->%d ends at node %d port %s",
						topo, src, dst, last.Node, PortName(last.Port))
				}
				if got, want := len(path)-1, cfg.RouteLen(src, dst); got != want {
					t.Fatalf("%v: route %d->%d: %d link hops, RouteLen says %d", topo, src, dst, got, want)
				}
			}
		}
	}
}

// TestRouteLenMesh pins hand-computed mesh distances: DOR on an open grid
// is the Manhattan metric.
func TestRouteLenMesh(t *testing.T) {
	cfg := Config{Width: 4, Height: 3}
	cases := []struct{ src, dst, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 11, 5}, {3, 8, 5}, {5, 6, 1},
	}
	for _, c := range cases {
		if got := cfg.RouteLen(c.src, c.dst); got != c.want {
			t.Errorf("RouteLen(%d, %d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
	// Torus wrap: 0 -> 3 on a width-4 ring is one west hop, not three east.
	tor := Config{Width: 4, Height: 3, Topology: Torus}
	if got := tor.RouteLen(0, 3); got != 1 {
		t.Errorf("torus RouteLen(0, 3) = %d, want 1", got)
	}
	if got := tor.RouteLen(0, 8); got != 1 {
		t.Errorf("torus RouteLen(0, 8) = %d, want 1", got)
	}
}
