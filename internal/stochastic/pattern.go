package stochastic

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"noctg/internal/ocp"
)

// Pattern selects the spatial destination pattern of a generator: which
// node each transaction targets, as opposed to Dist, which only shapes the
// temporal gaps between transactions. The patterns are the classic NoC
// evaluation set (uniform random, transpose, bit-complement, bit-reverse,
// hotspot, nearest-neighbour), defined over a logical W×H grid of master
// nodes — node i sits at (i mod W, i div W).
type Pattern int

const (
	// UniformRandom draws every destination uniformly from all nodes
	// (excluding the source unless AllowSelf is set).
	UniformRandom Pattern = iota
	// Transpose sends node (x, y) to node (y, x). It requires a square
	// grid and is an involution; diagonal nodes map to themselves
	// regardless of AllowSelf.
	Transpose
	// BitComplement sends node i to node ^i (mod the node count), which
	// must be a power of two. It is an involution and never self-targets.
	BitComplement
	// BitReverse sends node i to the node whose index reverses i's
	// log2(nodes) bits. The node count must be a power of two; it is an
	// involution, and palindromic indices map to themselves regardless of
	// AllowSelf.
	BitReverse
	// Hotspot concentrates a configured fraction of the traffic on
	// weighted hotspot nodes and spreads the remainder uniformly over the
	// unweighted nodes. Explicit weights override self-exclusion: a
	// weighted node draws itself with its configured probability even
	// without AllowSelf (the remainder mass still avoids the source).
	Hotspot
	// NearestNeighbor draws uniformly among the source's grid neighbours
	// (with wrap-around on the logical grid, so every node has the same
	// neighbour count).
	NearestNeighbor
)

func (p Pattern) String() string {
	switch p {
	case UniformRandom:
		return "uniform"
	case Transpose:
		return "transpose"
	case BitComplement:
		return "bitcomp"
	case BitReverse:
		return "bitrev"
	case Hotspot:
		return "hotspot"
	case NearestNeighbor:
		return "neighbor"
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// ParsePattern converts a flag or JSON value into a Pattern.
func ParsePattern(s string) (Pattern, error) {
	for p := UniformRandom; p <= NearestNeighbor; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("stochastic: unknown pattern %q (want uniform, transpose, bitcomp, bitrev, hotspot or neighbor)", s)
}

// Deterministic reports whether the pattern maps each source to one fixed
// destination (so a generator's destination sequence is constant).
func (p Pattern) Deterministic() bool {
	return p == Transpose || p == BitComplement || p == BitReverse
}

// MaxGridDim bounds each logical grid dimension so hostile scenario files
// cannot make Validate (or callers building per-node destination tables)
// allocate unbounded memory.
const MaxGridDim = 1024

// Spatial describes a spatial traffic pattern over a logical W×H grid of
// master nodes. Dests maps each logical node to the address range its
// traffic lands in (typically node d's private memory through the
// platform's address map), so a pattern draw becomes an OCP address.
type Spatial struct {
	// Pattern picks the destination function.
	Pattern Pattern
	// W, H are the logical grid dimensions; W·H is the node count.
	W, H int
	// Dests[d] is the target address range of logical node d. Its length
	// must equal W·H.
	Dests []ocp.AddrRange
	// HotspotWeights gives, per node, the fraction of all traffic pulled
	// to that node (Hotspot only). The weights must lie in [0, 1] and sum
	// to at most 1; the remainder is spread uniformly over the
	// zero-weight nodes.
	HotspotWeights []float64
	// AllowSelf permits a randomized pattern to draw the source itself.
	// Deterministic patterns (Transpose, BitReverse) ignore it on their
	// fixed points.
	AllowSelf bool
}

// hotspotSumTol absorbs float accumulation error when checking that the
// hotspot weights do not exceed unit mass.
const hotspotSumTol = 1e-9

// Validate checks the pattern's structural constraints. It never panics,
// whatever the field values — the scenario fuzz target feeds it garbage.
func (s Spatial) Validate() error {
	if s.W < 1 || s.H < 1 {
		return fmt.Errorf("stochastic: spatial grid %dx%d must be at least 1x1", s.W, s.H)
	}
	if s.W > MaxGridDim || s.H > MaxGridDim {
		return fmt.Errorf("stochastic: spatial grid %dx%d exceeds %dx%d", s.W, s.H, MaxGridDim, MaxGridDim)
	}
	nodes := s.W * s.H
	if nodes < 2 {
		return fmt.Errorf("stochastic: spatial grid %dx%d needs at least 2 nodes", s.W, s.H)
	}
	if len(s.Dests) != nodes {
		return fmt.Errorf("stochastic: %d destination ranges for %d nodes", len(s.Dests), nodes)
	}
	for d, r := range s.Dests {
		if r.Size < 4 {
			return fmt.Errorf("stochastic: destination %d range %v holds no word", d, r)
		}
	}
	if s.Pattern < UniformRandom || s.Pattern > NearestNeighbor {
		return fmt.Errorf("stochastic: invalid pattern %v", s.Pattern)
	}
	if s.Pattern == Transpose && s.W != s.H {
		return fmt.Errorf("stochastic: transpose needs a square grid, got %dx%d", s.W, s.H)
	}
	if (s.Pattern == BitComplement || s.Pattern == BitReverse) && nodes&(nodes-1) != 0 {
		return fmt.Errorf("stochastic: %v needs a power-of-two node count, got %d", s.Pattern, nodes)
	}
	if s.Pattern == Hotspot {
		if len(s.HotspotWeights) == 0 {
			return fmt.Errorf("stochastic: hotspot pattern needs weights")
		}
		if len(s.HotspotWeights) > nodes {
			return fmt.Errorf("stochastic: %d hotspot weights for %d nodes", len(s.HotspotWeights), nodes)
		}
		sum, cold := 0.0, nodes-len(s.HotspotWeights)
		for n, w := range s.HotspotWeights {
			if math.IsNaN(w) || w < 0 || w > 1 {
				return fmt.Errorf("stochastic: hotspot weight %g of node %d outside [0,1]", w, n)
			}
			if w == 0 {
				cold++
			}
			sum += w
		}
		if sum > 1+hotspotSumTol {
			return fmt.Errorf("stochastic: hotspot weights sum to %g > 1", sum)
		}
		if sum < 1-hotspotSumTol {
			// The remainder mass needs a cold node for *every* source: a
			// lone cold node cannot receive its own remainder draws, so
			// without AllowSelf it would leave that node's draw set empty.
			if cold == 0 {
				return fmt.Errorf("stochastic: hotspot weights sum to %g < 1 with no unweighted node for the remainder", sum)
			}
			if cold == 1 && !s.AllowSelf {
				return fmt.Errorf("stochastic: hotspot weights sum to %g < 1 with a single unweighted node, which cannot draw its own remainder without AllowSelf", sum)
			}
		}
	} else if len(s.HotspotWeights) != 0 {
		return fmt.Errorf("stochastic: pattern %v takes no hotspot weights", s.Pattern)
	}
	return nil
}

// Sampler is the compiled form of a Spatial: per-source destination tables
// built once, so the per-transaction draw allocates nothing.
type Sampler struct {
	spec  Spatial
	nodes int
	// fixed[src] is the destination of a deterministic pattern, -1 for
	// randomized patterns.
	fixed []int
	// pool is the uniform or hotspot draw set (every node, or the cold
	// nodes) before a source drops itself: source src draws from pool
	// without index poolAt[src] (-1 when src keeps the whole pool). Every
	// master compiles its own sampler, so one shared set per sampler, not
	// one per source, keeps it at O(nodes) memory.
	pool   []int
	poolAt []int
	// neighbors[src] lists the nearest-neighbour draw set of src.
	neighbors [][]int
	// hotNodes/hotCum hold the weighted hotspot nodes and the cumulative
	// weight ladder; hotSum is the total hotspot mass.
	hotNodes []int
	hotCum   []float64
	hotSum   float64
}

// NewSampler validates and compiles a spatial pattern.
func NewSampler(s Spatial) (*Sampler, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	nodes := s.W * s.H
	sp := &Sampler{spec: s, nodes: nodes}
	switch s.Pattern {
	case Transpose:
		sp.fixed = make([]int, nodes)
		for src := range sp.fixed {
			x, y := src%s.W, src/s.W
			sp.fixed[src] = x*s.W + y
		}
	case BitComplement:
		sp.fixed = make([]int, nodes)
		for src := range sp.fixed {
			sp.fixed[src] = ^src & (nodes - 1)
		}
	case BitReverse:
		shift := bits.UintSize - bits.Len(uint(nodes-1))
		sp.fixed = make([]int, nodes)
		for src := range sp.fixed {
			sp.fixed[src] = int(bits.Reverse(uint(src)) >> shift)
		}
	case UniformRandom, Hotspot:
		if s.Pattern == Hotspot {
			for n, w := range s.HotspotWeights {
				if w > 0 {
					sp.hotNodes = append(sp.hotNodes, n)
					sp.hotSum += w
					sp.hotCum = append(sp.hotCum, sp.hotSum)
				}
			}
		}
		sp.poolAt = make([]int, nodes)
		for d := 0; d < nodes; d++ {
			sp.poolAt[d] = -1
			if d < len(s.HotspotWeights) && s.HotspotWeights[d] > 0 {
				continue // hotspot mass; the pool is the cold remainder
			}
			if !s.AllowSelf {
				sp.poolAt[d] = len(sp.pool)
			}
			sp.pool = append(sp.pool, d)
		}
	case NearestNeighbor:
		sp.neighbors = make([][]int, nodes)
		for src := range sp.neighbors {
			sp.neighbors[src] = s.neighborSet(src)
		}
	}
	if sp.fixed == nil {
		for src := 0; src < nodes; src++ {
			if sp.drawCount(src) == 0 && !(s.Pattern == Hotspot && sp.hotSum >= 1-hotspotSumTol) {
				return nil, fmt.Errorf("stochastic: node %d of pattern %v has no destination to draw", src, s.Pattern)
			}
		}
	}
	return sp, nil
}

// neighborSet enumerates the distinct nearest neighbours of one source node.
func (s Spatial) neighborSet(src int) []int {
	var set []int
	x, y := src%s.W, src/s.W
	for _, nb := range [4][2]int{
		{x, (y - 1 + s.H) % s.H},
		{(x + 1) % s.W, y},
		{x, (y + 1) % s.H},
		{(x - 1 + s.W) % s.W, y},
	} {
		d := nb[1]*s.W + nb[0]
		if d == src && !s.AllowSelf {
			continue
		}
		dup := false
		for _, e := range set {
			dup = dup || e == d
		}
		if !dup {
			set = append(set, d)
		}
	}
	return set
}

// drawCount returns the size of src's randomized draw set.
func (sp *Sampler) drawCount(src int) int {
	if sp.neighbors != nil {
		return len(sp.neighbors[src])
	}
	if sp.poolAt[src] >= 0 {
		return len(sp.pool) - 1
	}
	return len(sp.pool)
}

// draw returns the k-th destination of src's draw set (in ascending node
// order, except for nearest neighbours: N, E, S, W).
func (sp *Sampler) draw(src, k int) int {
	if sp.neighbors != nil {
		return sp.neighbors[src][k]
	}
	if skip := sp.poolAt[src]; skip >= 0 && k >= skip {
		k++
	}
	return sp.pool[k]
}

// Nodes returns the logical node count.
func (sp *Sampler) Nodes() int { return sp.nodes }

// Dest draws the destination node for one transaction from src. It is
// deterministic given the rng state and performs no allocation.
func (sp *Sampler) Dest(src int, rng *rand.Rand) int {
	if src < 0 || src >= sp.nodes {
		panic(fmt.Sprintf("stochastic: source %d outside %d-node grid", src, sp.nodes))
	}
	if sp.fixed != nil {
		return sp.fixed[src]
	}
	if sp.spec.Pattern == Hotspot {
		if u := rng.Float64(); u < sp.hotSum {
			for i, c := range sp.hotCum {
				if u < c {
					return sp.hotNodes[i]
				}
			}
			return sp.hotNodes[len(sp.hotNodes)-1]
		}
		if n := sp.drawCount(src); n > 0 {
			return sp.draw(src, rng.Intn(n))
		}
		// Weights sum to 1 but the draw landed in the float tail: fold it
		// onto the last hotspot.
		return sp.hotNodes[len(sp.hotNodes)-1]
	}
	return sp.draw(src, rng.Intn(sp.drawCount(src)))
}

// Range returns the address range of logical node d.
func (sp *Sampler) Range(d int) ocp.AddrRange { return sp.spec.Dests[d] }
