package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"noctg/internal/layout"
	"noctg/internal/noc"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/stochastic"
)

// The hotspot-sharded workload is the scenario of the repository's
// BenchmarkShardScaling: a 16x16 mesh whose 96 stochastic masters (rows
// 0-5) issue reads in a closed loop (one outstanding, then a random think
// time of mean 8 cycles), a weighted slice of them aimed at one private
// memory, the rest spread uniformly. Every transaction crosses the shard
// boundary. The seed is the benchmark's.

const (
	hotspotCores   = 96
	hotspotShards  = 2
	hotspotWarmup  = 2_000 // cycles before the first window
	hotspotWindow  = 1_000 // cycles per Advance call
	hotspotWindows = 8
)

func hotspotSystem(seed int64) (*platform.System, error) {
	dests := make([]ocp.AddrRange, hotspotCores)
	for d := range dests {
		dests[d] = layout.PrivRange(d)
	}
	weights := make([]float64, hotspotCores)
	weights[hotspotCores/2] = 0.03
	scfg := stochastic.Config{
		Dist:         stochastic.Poisson,
		MeanGap:      8,
		ReadFraction: 1,
		Count:        1 << 30,
		Seed:         seed,
		Spatial: &stochastic.Spatial{
			Pattern:        stochastic.Hotspot,
			W:              12,
			H:              8,
			Dests:          dests,
			HotspotWeights: weights,
		},
	}
	return platform.Build(platform.Config{
		Cores:        hotspotCores,
		Interconnect: platform.XPipes,
		NoC:          noc.Config{Width: 16, Height: 16},
		Kernel:       platform.KernelEvent,
		Shards:       hotspotShards,
	}, func(_ *platform.System, id int, port ocp.MasterPort) platform.Master {
		return stochastic.New(id, scfg, port)
	})
}

func runHotspotSharded(seed int64, tr *tracer) (*rep, error) {
	r := &rep{}
	defer tr.enter("rep")()

	t := time.Now()
	sys, err := hotspotSystem(seed)
	build := tr.since("platform.build", t)
	if err != nil {
		return nil, err
	}
	// Part 0 is the build and the warmup; each window is a part of its own.
	advance := func(name string, cycles uint64) error {
		t := time.Now()
		n, err := sys.Sharded.Advance(cycles)
		d := tr.since(name, t)
		r.parts = append(r.parts, part{wall: d, simTime: d, simCycles: n})
		if err != nil {
			return err
		}
		r.check(n == cycles, "hotspot window ran %d of %d cycles", n, cycles)
		return nil
	}
	if err := advance("shard.warmup", hotspotWarmup); err != nil {
		return nil, err
	}
	r.parts[0].setup = build
	for i := 0; i < hotspotWindows; i++ {
		if err := advance("shard.advance", hotspotWindow); err != nil {
			return nil, err
		}
	}

	sys.Stats.Sync(sys.Sharded.Cycle())
	snap := sys.Stats.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		return nil, err
	}
	r.digest = fmt.Sprintf("%x", sha256.Sum256(data))[:16]
	r.count("noc.flits_routed", float64(snap.Counters["noc/flits_routed"]))
	r.count("noc.router_cycles", float64(sys.Net.Nodes())*float64(sys.Sharded.Cycle()))
	for i := 0; i < hotspotCores; i++ {
		r.count("stochastic.transactions", float64(snap.Counters[fmt.Sprintf("master%d/transactions", i)]))
	}
	return r, nil
}
