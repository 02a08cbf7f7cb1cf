// Package platform assembles complete MPARM-like systems: N master devices
// (miniARM cores, traffic generators, or baseline generators), an
// interconnect (AMBA AHB-style bus or ×pipes-style NoC), per-core private
// memories, the shared memory and the hardware semaphore bank.
//
// Masters are supplied through a factory so that processor models and TG
// devices are interchangeable behind their OCP ports — the exchange depicted
// in the paper's Figure 1.
package platform

import (
	"fmt"

	"noctg/internal/amba"
	"noctg/internal/cache"
	"noctg/internal/cpu"
	"noctg/internal/layout"
	"noctg/internal/mem"
	"noctg/internal/noc"
	"noctg/internal/ocp"
	"noctg/internal/shard"
	"noctg/internal/sim"
)

// Interconnect selects the fabric under evaluation.
type Interconnect int

const (
	// AMBA is the shared-bus reference interconnect (Table 2).
	AMBA Interconnect = iota
	// XPipes is the packet-switched mesh NoC.
	XPipes
)

func (i Interconnect) String() string {
	switch i {
	case AMBA:
		return "amba"
	case XPipes:
		return "xpipes"
	}
	return fmt.Sprintf("Interconnect(%d)", int(i))
}

// Master is a device that drives an OCP master port and eventually finishes.
type Master interface {
	sim.Device
	Done() bool
}

// KernelMode selects the simulation kernel for a platform.
type KernelMode int

const (
	// KernelAuto picks the event-driven kernel for TG-replay platforms
	// (BuildTG, BuildClone) and the strict kernel everywhere else — in
	// particular for ARM reference runs, whose reported ARM-vs-TG speedups
	// must not be inflated by kernel tricks.
	KernelAuto KernelMode = iota
	// KernelStrict ticks every device on every cycle.
	KernelStrict
	// KernelEvent ticks only the devices whose scheduled wake is due each
	// cycle and jumps spans in which every device sleeps; per-cycle cost
	// scales with the awake set, not the core count. The engine silently
	// falls back to strict ticking when a registered device does not
	// implement sim.Sleeper (e.g. miniARM cores).
	KernelEvent
)

func (k KernelMode) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelStrict:
		return "strict"
	case KernelEvent:
		return "event"
	}
	return fmt.Sprintf("KernelMode(%d)", int(k))
}

// ParseKernel converts a -kernel flag value into a KernelMode.
func ParseKernel(s string) (KernelMode, error) {
	switch s {
	case "auto", "":
		return KernelAuto, nil
	case "strict":
		return KernelStrict, nil
	case "event":
		return KernelEvent, nil
	}
	return 0, fmt.Errorf("platform: unknown kernel %q (want auto, strict or event)", s)
}

// SimKernel maps a KernelMode onto the engine's kernel, resolving
// KernelAuto with the given default.
func (k KernelMode) SimKernel(auto sim.Kernel) sim.Kernel {
	switch k {
	case KernelStrict:
		return sim.KernelStrict
	case KernelEvent:
		return sim.KernelEvent
	}
	return auto
}

// MasterFactory builds master id over the given port. The system's memories
// are already constructed when the factory runs (so program loaders may use
// them); the port passed in is already wrapped by a trace monitor when
// tracing is enabled.
type MasterFactory func(s *System, id int, port ocp.MasterPort) Master

// Config describes a platform instance.
type Config struct {
	// Cores is the number of master devices.
	Cores int
	// Interconnect picks the fabric (default AMBA).
	Interconnect Interconnect
	// Bus configures the AMBA fabric.
	Bus amba.Config
	// NoC configures the ×pipes fabric. Width×Height must fit
	// Cores + Cores private memories + shared + semaphores; leave zero to
	// auto-size.
	NoC noc.Config
	// MemWaitStates is the intrinsic slave access time (default 1).
	MemWaitStates uint64
	// Clock sets the simulated clock; the zero value is the paper's
	// default 5 ns period.
	Clock sim.Clock
	// Trace enables OCP monitors on every master port.
	Trace bool
	// Kernel selects the simulation kernel. The default, KernelAuto,
	// resolves to the event-driven kernel for TG-replay builders and
	// strict otherwise; strict and event runs produce identical
	// simulated state (the differential tests assert byte-identical sweep
	// artifacts), differing only in host time.
	Kernel KernelMode
	// Shards > 0 partitions an XPipes fabric into that many spatial shards
	// (clamped to the mesh height), each running on its own engine and OS
	// thread under the conservative time-window protocol (see internal/
	// shard). Sharded runs form their own determinism class: every shard
	// count — including 1 — computes byte-identical simulated state, but
	// the class differs from the legacy single-engine run (0), whose
	// flow-control check is tick-order dependent. The bus fabric has no
	// spatial structure to cut; AMBA platforms ignore the knob.
	Shards int
}

func (c Config) withDefaults() Config {
	if c.MemWaitStates == 0 {
		c.MemWaitStates = 1
	}
	return c
}

// idler is the draining interface both fabrics implement.
type idler interface{ Idle() bool }

// System is an assembled platform ready to run.
type System struct {
	Engine   *sim.Engine
	Cfg      Config
	Masters  []Master
	Monitors []*ocp.Monitor // non-nil entries only when Cfg.Trace
	Privs    []*mem.RAM
	Shared   *mem.RAM
	Sems     *mem.SemBank

	Bus *amba.Bus    // set when Interconnect == AMBA
	Net *noc.Network // set when Interconnect == XPipes

	// Sharded is the parallel runner driving the per-shard engines when
	// Cfg.Shards > 0 on an XPipes platform; nil otherwise. When set,
	// Engine aliases shard 0's engine (all shard engines share the clock
	// and agree on the cycle between segments).
	Sharded *shard.Runner

	// Stats is the system's unified stats registry: every stats-exporting
	// device (masters, trace monitors, the fabric) registers its counters
	// and histograms here at build time, under "master<i>/", "port<i>/",
	// "bus/" and "noc/" scopes. Phased measurement syncs, snapshots and
	// resets the whole population at deterministic phase boundaries.
	Stats *sim.Registry

	fabric idler
}

// Build assembles a system with Cores masters produced by factory.
func Build(cfg Config, factory MasterFactory) (*System, error) {
	cfg = cfg.withDefaults()
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("platform: need at least one core, got %d", cfg.Cores)
	}
	if factory == nil {
		return nil, fmt.Errorf("platform: nil master factory")
	}
	e := sim.NewEngine(cfg.Clock)
	e.SetKernel(cfg.Kernel.SimKernel(sim.KernelStrict))
	s := &System{Engine: e, Cfg: cfg}

	s.Shared = mem.NewRAM("shared", layout.SharedBase, layout.SharedSize, cfg.MemWaitStates)
	s.Sems = mem.NewSemBank("sem", layout.SemBase, layout.SemCount, cfg.MemWaitStates)
	for i := 0; i < cfg.Cores; i++ {
		s.Privs = append(s.Privs, mem.NewRAM(fmt.Sprintf("priv%d", i),
			layout.PrivBaseFor(i), layout.PrivSize, cfg.MemWaitStates))
	}

	ports := make([]ocp.MasterPort, cfg.Cores)
	// Sharded XPipes builds replace the single engine with one per region;
	// regions/shardEngines stay nil on every other path.
	var regions []*noc.Region
	var shardEngines []*sim.Engine
	switch cfg.Interconnect {
	case AMBA:
		bus := amba.New(cfg.Bus, e.Cycle)
		for i := 0; i < cfg.Cores; i++ {
			ports[i] = bus.NewMasterPort()
		}
		for i, p := range s.Privs {
			if err := bus.MapSlave(p, layout.PrivRange(i)); err != nil {
				return nil, err
			}
		}
		if err := bus.MapSlave(s.Shared, layout.SharedRange()); err != nil {
			return nil, err
		}
		if err := bus.MapSlave(s.Sems, layout.SemRange()); err != nil {
			return nil, err
		}
		s.Bus = bus
		s.fabric = bus
	case XPipes:
		ncfg := cfg.NoC
		if ncfg.Width == 0 && ncfg.Height == 0 {
			// Auto-size only the dimensions: topology and buffer depth are
			// orthogonal knobs and must survive the sizing.
			m := autoMesh(cfg.Cores)
			ncfg.Width, ncfg.Height = m.Width, m.Height
		}
		// Masters fill from the front, slaves from the back, and one spare
		// node keeps them apart — verify the *effective* geometry (partial
		// zero dimensions default inside noc) before attaching anything,
		// because the mesh itself panics on a double-occupied node.
		ncfg = ncfg.WithDefaults()
		if ncfg.Width*ncfg.Height < cfg.Cores*2+3 {
			return nil, fmt.Errorf("platform: mesh %dx%d too small for %d cores and %d slaves",
				ncfg.Width, ncfg.Height, cfg.Cores, cfg.Cores+2)
		}
		net := noc.New(ncfg, e.Cycle)
		// Placement: masters fill nodes from the start, slaves from the end
		// (private memory i sits opposite its core, shared/semaphores in
		// between) — a plain but deterministic floorplan.
		node := 0
		for i := 0; i < cfg.Cores; i++ {
			ports[i] = net.AttachMaster(node)
			node++
		}
		last := net.Nodes() - 1
		for i, p := range s.Privs {
			if err := net.AttachSlave(last, p, layout.PrivRange(i)); err != nil {
				return nil, err
			}
			last--
		}
		if err := net.AttachSlave(last, s.Shared, layout.SharedRange()); err != nil {
			return nil, err
		}
		last--
		if err := net.AttachSlave(last, s.Sems, layout.SemRange()); err != nil {
			return nil, err
		}
		if last <= node {
			return nil, fmt.Errorf("platform: mesh %dx%d too small for %d cores and %d slaves",
				ncfg.Width, ncfg.Height, cfg.Cores, cfg.Cores+2)
		}
		s.Net = net
		s.fabric = net
		if cfg.Shards > 0 {
			// Partition after every NI is attached and before anything
			// ticks; the partition also switches the fabric to the
			// conservative sharded flow-control discipline.
			regions = net.Partition(cfg.Shards)
			shardEngines = make([]*sim.Engine, len(regions))
			for si := range regions {
				se := sim.NewEngine(cfg.Clock)
				se.SetKernel(cfg.Kernel.SimKernel(sim.KernelStrict))
				shardEngines[si] = se
			}
		}
	default:
		return nil, fmt.Errorf("platform: unknown interconnect %v", cfg.Interconnect)
	}

	// shardOf maps master i to its region's engine: masters occupy fabric
	// nodes 0..Cores-1 in id order (the placement loop above).
	shardOf := func(i int) int {
		if shardEngines == nil {
			return 0
		}
		return s.Net.RegionOf(i)
	}
	shardMasters := make([][]Master, len(regions))
	for i := 0; i < cfg.Cores; i++ {
		eng := e
		if shardEngines != nil {
			eng = shardEngines[shardOf(i)]
		}
		port := ports[i]
		var mon *ocp.Monitor
		if cfg.Trace {
			mon = ocp.NewMonitor(port, eng.Cycle)
			port = mon
		}
		s.Monitors = append(s.Monitors, mon)
		m := factory(s, i, port)
		s.Masters = append(s.Masters, m)
		eng.Add(m)
		if shardEngines != nil {
			shardMasters[shardOf(i)] = append(shardMasters[shardOf(i)], m)
		}
	}
	// Fabric ticks after all masters (see DESIGN.md tick order); in a
	// sharded build each region is its engine's fabric device.
	switch {
	case s.Bus != nil:
		e.Add(s.Bus)
	case shardEngines != nil:
		for si, rg := range regions {
			rg.BindCycleSource(shardEngines[si].Cycle)
			shardEngines[si].Add(rg)
		}
	case s.Net != nil:
		e.Add(s.Net)
	}
	// Registration runs last, once the topology is final: it captures
	// metric addresses, so per-port counter slices must not grow afterwards.
	s.Stats = sim.NewRegistry()
	for i, m := range s.Masters {
		if src, ok := m.(sim.StatsSource); ok {
			src.RegisterStats(s.Stats.Scope(fmt.Sprintf("master%d", i)))
		}
	}
	for i, mon := range s.Monitors {
		if mon != nil {
			mon.RegisterStats(s.Stats.Scope(fmt.Sprintf("port%d", i)))
		}
	}
	switch {
	case s.Bus != nil:
		s.Bus.RegisterStats(s.Stats.Scope("bus"))
	case s.Net != nil:
		s.Net.RegisterStats(s.Stats.Scope("noc"))
	}
	if shardEngines != nil {
		shards := make([]*shard.Shard, len(regions))
		for si, rg := range regions {
			rg, ms := rg, shardMasters[si]
			shards[si] = &shard.Shard{
				Engine:    shardEngines[si],
				Exchanger: rg,
				Done: func() bool {
					for _, m := range ms {
						if !m.Done() {
							return false
						}
					}
					return rg.Idle()
				},
				// Guard probes: read only by this shard's goroutine, summed
				// identically by every shard from the barrier-published slots.
				Progress: rg.Retired,
				Live:     rg.Live,
			}
		}
		s.Sharded = shard.New(shards)
		s.Engine = shardEngines[0]
	}
	return s, nil
}

// AutoMesh returns the mesh dimensions Build auto-sizes for the given
// core count when Config.NoC leaves both Width and Height zero. Exported
// so the analytic estimator can reproduce the exact floorplan of an
// auto-sized point without building it.
func AutoMesh(cores int) (w, h int) {
	c := autoMesh(cores)
	return c.Width, c.Height
}

// autoMesh returns the smallest of the stock mesh sizes that fits
// cores masters + cores+2 slaves.
func autoMesh(cores int) noc.Config {
	need := cores*2 + 2
	for _, d := range []struct{ w, h int }{{3, 2}, {4, 2}, {4, 3}, {4, 4}, {5, 4}, {5, 5}, {6, 5}, {6, 6}} {
		if d.w*d.h >= need+1 { // one spare node keeps masters/slaves apart
			return noc.Config{Width: d.w, Height: d.h}
		}
	}
	return noc.Config{Width: 7, Height: 6}
}

// Done reports whether every master has finished.
func (s *System) Done() bool {
	for _, m := range s.Masters {
		if !m.Done() {
			return false
		}
	}
	return true
}

// Run simulates until all masters are done and the fabric has drained, or
// maxCycles elapse. It returns the makespan in cycles — the paper's
// "cumulative execution time" metric (total simulated cycles of the run).
//
// The completion predicate is evaluated every 32 cycles; the returned
// makespan comes from the masters' halt cycles and is unaffected by the
// detection stride.
func (s *System) Run(maxCycles uint64) (uint64, error) {
	if s.Sharded != nil {
		if err := s.Sharded.Run(maxCycles); err != nil {
			return s.Sharded.Cycle(), fmt.Errorf("platform(%s): %w", s.Cfg.Interconnect, err)
		}
		return s.Makespan(), nil
	}
	_, err := s.Engine.RunEvery(maxCycles, 32, func() bool {
		return s.Done() && s.fabric.Idle()
	})
	if err != nil {
		return s.Engine.Cycle(), fmt.Errorf("platform(%s): %w", s.Cfg.Interconnect, err)
	}
	// Makespan = the latest master completion, not the drain tail.
	return s.Makespan(), nil
}

// RunPhased executes the warmup → measure → drain methodology on the
// system, using the same completion predicate and detection stride as Run.
// Phase boundaries are forced wake points, so both kernels land on
// byte-identical boundary cycles (see sim.Phases). Callers drive the
// Stats registry from the phase callbacks: Sync + Reset at the warmup
// boundary, Sync + Snapshot + Reset at each epoch end.
func (s *System) RunPhased(p sim.Phases, maxCycles uint64) (sim.PhasedResult, error) {
	if p.Stride == 0 {
		p.Stride = 32
	}
	if s.Sharded != nil {
		res, err := s.Sharded.RunPhased(p, maxCycles)
		if err != nil {
			return res, fmt.Errorf("platform(%s): %w", s.Cfg.Interconnect, err)
		}
		return res, nil
	}
	res, err := s.Engine.RunPhased(p, maxCycles, func() bool {
		return s.Done() && s.fabric.Idle()
	})
	if err != nil {
		return res, fmt.Errorf("platform(%s): %w", s.Cfg.Interconnect, err)
	}
	return res, nil
}

// Makespan returns the latest master completion cycle (the paper's
// "cumulative execution time"), falling back to the engine cycle when no
// master exposes a halt cycle.
func (s *System) Makespan() uint64 {
	var last uint64
	for _, m := range s.Masters {
		if h, ok := m.(interface{ HaltCycle() uint64 }); ok {
			if c := h.HaltCycle(); c > last {
				last = c
			}
		}
	}
	if last == 0 {
		last = s.Engine.Cycle()
	}
	return last
}

// EngineSnapshot captures the run's engine state for result artifacts. On
// a sharded platform the per-engine device count depends on the partition
// (each engine holds its own region and masters), so the snapshot reports
// the canonical masters+fabric count instead — the same value a
// single-engine build registers — keeping artifacts byte-identical across
// shard counts.
func (s *System) EngineSnapshot() sim.Snapshot {
	snap := s.Engine.Snapshot()
	if s.Sharded != nil {
		snap.Devices = len(s.Masters) + 1
	}
	return snap
}

// Peek reads a word from whichever memory maps addr (test/validation hook).
func (s *System) Peek(addr uint32) uint32 {
	if layout.SharedRange().Contains(addr) {
		return s.Shared.PeekWord(addr)
	}
	for i, p := range s.Privs {
		if layout.PrivRange(i).Contains(addr) {
			return p.PeekWord(addr)
		}
	}
	panic(fmt.Sprintf("platform: Peek(%#08x) outside all memories", addr))
}

// ARMFactory returns a MasterFactory producing miniARM cores: core i runs
// programs[i] (loaded into its private memory) behind I/D caches of the
// given configuration.
func ARMFactory(programs []*cpu.Program, icache, dcache cache.Config) MasterFactory {
	return func(s *System, id int, port ocp.MasterPort) Master {
		prog := programs[id]
		s.Privs[id].LoadWords(prog.Base, prog.Words)
		mu := cache.NewMemUnit(port, cache.New(icache), cache.New(dcache),
			[]ocp.AddrRange{layout.PrivRange(id)})
		return &armMaster{Core: cpu.NewCore(id, mu, prog.Entry)}
	}
}

// armMaster adapts cpu.Core to the Master interface.
type armMaster struct{ *cpu.Core }

func (a *armMaster) Done() bool { return a.Halted() }

// BuildARM is the common case: an ARM platform running one assembled
// program per core.
func BuildARM(cfg Config, programs []*cpu.Program, icache, dcache cache.Config) (*System, error) {
	if len(programs) != cfg.Cores {
		return nil, fmt.Errorf("platform: %d programs for %d cores", len(programs), cfg.Cores)
	}
	return Build(cfg, ARMFactory(programs, icache, dcache))
}
