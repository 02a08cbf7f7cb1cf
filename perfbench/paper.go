package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"noctg/internal/cache"
	"noctg/internal/core"
	"noctg/internal/cpu"
	"noctg/internal/exp"
	"noctg/internal/layout"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/prog"
	"noctg/internal/trace"
)

// The paper-* workloads are the paper's Table 2 flow, one row per
// benchmark program and core count: a traced run of the cycle-true ARM
// reference, translation of its traces into TG programs, and the TG
// replay on the same interconnect (KernelAuto: strict for the reference,
// event-driven for the replay). The programs are deterministic and take
// no seed. Modelled caches start empty and every makespan is the whole
// program's, as in the paper.

var paperFamilies = []string{"spmatrix", "cacheloop", "mpmatrix", "des"}

// paperXPipesSpecs is a subset of the Table 2 rows at reduced sizes: each
// program family, at a small and a larger core count where the family has
// several, small enough that a repetition takes seconds on the mesh (the
// default sizes take minutes there).
func paperXPipesSpecs() []*prog.Spec {
	return []*prog.Spec{
		prog.SPMatrix(8),
		prog.Cacheloop(4, 3_000),
		prog.MPMatrix(4, 8),
		prog.MPMatrix(8, 8),
		prog.DES(3, 4),
		prog.DES(8, 2),
	}
}

func runPaperAMBA(_ int64, tr *tracer) (*rep, error) {
	return runPaper(platform.Config{Interconnect: platform.AMBA}, exp.DefaultSizes().Specs(), tr)
}

func runPaperXPipes(_ int64, tr *tracer) (*rep, error) {
	return runPaper(platform.Config{Interconnect: platform.XPipes}, paperXPipesSpecs(), tr)
}

// armCore is a reference master built by armFactory. The factory is the
// one platform.ARMFactory builds, kept here so the benchmark can read the
// cores' and caches' counters after the run.
type armCore struct {
	*cpu.Core
	mu *cache.MemUnit
}

func (a *armCore) Done() bool { return a.Halted() }

func armFactory(programs []*cpu.Program, cores []*armCore) platform.MasterFactory {
	opt := exp.DefaultOptions()
	return func(s *platform.System, id int, port ocp.MasterPort) platform.Master {
		p := programs[id]
		s.Privs[id].LoadWords(p.Base, p.Words)
		mu := cache.NewMemUnit(port, cache.New(opt.ICache), cache.New(opt.DCache),
			[]ocp.AddrRange{layout.PrivRange(id)})
		cores[id] = &armCore{Core: cpu.NewCore(id, mu, p.Entry), mu: mu}
		return cores[id]
	}
}

func runPaper(base platform.Config, specs []*prog.Spec, tr *tracer) (*rep, error) {
	r := &rep{hasPaper: true, extra: map[string]float64{}}
	defer tr.enter("rep")()
	digest := sha256.New()
	var refTime, tgTime time.Duration
	famARM := map[string]time.Duration{}
	famTG := map[string]time.Duration{}
	famErr := map[string]float64{}
	for i, spec := range specs {
		row := fmt.Sprintf("row%02d %s-%dP", i, spec.Name, spec.Cores)
		start := time.Now()
		p, armMakespan, tgMakespan, tbytes, err := paperRow(r, base, spec, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", row, err)
		}
		p.wall = time.Since(start) - p.setup
		r.parts = append(r.parts, p)
		if tgMakespan == 0 { // the row failed its checks; rep.fail has reported it
			continue
		}
		errPct := 100 * math.Abs(float64(tgMakespan)-float64(armMakespan)) / float64(armMakespan)
		r.errPct = max(r.errPct, errPct)
		fmt.Fprintf(digest, "%s %d %d %d\n", row, armMakespan, tgMakespan, tbytes)
		r.extra[row+" arm_us"] = float64(p.refTime.Nanoseconds()) / 1e3
		r.extra[row+" tg_us"] = float64(p.tgTime.Nanoseconds()) / 1e3
		r.extra[row+" err_pct"] = errPct
		refTime += p.refTime
		tgTime += p.tgTime
		famARM[spec.Name] += p.refTime
		famTG[spec.Name] += p.tgTime
		famErr[spec.Name] = max(famErr[spec.Name], errPct)
	}
	r.extra["tg_gain"] = refTime.Seconds() / tgTime.Seconds()
	for f, arm := range famARM {
		r.extra["tg_gain."+f] = arm.Seconds() / famTG[f].Seconds()
		r.extra["err_pct."+f] = famErr[f]
	}
	r.digest = fmt.Sprintf("%x", digest.Sum(nil))[:16]
	return r, nil
}

// paperRow runs one Table 2 row, checking its outputs into r and timing
// it into p (all but p.wall). It returns a zero TG makespan when the row
// failed an output check; err is reserved for a broken benchmark (a
// program that does not assemble, a platform that does not build).
func paperRow(r *rep, base platform.Config, spec *prog.Spec, tr *tracer) (p part, armMakespan, tgMakespan uint64, tbytes int, err error) {
	defer tr.enter("row")()
	defer func() {
		p.simCycles = p.refCycles + p.tgCycles
		p.simTime = p.refTime + p.tgTime
	}()

	t := time.Now()
	progs, err := spec.Assemble()
	p.setup += tr.since("prog.assemble", t)
	if err != nil {
		return
	}

	cfg := base
	cfg.Cores = spec.Cores
	cfg.Trace = true
	cores := make([]*armCore, spec.Cores)
	t = time.Now()
	ref, err := platform.Build(cfg, armFactory(progs, cores))
	p.setup += tr.since("platform.build", t)
	if err != nil {
		return
	}
	t = time.Now()
	armMakespan, runErr := ref.Run(spec.MaxCycles)
	p.refTime = tr.since("exp.ref_run", t)
	p.refCycles = ref.Engine.Cycle()
	r.check(runErr == nil, "%s/%dP reference run: %v", spec.Name, spec.Cores, runErr)
	if runErr != nil {
		return
	}
	var verr error
	if spec.Validate != nil {
		verr = spec.Validate(ref.Peek, progs[0].Symbols)
	}
	r.check(verr == nil, "%s/%dP reference functional check: %v", spec.Name, spec.Cores, verr)
	if verr != nil {
		return
	}
	var traces []*trace.Trace
	for i, mon := range ref.Monitors {
		traces = append(traces, trace.New(i, ref.Engine.Clock(), mon.Events()))
	}
	t = time.Now()
	tbytes, err = exp.TraceBytes(traces)
	tr.since("trace.write", t)
	if err != nil {
		return
	}
	t = time.Now()
	tgProgs, _, _, err := exp.TranslateAll(spec, traces, core.DefaultTranslateConfig(exp.PollRangesFor(spec)))
	tr.since("core.translate", t)
	if err != nil {
		return
	}

	cfg.Trace = false
	t = time.Now()
	tg, err := platform.BuildTG(cfg, tgProgs)
	p.setup += tr.since("platform.build", t)
	if err != nil {
		return
	}
	t = time.Now()
	makespan, runErr := tg.Run(spec.MaxCycles)
	p.tgTime = tr.since("platform.tg_run", t)
	p.tgCycles = tg.Engine.Cycle()
	r.check(runErr == nil, "%s/%dP TG replay: %v", spec.Name, spec.Cores, runErr)
	if runErr != nil {
		return
	}
	tgMakespan = makespan

	for _, c := range cores {
		r.count("cpu.inst_ret", float64(c.InstRet))
		for _, ch := range []*cache.Cache{c.mu.ICache(), c.mu.DCache()} {
			r.count("cache.misses", float64(ch.Misses))
			r.count("cache.accesses", float64(ch.Hits+ch.Misses))
		}
	}
	r.count("trace.bytes", float64(tbytes))
	for _, sys := range []*platform.System{ref, tg} {
		c := sys.Stats.CounterSnapshot()
		for i := 0; i < spec.Cores; i++ {
			r.count("core.inst_ret", float64(c[fmt.Sprintf("master%d/inst_ret", i)]))
		}
		switch {
		case sys.Bus != nil:
			r.count("amba.grants", float64(c["bus/grants"]))
			r.count("amba.busy_cycles", float64(c["bus/busy_cycles"]))
			r.count("amba.cycles", float64(c["bus/busy_cycles"]+c["bus/idle_cycles"]))
		case sys.Net != nil:
			r.count("noc.flits_routed", float64(sys.Net.FlitsRouted()))
			r.count("noc.router_cycles", float64(sys.Net.Nodes())*float64(sys.Engine.Cycle()))
		}
	}
	return
}

// paperNotes renders the Table 2 rows and the per-family gains of a
// summary, host times in microseconds so that short replays resolve.
func paperNotes(extra map[string]float64) []string {
	var rows []string
	for k := range extra {
		if name, ok := strings.CutSuffix(k, " arm_us"); ok {
			rows = append(rows, name)
		}
	}
	sort.Strings(rows)
	out := []string{fmt.Sprintf("  %-22s %12s %12s %8s %8s", "row", "ARM us", "TG us", "gain", "err%")}
	for _, row := range rows {
		arm, tg := extra[row+" arm_us"], extra[row+" tg_us"]
		out = append(out, fmt.Sprintf("  %-22s %12.1f %12.1f %7.2fx %7.3f%%", row[6:], arm, tg, arm/tg, extra[row+" err_pct"]))
	}
	for _, f := range paperFamilies {
		if g, ok := extra["tg_gain."+f]; ok {
			out = append(out, fmt.Sprintf("  tg_gain.%-14s %8.2fx   err_pct.%s %.3f%%", f, g, f, extra["err_pct."+f]))
		}
	}
	out = append(out, fmt.Sprintf("  tg_gain (aggregate)    %8.2fx", extra["tg_gain"]))
	return out
}
