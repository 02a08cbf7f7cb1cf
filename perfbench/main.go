// Command perfbench is the repository benchmark: it runs one named
// workload through the public entry points of the simulator packages for
// a fixed host-time budget, checks the simulated outputs, and prints every
// metric with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload paper-amba --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end set (host time, except
// where noted). With --trace 1 the run first repeats the workload
// untraced, then repeats it with a CPU profile and in-memory spans, and
// reports the per-layer set: the profile folded into the repository's
// modules, span times, counts of modelled work and derived ratios.
// README.md in this directory records why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// rep is one repetition of a workload: the host times the benchmark took
// around its calls into the simulator, split into parts that are the same
// work on every repetition (a Table 2 row, a window), the output checks
// and the digest of the deterministic outputs.
type rep struct {
	parts []part

	errPct   float64 // paper-* only
	hasPaper bool

	attempted, failed int
	digest            string

	// counts holds the deterministic modelled-work counts of the
	// repetition (traced runs report them).
	counts map[string]float64
	// extra holds workload-specific derived figures (Table 2 rows).
	extra map[string]float64
	// finish, when set on a traced repetition, adds counts that take
	// extra simulation; the traced run calls it once, after the profile.
	finish func() error
}

// part is one piece of a repetition. A run reports, for each part, the
// median over its repetitions, and sums the parts: a burst of host noise
// then spoils one part of one repetition instead of a whole repetition.
type part struct {
	setup time.Duration // program assembly, platform builds, curve/estimator compilation
	wall  time.Duration // the rest of the part

	simCycles uint64        // every simulated cycle of the part
	simTime   time.Duration // host time inside System.Run / RunCurves / Sharded.Advance

	// paper-* only: the TG replay and the ARM reference run.
	tgCycles, refCycles uint64
	tgTime, refTime     time.Duration
}

func (r *rep) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// check counts one attempted operation and records a failure when ok is
// false.
func (r *rep) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *rep) simCycles() uint64 {
	var n uint64
	for _, p := range r.parts {
		n += p.simCycles
	}
	return n
}

func (r *rep) count(name string, v float64) {
	if r.counts == nil {
		r.counts = map[string]float64{}
	}
	r.counts[name] += v
}

// workload runs one repetition. seed reaches only the stochastic
// workloads; tr is nil on untraced repetitions.
type workload func(seed int64, tr *tracer) (*rep, error)

// workloads are described in README.md and BENCHMARK.json.
var workloads = map[string]workload{
	"paper-amba":      runPaperAMBA,
	"paper-xpipes":    runPaperXPipes,
	"library-curves":  runLibraryCurves,
	"hotspot-sharded": runHotspotSharded,
}

// minReps is the fewest repetitions a run makes, whatever its budget, so
// every reported figure is a median of at least this many.
const minReps = 3

// outDir receives the traced run's spans and layer table.
var outDir = filepath.Join(".bench_build", "trace")

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed of the stochastic workloads (library-curves, hotspot-sharded)")
	seconds := flag.Float64("seconds", 10, "host seconds to spend measuring")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 0 {
		res, err = measure(*name, w, *seed, budget)
	} else {
		res, err = measureTraced(*name, w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// repeat runs the workload until budget has elapsed, and at least minReps
// times. Repetitions whose digest differs from the first count as failed.
func repeat(name string, w workload, seed int64, budget time.Duration, tr *tracer) ([]*rep, error) {
	var reps []*rep
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < budget {
		r, err := w(seed, tr)
		if err != nil {
			return nil, err
		}
		if len(reps) > 0 {
			r.check(r.digest == reps[0].digest,
				"%s: repetition %d digest %s differs from the first (%s)", name, len(reps)+1, r.digest, reps[0].digest)
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	workload  string
	digest    string
	attempted int
	failed    int
	metrics   map[string]metric
	order     []string
	notes     []string // human-readable lines printed before the JSON line
}

func (res *result) set(name, unit string, v float64) {
	if res.metrics == nil {
		res.metrics = map[string]metric{}
	}
	if _, dup := res.metrics[name]; !dup {
		res.order = append(res.order, name)
	}
	res.metrics[name] = metric{Value: v, Unit: unit}
}

func (res *result) print(f *os.File) {
	for _, n := range res.notes {
		fmt.Fprintln(f, n)
	}
	fmt.Fprintf(f, "workload %s  digest %s  attempted %d  failed %d\n", res.workload, res.digest, res.attempted, res.failed)
	for _, n := range res.order {
		m := res.metrics[n]
		fmt.Fprintf(f, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		panic(err) // plain floats and strings always marshal
	}
	fmt.Fprintln(f, string(line))
}

// summary is the medians over a run's repetitions.
type summary struct {
	setupS, wallS, msims      float64
	tgMsims, refMsims, errPct float64
	hasPaper                  bool
	attempted, failed         int
	digest                    string
	extra                     map[string]float64
}

func summarize(reps []*rep) summary {
	s := summary{digest: reps[0].digest, hasPaper: reps[0].hasPaper, extra: map[string]float64{}}
	extra := map[string][]float64{}
	for _, r := range reps {
		s.attempted += r.attempted
		s.failed += r.failed
		s.errPct = max(s.errPct, r.errPct)
		for k, v := range r.extra {
			extra[k] = append(extra[k], v)
		}
	}
	// Cycles are the same on every repetition (the digest checks the
	// outputs they produce); host times are medians per part.
	med := func(i int, d func(part) time.Duration) float64 {
		var vs []float64
		for _, r := range reps {
			vs = append(vs, d(r.parts[i]).Seconds())
		}
		return median(vs)
	}
	var cycles, tgCycles, refCycles uint64
	var simS, tgS, refS float64
	for i, p := range reps[0].parts {
		s.setupS += med(i, func(p part) time.Duration { return p.setup })
		s.wallS += med(i, func(p part) time.Duration { return p.wall })
		simS += med(i, func(p part) time.Duration { return p.simTime })
		tgS += med(i, func(p part) time.Duration { return p.tgTime })
		refS += med(i, func(p part) time.Duration { return p.refTime })
		cycles += p.simCycles
		tgCycles += p.tgCycles
		refCycles += p.refCycles
	}
	s.msims = float64(cycles) / 1e6 / simS
	if s.hasPaper {
		s.tgMsims = float64(tgCycles) / 1e6 / tgS
		s.refMsims = float64(refCycles) / 1e6 / refS
	}
	for k, vs := range extra {
		s.extra[k] = median(vs)
	}
	return s
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxRSSMB is the process's peak resident set size: VmHWM, which belongs
// to this program image. getrusage's ru_maxrss is no use here, as it
// carries over the parent's resident size from before the exec.
func maxRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(v, "%f kB", &kib); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// measure is the untraced run: end-to-end metrics only.
func measure(name string, w workload, seed int64, budget time.Duration) (result, error) {
	reps, err := repeat(name, w, seed, budget, nil)
	if err != nil {
		return result{}, err
	}
	s := summarize(reps)
	res := result{workload: name, digest: s.digest, attempted: s.attempted, failed: s.failed}
	res.notes = append(res.notes, fmt.Sprintf("workload %s: %d repetitions, medians reported", name, len(reps)))
	if s.hasPaper {
		res.notes = append(res.notes,
			fmt.Sprintf("  %-32s %14.6g Msimcycles/s", "tg_msimcycles_s", s.tgMsims),
			fmt.Sprintf("  %-32s %14.6g Msimcycles/s", "ref_msimcycles_s", s.refMsims),
			fmt.Sprintf("  %-32s %14.6g %% (simulated cycles)", "err_pct", s.errPct))
		res.notes = append(res.notes, paperNotes(s.extra)...)
	}
	res.set("setup_s", "s", s.setupS)
	res.set("wall_s", "s", s.wallS)
	res.set("msimcycles_s", "Msimcycles/s", s.msims)
	rss, err := maxRSSMB()
	res.set("max_rss_mb", "MB", rss)
	return res, err
}

// measureTraced is the per-layer run. The first half of the budget
// repeats the workload untraced (the reference for the tracing overhead
// and for the digest), the second half repeats it under the CPU profile
// with spans recorded in memory; the spans and the folded layer table are
// written to outDir at the end.
func measureTraced(name string, w workload, seed int64, budget time.Duration) (result, error) {
	plain, err := repeat(name, w, seed, budget/2, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stop, err := startProfile()
	if err != nil {
		return result{}, err
	}
	traced, err := repeat(name, w, seed, budget/2, tr)
	prof, perr := stop()
	if err != nil {
		return result{}, err
	}
	if perr != nil {
		return result{}, perr
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	if f := traced[0].finish; f != nil {
		if err := f(); err != nil {
			return result{}, err
		}
	}

	sp, st := summarize(plain), summarize(traced)
	res := result{workload: name, digest: st.digest,
		attempted: sp.attempted + st.attempted + 1,
		failed:    sp.failed + st.failed}
	if sp.digest != st.digest {
		res.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s: traced digest %s differs from untraced %s\n", name, st.digest, sp.digest)
	}

	var cycles uint64
	for _, r := range traced {
		cycles += r.simCycles()
	}
	fold := foldProfile(prof)
	for _, l := range layers {
		res.set(l+".ns_per_cycle", "ns/cycle", float64(fold.ns[l])/float64(cycles))
	}
	for _, s := range spanMetrics {
		res.set(s.name, s.unit, tr.metric(s, len(traced)))
	}
	counts := traced[0].counts
	for _, c := range countMetrics {
		res.set(c.name, c.unit, counts[c.name])
	}
	for _, q := range ratioMetrics {
		v := 0.0
		if counts[q.den] > 0 {
			v = counts[q.num] / counts[q.den]
		}
		res.set(q.name, "ratio", v)
	}
	nsPer := func(layer string, work float64) float64 {
		if work == 0 {
			return 0
		}
		return float64(fold.ns[layer]) / float64(len(traced)) / work
	}
	res.set("noc.router_ns_per_flit", "ns/flit", nsPer("noc.router", counts["noc.flits_routed"]))
	res.set("cpu.ns_per_inst", "ns/inst", nsPer("cpu", counts["cpu.inst_ret"]))
	res.set("core.ns_per_tg_inst", "ns/inst", nsPer("core", counts["core.inst_ret"]))
	res.set("amba.ns_per_grant", "ns/grant", nsPer("amba", counts["amba.grants"]))
	res.set("runtime.alloc_mb", "MB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(len(traced))/(1<<20))
	res.set("tg_msimcycles_s", "Msimcycles/s", sp.tgMsims)
	res.set("ref_msimcycles_s", "Msimcycles/s", sp.refMsims)
	res.set("err_pct", "%", sp.errPct)
	res.set("tg_gain", "x", sp.extra["tg_gain"])
	for _, f := range paperFamilies {
		res.set("tg_gain."+f, "x", sp.extra["tg_gain."+f])
		res.set("err_pct."+f, "%", sp.extra["err_pct."+f])
	}
	res.set("trace_overhead_pct", "%", 100*(st.wallS/sp.wallS-1))

	table := fold.table(cycles)
	res.notes = append(res.notes,
		fmt.Sprintf("workload %s: %d untraced + %d traced repetitions; %.2f CPU seconds profiled over %d simulated cycles",
			name, len(plain), len(traced), float64(fold.totalNS)/1e9, cycles))
	res.notes = append(res.notes, strings.Split(strings.TrimRight(table, "\n"), "\n")...)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	if err := os.WriteFile(filepath.Join(outDir, name+"-layers.txt"), []byte(table), 0o644); err != nil {
		return result{}, err
	}
	if err := tr.write(filepath.Join(outDir, name+"-spans.json")); err != nil {
		return result{}, err
	}
	return res, nil
}
