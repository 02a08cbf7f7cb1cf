// Command tgsweep runs a parallel experiment sweep: a parameter grid of
// workloads × fabrics × clock periods × seeds fans out over a bounded
// worker pool, one independent simulation engine per configuration, and the
// per-run latency/throughput/flit metrics land in JSON and CSV artifacts
// whose bytes are identical for any -workers value.
//
// Usage:
//
//	tgsweep [-workers N] [-grid FILE|default] [-out BASE|-] [-maxcycles N]
//	        [-kernel auto|strict|event] [-shards N]
//	        [-journal FILE [-resume]] [-retries N] [-retry-backoff D]
//	        [-point-deadline D] [-cpuprofile FILE] [-memprofile FILE]
//	tgsweep -scenario FILE|library # run declarative traffic scenarios
//	tgsweep -scenario FILE|library -curve # load-latency curves per scenario
//	tgsweep -validate [-scenario FILE|library] # generator fidelity report
//	tgsweep -print-scenarios       # dump the scenario library as a template
//	tgsweep -print-grid            # dump the default grid as a template
//	tgsweep -paper [-sizes quick|default] [-workers N] [-kernel K] [-shards N]
//	        [-guard] [-run-budget D] [-on-violation record|fail]
//
// With -scenario, the sweep points come from a declarative scenario file
// (internal/scenario JSON: fabric, topology, logical core grid, spatial
// traffic pattern, injection distribution, load/clock/seed axes) instead
// of a raw grid; "library" runs the stock pattern × topology evaluation
// set. The artifacts are the same deterministic JSON/CSV files. Scenario
// files may also declare the phased measurement methodology (warmup,
// epoch_cycles, epochs or ci_target, drain): points then discard the
// warmup transient and report steady-state epoch statistics under a
// "phases" key per result.
//
// With -curve (requires -scenario), each scenario's injection load is
// swept over its curve_gaps axis (or the stock ladder) and measured with
// the phased methodology at every level; the artifacts are load-latency
// curves with the detected saturation point per scenario.
//
// With -validate, no simulation sweep runs: instead each stochastic
// traffic source executes open-loop against the generator-validation
// harness (internal/valid) and the fidelity report — offered load vs. the
// analytic rate, inter-injection CDFs, index of dispersion, Hurst
// estimates, class shares — lands in <out>.json. The default suite is the
// stock source set; with -scenario, sources derive from the scenario
// file's stochastic workloads. A failed fidelity check exits nonzero.
//
// With -paper, the paper's full evaluation (Table 2, the cross-interconnect
// .tgp check, the overhead measurement, the ablations and the Figure 2
// experiments) runs as one parallel invocation instead of a grid sweep and
// prints its reports on stdout. -guard/-run-budget arm the watchdogs on
// every platform; a violation aborts the evaluation with its diagnostics
// and, under -on-violation fail, exit status 1. SIGINT/SIGTERM drain: the
// running experiments finish, unstarted ones are skipped, and the process
// exits nonzero.
//
// -kernel selects the simulation kernel for replay runs: "event" (the
// default via "auto") ticks only the devices that are due each cycle and
// jumps spans in which every device sleeps, and "strict" ticks every device
// every cycle. Both produce byte-identical artifacts; strict is the
// reference for cross-checking and for timing experiments that must not
// benefit from kernel tricks. ARM reference runs always tick strictly.
//
// -shards N > 0 runs every ×pipes simulation sharded across N engine
// goroutines (conservative time-window synchronisation, see internal/shard),
// overriding any per-scenario shards setting. Artifacts are byte-identical
// for every N >= 1 — the CI shard-determinism matrix pins this — though
// sharded runs form their own determinism class versus the legacy
// single-engine path (-shards absent or 0). AMBA points ignore the setting.
//
// -journal FILE makes the sweep crash-safe: every completed point is
// appended to an fsync'd write-ahead journal, and -resume skips completed
// points and re-runs only in-flight or unstarted ones — final artifacts
// are byte-identical to an uninterrupted run at any kill point, worker
// count, kernel or shard count. SIGINT/SIGTERM drain gracefully:
// in-flight points finish, the journal is flushed, and the process exits
// nonzero with a resume hint.
//
// -retries N retries points whose failure classifies as transient (run
// budget, barrier stall, worker panic) up to N attempts with exponential
// -retry-backoff, dropping to the strict kernel and a single shard on the
// final attempt; deterministic failures (deadlock, conservation) are
// quarantined immediately as failed points. -point-deadline bounds each
// attempt's wall clock through the guard run budget.
//
// -cpuprofile/-memprofile write pprof profiles of the sweep (flag wiring in
// internal/prof) so performance work needs no code edits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"noctg/internal/drain"
	"noctg/internal/exp"
	"noctg/internal/guard"
	"noctg/internal/platform"
	"noctg/internal/prof"
	"noctg/internal/scenario"
	"noctg/internal/sweep"
)

func main() {
	var (
		workers    = flag.Int("workers", 0, "worker pool size (0 = all host cores)")
		gridPath   = flag.String("grid", "default", "grid JSON file, or \"default\" for the stock 16-point sweep")
		scenPath   = flag.String("scenario", "", "scenario JSON file, or \"library\" for the stock pattern×topology set")
		out        = flag.String("out", "results", "output basename (<out>.json and <out>.csv), or \"-\" for JSON on stdout")
		maxCycles  = flag.Uint64("maxcycles", 0, "override the per-run simulated-cycle budget")
		printGrid  = flag.Bool("print-grid", false, "print the default grid JSON and exit")
		printScen  = flag.Bool("print-scenarios", false, "print the scenario library JSON and exit")
		curve      = flag.Bool("curve", false, "sweep injection load per scenario and emit load-latency curves (requires -scenario)")
		curveMode  = flag.String("curve-mode", "", "curve traversal for every -curve scenario: uniform (simulate every level) or adaptive (seed from the analytic knee, simulate only around it); empty keeps each scenario's curve_mode")
		analyticF  = flag.Bool("analytic", false, "analytic pre-pass: stochastic points the closed-form model brackets confidently are estimated instead of simulated (recorded with \"estimated\": true), and the predictions land in <out>.analytic.json")
		paper      = flag.Bool("paper", false, "run the paper's experiments as one parallel invocation")
		validate   = flag.Bool("validate", false, "run the generator-validation harness and write a fidelity report instead of sweeping")
		sizesFlag  = flag.String("sizes", "default", "benchmark sizes for -paper: quick or default")
		kernelFlag = flag.String("kernel", "auto", "simulation kernel: auto (event for replay), strict or event")
		shards     = flag.Int("shards", 0, "shard every ×pipes simulation across N engine goroutines (0 = legacy single engine)")
		guardFlag  = flag.Bool("guard", false, "arm the guard watchdogs (deadlock horizon, conservation scans, barrier-stall bound) on every point")
		runBudget  = flag.Duration("run-budget", 0, "wall-clock budget per point (implies -guard); an exceeded point fails with a run-budget violation")
		onViol     = flag.String("on-violation", "record", "guard violation handling: record (failed point, grid continues, exit 0) or fail (same artifacts, exit 1)")
		journalF   = flag.String("journal", "", "write-ahead journal file: every completed point is fsync'd so a crashed or interrupted sweep resumes with -resume")
		resume     = flag.Bool("resume", false, "resume the -journal file, skipping completed points (artifacts come out byte-identical to an uninterrupted run)")
		retries    = flag.Int("retries", 0, "max attempts per point: transient failures (run budget, barrier stall, worker panic) retry with backoff, falling back to the strict kernel and one shard on the last attempt (0/1 = no retries)")
		retryBack  = flag.Duration("retry-backoff", 0, "base delay before a retry, doubling per attempt")
		deadline   = flag.Duration("point-deadline", 0, "wall-clock deadline per point attempt (rides the guard run budget; a blown deadline is transient and retried)")
	)
	profiles := prof.Register()
	flag.Parse()

	kernel, err := platform.ParseKernel(*kernelFlag)
	fail(err)
	fail(sweep.ValidateShards(*shards))
	gcfg, err := guardConfig(*guardFlag, *runBudget, *onViol)
	fail(err)
	rpol, err := retryPolicy(*retries, *retryBack, *deadline)
	fail(err)
	if *resume && *journalF == "" {
		fail(fmt.Errorf("-resume requires -journal FILE"))
	}
	switch *curveMode {
	case "", sweep.CurveModeUniform, sweep.CurveModeAdaptive:
	default:
		fail(fmt.Errorf("-curve-mode %q: want uniform or adaptive", *curveMode))
	}

	// Profiles are written on the success path only: fail() exits the
	// process without running defers.
	defer profiles.MustStart("tgsweep")()

	if *printGrid {
		g := sweep.DefaultGrid()
		pts := g.Expand()
		fmt.Fprintf(os.Stderr, "default grid: %d points\n", len(pts))
		fail(writeJSONIndent(os.Stdout, g))
		return
	}
	if *printScen {
		specs := scenario.Library()
		printPredictions(specs)
		fail(writeJSONIndent(os.Stdout, specs))
		return
	}
	if *paper {
		runPaper(*sizesFlag, *workers, kernel, *shards, gcfg, *onViol)
		return
	}
	if *validate {
		runValidate(*scenPath, *workers, kernel, *out)
		return
	}

	var points []sweep.Point
	switch {
	case *scenPath != "":
		specs := scenario.Library()
		if *scenPath != "library" {
			f, err := os.Open(*scenPath)
			fail(err)
			specs, err = scenario.Parse(f)
			f.Close()
			fail(err)
		}
		if *curve {
			if *journalF != "" {
				fail(fmt.Errorf("-journal supports grid/scenario sweeps, not -curve"))
			}
			runCurves(specs, *curveMode, *workers, *maxCycles, *out, kernel, *shards, gcfg, rpol, *onViol)
			return
		}
		var err error
		points, err = scenario.Points(specs)
		fail(err)
		fmt.Fprintf(os.Stderr, "tgsweep: %d scenarios\n", len(specs))
	default:
		if *curve {
			fail(fmt.Errorf("-curve requires -scenario FILE|library"))
		}
		grid := sweep.DefaultGrid()
		if *gridPath != "default" {
			f, err := os.Open(*gridPath)
			fail(err)
			grid, err = sweep.ParseGrid(f)
			f.Close()
			fail(err)
		}
		points = grid.Expand()
	}
	if *analyticF {
		marked := 0
		for i := range points {
			if points[i].Workload.Kind == sweep.KindStochastic {
				points[i].Analytic = true
				marked++
			}
		}
		fmt.Fprintf(os.Stderr, "tgsweep: analytic pre-pass armed on %d/%d points\n", marked, len(points))
	}
	fmt.Fprintf(os.Stderr, "tgsweep: %d configurations, %d workers\n", len(points), *workers)

	r := sweep.Runner{Workers: *workers, MaxCycles: *maxCycles, Kernel: kernel, Shards: *shards, Guard: gcfg, Retry: rpol}
	start := time.Now()
	var results []sweep.Result
	if *journalF != "" {
		r.Interrupted = drain.Arm("tgsweep")
		var status sweep.JournalStatus
		results, status, err = r.RunJournaled(points, sweep.JournalConfig{Path: *journalF, Resume: *resume})
		if status.Torn {
			fmt.Fprintf(os.Stderr, "tgsweep: journal had a torn tail (crash signature); truncated and resumed\n")
		}
		if errors.Is(err, sweep.ErrDrained) {
			fmt.Fprintf(os.Stderr, "tgsweep: interrupted: %d resumed, %d ran, %d pending\n",
				status.Resumed, status.Ran, status.Skipped)
			fmt.Fprintf(os.Stderr, "tgsweep: journal flushed; continue with: tgsweep -journal %s -resume ...\n", *journalF)
			os.Exit(1)
		}
		fail(err)
		if *resume {
			// Always report, 0 included: a crash before the first point
			// completed leaves nothing to recover, and saying so is the
			// confirmation that the journal was read.
			fmt.Fprintf(os.Stderr, "tgsweep: resumed %d completed points from %s, ran %d\n",
				status.Resumed, *journalF, status.Ran)
		}
	} else {
		results, err = r.Run(points)
		fail(err)
	}
	wall := time.Since(start)

	failed, violated := 0, 0
	for _, r := range results {
		if r.Err != "" {
			failed++
			fmt.Fprintf(os.Stderr, "tgsweep: point %d (%s @ %s): %s\n", r.ID, r.Workload, r.Fabric, r.Err)
		}
		if r.Violation != nil {
			violated++
			if r.Violation.Diag != nil {
				fmt.Fprintln(os.Stderr, "  "+r.Violation.Diag.Summary())
			}
		}
	}
	fmt.Fprintf(os.Stderr, "tgsweep: %d/%d points ok in %v\n", len(results)-failed, len(results), wall.Round(time.Millisecond))
	if *analyticF {
		estimated := 0
		for _, r := range results {
			if r.Estimated {
				estimated++
			}
		}
		fmt.Fprintf(os.Stderr, "tgsweep: analytic pre-pass estimated %d/%d points (simulated %d)\n",
			estimated, len(results), len(results)-estimated)
	}

	if *out == "-" {
		fail(sweep.WriteJSON(os.Stdout, results))
		exitViolations(violated, *onViol)
		return
	}
	fail(sweep.WriteArtifacts(*out, results))
	fmt.Fprintf(os.Stderr, "tgsweep: wrote %s.json and %s.csv\n", *out, *out)
	if *analyticF {
		rep := sweep.AnalyticReport(points)
		f, err := os.Create(*out + ".analytic.json")
		fail(err)
		fail(rep.WriteJSON(f))
		fail(f.Close())
		fmt.Fprintf(os.Stderr, "tgsweep: wrote %s.analytic.json (%d predictions)\n", *out, len(rep.Entries))
	}
	exitViolations(violated, *onViol)
}

// printPredictions renders the closed-form prediction per scenario — the
// zero-load latency and saturation knee, no simulation — as a table on
// stderr, leaving stdout pure JSON for piping.
func printPredictions(specs []scenario.Spec) {
	pts, err := scenario.Points(specs)
	if err != nil {
		return
	}
	// One representative point per scenario: the first point of each
	// scenario's expansion carries its lightest configured load.
	byLabel := make(map[string]sweep.Point)
	var labels []string
	for _, p := range pts {
		key := p.Workload.Label() + " @ " + p.Fabric.Label()
		if _, ok := byLabel[key]; !ok {
			byLabel[key] = p
			labels = append(labels, key)
		}
	}
	tw := tabwriter.NewWriter(os.Stderr, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "scenario\tzero-load lat\tknee gap\tknee offered\tsat ceiling\n")
	fmt.Fprintf(tw, "\t(cycles)\t(cycles)\t(txn/kcycle)\t(txn/kcycle)\n")
	for _, key := range labels {
		p := byLabel[key]
		est, err := sweep.NewEstimator(p.Workload, p.Fabric)
		if err != nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\n", key)
			continue
		}
		e := est.Estimate()
		// The continuous knee: resource saturation when the bottleneck
		// fills first, the marginal-throughput knee when the closed-loop
		// population self-limits before any resource does.
		kg := sweep.PredictedKneeGap(est)
		knee := fmt.Sprintf("%.1f", kg)
		offered := fmt.Sprintf("%.1f", float64(est.Spec().Traffic.Masters)*1000/(kg+1))
		fmt.Fprintf(tw, "%s\t%.1f\t%s\t%s\t%.1f\n", key, e.ZeroLoadLatency, knee, offered, e.SatThroughputTPK)
	}
	tw.Flush()
}

// guardConfig resolves the -guard/-run-budget/-on-violation flags into a
// runner guard configuration (nil = unguarded).
func guardConfig(guardOn bool, budget time.Duration, onViol string) (*guard.Config, error) {
	if onViol != "record" && onViol != "fail" {
		return nil, fmt.Errorf("-on-violation %q: want record or fail", onViol)
	}
	if budget < 0 {
		return nil, fmt.Errorf("-run-budget %v: want a non-negative duration", budget)
	}
	if !guardOn && budget == 0 {
		return nil, nil
	}
	c := guard.Default()
	c.RunBudget = budget
	return &c, nil
}

// exitViolations turns recorded violations into the process exit status
// under -on-violation fail. Artifacts are already on disk at this point:
// a failing sweep still leaves its (deterministic) partial results behind.
func exitViolations(violated int, onViol string) {
	if violated == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "tgsweep: %d points failed with guard violations\n", violated)
	if onViol == "fail" {
		os.Exit(1)
	}
}

// retryPolicy resolves the -retries/-retry-backoff/-point-deadline flags
// into a runner retry policy (nil = single attempt, no deadline).
func retryPolicy(retries int, backoff, deadline time.Duration) (*sweep.RetryPolicy, error) {
	if retries == 0 && backoff == 0 && deadline == 0 {
		return nil, nil
	}
	p := &sweep.RetryPolicy{
		MaxAttempts: retries,
		BackoffMS:   int(backoff / time.Millisecond),
		DeadlineMS:  int(deadline / time.Millisecond),
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// runCurves sweeps each scenario's injection load and writes load-latency
// curve artifacts (<out>.json / <out>.csv, or JSON on stdout with "-").
func runCurves(specs []scenario.Spec, mode string, workers int, maxCycles uint64, out string, kernel platform.KernelMode, shards int, gcfg *guard.Config, rpol *sweep.RetryPolicy, onViol string) {
	css, err := scenario.Curves(specs)
	fail(err)
	if skipped := len(specs) - len(css); skipped > 0 {
		fmt.Fprintf(os.Stderr, "tgsweep: %d arrival-process scenarios have no load axis to curve; skipped\n", skipped)
	}
	if mode != "" {
		for i := range css {
			css[i].Mode = mode
		}
	}
	levels := 0
	for _, cs := range css {
		levels += len(cs.Gaps)
		if len(cs.Gaps) == 0 {
			levels += len(sweep.DefaultCurveGaps)
		}
	}
	fmt.Fprintf(os.Stderr, "tgsweep: %d curves (%d load levels), %d workers\n", len(css), levels, workers)
	start := time.Now()
	curves, err := sweep.Runner{Workers: workers, MaxCycles: maxCycles, Kernel: kernel, Shards: shards, Guard: gcfg, Retry: rpol}.RunCurves(css)
	fail(err)
	sat := 0
	for _, c := range curves {
		if c.Saturation != nil {
			sat++
			fmt.Fprintf(os.Stderr, "tgsweep: %s saturates at gap %g (%.1f txn/kcycle)\n",
				c.Name, c.Saturation.MeanGap, c.Saturation.ThroughputTPK)
		} else {
			fmt.Fprintf(os.Stderr, "tgsweep: %s shows no saturation on its load axis\n", c.Name)
		}
		if c.Mode == sweep.CurveModeAdaptive {
			fmt.Fprintf(os.Stderr, "tgsweep: %s adaptive: %d levels simulated, %d estimated\n",
				c.Name, c.SimulatedLevels, c.EstimatedLevels)
		}
	}
	fmt.Fprintf(os.Stderr, "tgsweep: %d/%d curves saturated in %v\n", sat, len(curves), time.Since(start).Round(time.Millisecond))
	violated := 0
	for _, c := range curves {
		for _, p := range c.Points {
			// Violation errors stringify with the guard prefix; the curve
			// artifact keeps only the flat message per level.
			if strings.HasPrefix(p.Err, "guard:") {
				violated++
			}
		}
	}
	if out == "-" {
		fail(sweep.WriteCurvesJSON(os.Stdout, curves))
		exitViolations(violated, onViol)
		return
	}
	fail(sweep.WriteCurveArtifacts(out, curves))
	fmt.Fprintf(os.Stderr, "tgsweep: wrote %s.json and %s.csv\n", out, out)
	exitViolations(violated, onViol)
}

// runPaper executes the whole evaluation in parallel and prints its
// reports. The kernel selection applies to TG-replay runs only; ARM
// reference runs always tick strictly. The shard count likewise reaches
// only ×pipes TG-replay platforms (AMBA and reference builds ignore it).
// A guard violation aborts the evaluation: its diagnostics go to stderr
// and onViol decides the exit status.
func runPaper(sizesFlag string, workers int, kernel platform.KernelMode, shards int, gcfg *guard.Config, onViol string) {
	sizes := exp.DefaultSizes()
	if sizesFlag == "quick" {
		sizes = exp.QuickSizes()
	}
	if workers != 1 {
		fmt.Fprintln(os.Stderr, "tgsweep:", sweep.TimingCaveat)
	}
	opt := exp.DefaultOptions()
	opt.Platform.Kernel = kernel
	opt.Platform.Shards = shards
	if gcfg != nil {
		opt.Guard = *gcfg
	}
	opt.Interrupted = drain.Arm("tgsweep")
	start := time.Now()
	res, err := sweep.RunPaper(sizes, opt, workers)
	if errors.Is(err, sweep.ErrDrained) {
		fmt.Fprintln(os.Stderr, "tgsweep: interrupted — unstarted experiments skipped; re-run to complete them")
		os.Exit(1)
	}
	if v, ok := guard.AsViolation(err); ok {
		fmt.Fprintln(os.Stderr, "tgsweep:", err)
		if v.Diag != nil {
			fmt.Fprintln(os.Stderr, v.Diag.Summary())
		}
		if onViol == "fail" {
			os.Exit(1)
		}
		return
	}
	fail(err)
	sweep.FormatPaper(os.Stdout, res, sweep.AllPaper())
	fmt.Fprintf(os.Stderr, "tgsweep: paper evaluation in %v\n", time.Since(start).Round(time.Millisecond))
}

func writeJSONIndent(f *os.File, v any) error {
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tgsweep:", err)
		os.Exit(1)
	}
}
