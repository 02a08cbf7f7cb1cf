package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"noctg/internal/scenario"
	"noctg/internal/sweep"
)

// The library-curves workload is the campaign users run: every curveable
// scenario of the stock library swept from light load to saturation. Its
// masters are stochastic generators in a closed loop: one transaction
// outstanding each, then a random think time whose mean is the level's
// gap. Their transaction budget never runs out, so epochs end a level.
// The seed is the benchmark's.
//
// The curves run in uniform mode, every level of the load axis, for a
// fixed number of epochs per level (curveMeasure). In adaptive mode, and
// under the library's confidence-interval stopping rule, which levels run
// and for how long follows the measured latencies, so the work of a run
// (and its host time per cycle, as heavy levels cost more per cycle)
// moved by a quarter from one seed to the next. The analytic estimator the
// adaptive planner would start from is compiled and evaluated in set-up.

// curveWorkers bounds the sweep's worker pool by the host's CPUs.
func curveWorkers() int { return min(2, runtime.NumCPU()) }

// curveMeasure is the per-level methodology: the library's warmup and
// epoch length, and three epochs. With two epochs of 1000 cycles some
// curves failed to saturate at some seeds.
var curveMeasure = sweep.Measure{WarmupCycles: 1000, EpochCycles: 2000, Epochs: 3}

// curveGaps is the stock load axis extended by one heavier level, as
// sweep.Curve advises when a curve does not saturate. On the stock axis,
// bitcomp-torus (contention-free, so its latency never rises) meets the
// detector's marginal-throughput threshold only at gap 0.5, and at some
// seeds (203 and 208 among 201-210) it narrowly misses it there.
var curveGaps = append(append([]float64(nil), sweep.DefaultCurveGaps...), 0.25)

// curveOpenCount mirrors the transaction budget the curve runner gives a
// load level, so the traced run can rerun simulated levels as points.
const curveOpenCount = 1 << 30

// curveSetupTrials is how many times a repetition compiles the curves;
// the set-up time reported is the median, as one compilation takes well
// under a millisecond.
const curveSetupTrials = 31

// compileCurves is the workload's set-up: scenario-to-curve compilation
// and one analytic estimator compilation and estimate per curve.
func compileCurves(seed int64, tr *tracer) ([]sweep.CurveSpec, error) {
	specs, err := scenario.Curves(scenario.Library())
	if err != nil {
		return nil, err
	}
	for i := range specs {
		specs[i].Mode = sweep.CurveModeUniform
		specs[i].Seed = seed
		specs[i].Measure = curveMeasure
		specs[i].Gaps = curveGaps
		est, err := sweep.NewEstimator(specs[i].Workload, specs[i].Fabric)
		if err != nil {
			return nil, fmt.Errorf("curve %s: %w", specs[i].Name, err)
		}
		t := time.Now()
		est.Estimate()
		tr.since("analytic.estimate", t)
	}
	return specs, nil
}

func runLibraryCurves(seed int64, tr *tracer) (*rep, error) {
	r := &rep{}
	defer tr.enter("rep")()

	var specs []sweep.CurveSpec
	var setups []float64
	for i := 0; i < curveSetupTrials; i++ {
		t := time.Now()
		var err error
		specs, err = compileCurves(seed, tr)
		setups = append(setups, tr.since("scenario.compile", t).Seconds())
		if err != nil {
			return nil, err
		}
	}
	setup := time.Duration(median(setups) * float64(time.Second))

	// One RunCurve (RunCurves of one spec) per curve, its levels spread
	// over the workers: each curve is a part of the repetition.
	runner := sweep.Runner{Workers: curveWorkers()}
	var curves []sweep.Curve
	for _, cs := range specs {
		t := time.Now()
		c, err := runner.RunCurve(cs)
		d := tr.since("sweep.curve", t)
		if err != nil {
			return nil, err
		}
		curves = append(curves, c)
		r.parts = append(r.parts, part{wall: d, simTime: d})
	}
	r.parts[0].setup = setup

	var buf bytes.Buffer
	if err := sweep.WriteCurvesJSON(&buf, curves); err != nil {
		return nil, err
	}
	r.digest = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))[:16]
	for i, c := range curves {
		r.check(c.Saturation != nil, "curve %s (seed %d) did not saturate", c.Name, seed)
		m := specs[i].Measure
		for _, lv := range c.Points {
			if lv.Estimated {
				r.count("sweep.levels_estimated", 1)
				continue
			}
			r.count("sweep.levels_simulated", 1)
			r.check(lv.Err == "", "curve %s gap %g: %s", c.Name, lv.MeanGap, lv.Err)
			// A level runs its warmup and then whole epochs.
			r.parts[i].simCycles += m.WarmupCycles + uint64(lv.Epochs)*m.EpochCycles
		}
	}
	if tr != nil {
		r.finish = func() error { return curveLevelCounts(r, specs, curves) }
	}
	return r, nil
}

// curveLevelCounts reruns every simulated level of a traced repetition as
// a sweep point, after the profile has stopped, to read the fabric counters
// the curve artifact does not carry. It also cross-checks the simulated
// cycles counted from the curve against the engines'.
func curveLevelCounts(r *rep, specs []sweep.CurveSpec, curves []sweep.Curve) error {
	var points []sweep.Point
	var nodes []int
	for i, c := range curves {
		cs := specs[i]
		for _, p := range c.Points {
			if p.Estimated {
				continue
			}
			w := cs.Workload
			w.MeanGap, w.Count = p.MeanGap, curveOpenCount
			m := cs.Measure
			m.DrainCycles = 0
			clk := cs.ClockPeriodNS
			if clk == 0 {
				clk = 5
			}
			points = append(points, sweep.Point{ID: len(points), Workload: w, Fabric: cs.Fabric,
				ClockPeriodNS: clk, Seed: cs.Seed, Measure: &m, Retry: cs.Retry})
			n := 0
			if cs.Fabric.Interconnect == sweep.FabricXPipes {
				n = cs.Fabric.MeshWidth * cs.Fabric.MeshHeight
			}
			nodes = append(nodes, n)
		}
	}
	results, err := sweep.Runner{Workers: curveWorkers()}.Run(points)
	if err != nil {
		return err
	}
	var cycles uint64
	for i, res := range results {
		cycles += res.Engine.Cycles
		r.count("noc.flits_routed", float64(res.FlitsRouted))
		r.count("noc.router_cycles", float64(nodes[i])*float64(res.Engine.Cycles))
		r.count("stochastic.transactions", float64(res.Transactions))
	}
	r.check(cycles == r.simCycles(), "curve levels ran %d simulated cycles, the curve artifact accounts for %d", cycles, r.simCycles())
	return nil
}
