package sweep

import (
	"errors"
	"fmt"

	"noctg/internal/amba"
	"noctg/internal/exp"
	"noctg/internal/platform"
	"noctg/internal/prog"
)

// PaperSelect chooses which experiment families RunPaperSelect executes.
type PaperSelect struct {
	Table2     bool
	CrossCheck bool
	Overhead   bool
	Ablation   bool
	Fig2       bool
}

// AllPaper selects every experiment family.
func AllPaper() PaperSelect {
	return PaperSelect{Table2: true, CrossCheck: true, Overhead: true, Ablation: true, Fig2: true}
}

// PaperResults aggregates the paper's Section 3/6 experiments, each slot
// filled by an independent task of one parallel sweep invocation.
type PaperResults struct {
	// Table2 rows, in Sizes.Specs order.
	Table2 []*exp.Row
	// CrossChecks holds the .tgp equality results per benchmark.
	CrossChecks []*exp.CrossCheckResult
	// Overhead is the trace-collection cost experiment.
	Overhead *exp.OverheadResult
	// Fidelity is the generator-model ablation (trace AMBA → replay ×pipes).
	Fidelity []*exp.FidelityRow
	// Arbitration is the bus arbitration-policy ablation.
	Arbitration []*exp.ArbitrationRow
	// Fig2a / Fig2b are the transaction-semantics and reactivity figures.
	Fig2a *exp.Fig2aResult
	Fig2b *exp.Fig2bResult
}

// RunPaper executes every paper experiment as one parallel invocation.
func RunPaper(sizes exp.Sizes, opt exp.Options, workers int) (*PaperResults, error) {
	return RunPaperSelect(sizes, opt, workers, AllPaper())
}

// RunPaperSelect fans the selected experiment families out over one worker
// pool: every Table 2 row, cross-check benchmark, ablation and figure is an
// independent task with its own engines, so the whole evaluation runs at
// host-core parallelism while producing exactly the simulated-cycle results
// of the sequential harness. Wall-clock metrics (Row.WallARM/WallTG/Gain,
// OverheadResult durations) contend for host cores when workers > 1; run
// with workers == 1 when timing fidelity matters.
func RunPaperSelect(sizes exp.Sizes, opt exp.Options, workers int, sel PaperSelect) (*PaperResults, error) {
	res := &PaperResults{}
	var tasks []func() error

	if sel.Table2 {
		specs := sizes.Specs()
		res.Table2 = make([]*exp.Row, len(specs))
		for i, spec := range specs {
			i, spec := i, spec
			tasks = append(tasks, func() error {
				row, err := exp.MeasureRow(spec, opt)
				if err != nil {
					return fmt.Errorf("table2 %s/%dP: %w", spec.Name, spec.Cores, err)
				}
				res.Table2[i] = row
				return nil
			})
		}
	}
	if sel.CrossCheck {
		specs := crossCheckSpecs(sizes)
		res.CrossChecks = make([]*exp.CrossCheckResult, len(specs))
		for i, spec := range specs {
			i, spec := i, spec
			tasks = append(tasks, func() error {
				cc, err := exp.CrossCheck(spec, opt)
				if err != nil {
					return fmt.Errorf("crosscheck %s: %w", spec.Name, err)
				}
				res.CrossChecks[i] = cc
				return nil
			})
		}
	}
	if sel.Overhead {
		tasks = append(tasks, func() error {
			o, err := exp.MeasureOverhead(prog.MPMatrix(4, sizes.MPMatrixN), opt)
			if err != nil {
				return fmt.Errorf("overhead: %w", err)
			}
			res.Overhead = o
			return nil
		})
	}
	if sel.Ablation {
		tasks = append(tasks, func() error {
			target := opt
			target.Platform.Interconnect = platform.XPipes
			rows, err := exp.AblationGenerators(prog.MPMatrix(4, sizes.MPMatrixN), opt, target)
			if err != nil {
				return fmt.Errorf("ablation generators: %w", err)
			}
			res.Fidelity = rows
			return nil
		})
		tasks = append(tasks, func() error {
			rows, err := exp.AblationArbitration(prog.MPMatrix(4, sizes.MPMatrixN), opt,
				[]amba.Policy{amba.RoundRobin, amba.FixedPriority, amba.TDMA})
			if err != nil {
				return fmt.Errorf("ablation arbitration: %w", err)
			}
			res.Arbitration = rows
			return nil
		})
	}
	if sel.Fig2 {
		tasks = append(tasks, func() error {
			f, err := exp.Fig2a(opt)
			if err != nil {
				return fmt.Errorf("fig2a: %w", err)
			}
			res.Fig2a = f
			return nil
		})
		tasks = append(tasks, func() error {
			f, err := exp.Fig2b(prog.MPMatrix(2, sizes.MPMatrixN), opt)
			if err != nil {
				return fmt.Errorf("fig2b: %w", err)
			}
			res.Fig2b = f
			return nil
		})
	}

	if err := errors.Join(RunDrained(workers, tasks, opt.Interrupted)...); err != nil {
		return res, err
	}
	return res, nil
}

// crossCheckSpecs is the cross-check benchmark set: one representative per
// multi-master workload family.
func crossCheckSpecs(sizes exp.Sizes) []*prog.Spec {
	return []*prog.Spec{
		prog.Cacheloop(2, sizes.CacheloopIters),
		prog.MPMatrix(4, sizes.MPMatrixN),
		prog.DES(3, sizes.DESBlocks),
	}
}
