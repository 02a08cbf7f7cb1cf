package noctg

import (
	"io"

	"noctg/internal/amba"
	"noctg/internal/analytic"
	"noctg/internal/cache"
	"noctg/internal/core"
	"noctg/internal/exp"
	"noctg/internal/guard"
	"noctg/internal/layout"
	"noctg/internal/noc"
	"noctg/internal/ocp"
	"noctg/internal/platform"
	"noctg/internal/prog"
	"noctg/internal/scenario"
	"noctg/internal/sim"
	"noctg/internal/stochastic"
	"noctg/internal/sweep"
	"noctg/internal/trace"
	"noctg/internal/valid"
)

// Core simulation types.
type (
	// Engine is the cycle-driven simulation kernel.
	Engine = sim.Engine
	// Clock converts between cycles and nanoseconds (default 5 ns/cycle).
	Clock = sim.Clock
	// AddrRange is a half-open byte-address range.
	AddrRange = ocp.AddrRange
	// Request is one OCP transaction request.
	Request = ocp.Request
	// Response is an OCP read response.
	Response = ocp.Response
	// MasterPort is the master-side OCP connection point.
	MasterPort = ocp.MasterPort
	// Event is one traced OCP transaction.
	Event = ocp.Event
)

// Trace types (.trc files, Figure 3(a)).
type (
	// Trace is a recorded master-interface communication trace.
	Trace = trace.Trace
)

// TG types (the paper's contribution).
type (
	// TGProgram is a traffic-generator program (.tgp / .bin content).
	TGProgram = core.Program
	// TGInst is one TG instruction (Table 1 + Halt).
	TGInst = core.Inst
	// TGDevice is the cycle-true TG processor model.
	TGDevice = core.Device
	// TranslateConfig parameterises trace→program translation.
	TranslateConfig = core.TranslateConfig
	// TranslateStats reports translation fidelity counters.
	TranslateStats = core.TranslateStats
	// PollRange declares a pollable address range and its poll period.
	PollRange = core.PollRange
	// MultiTaskTG schedules several TG programs on one port (§7).
	MultiTaskTG = core.MultiTask
	// MultiTaskConfig parameterises the multitasking scheduler.
	MultiTaskConfig = core.MultiTaskConfig
	// SlaveTG is the slave-side traffic generator of §4.
	SlaveTG = core.SlaveTG
	// SlaveMode selects dummy or memory-backed slave TG behaviour.
	SlaveMode = core.SlaveMode
)

// Slave TG modes.
const (
	// DummySlave answers reads with deterministic dummy values.
	DummySlave = core.DummySlave
	// MemorySlave keeps real word storage.
	MemorySlave = core.MemorySlave
)

// Platform types.
type (
	// PlatformConfig describes a platform instance.
	PlatformConfig = platform.Config
	// System is an assembled platform.
	System = platform.System
	// Master is any device that drives an OCP master port to completion.
	Master = platform.Master
	// BusConfig configures the AMBA AHB-style bus.
	BusConfig = amba.Config
	// NoCConfig configures the ×pipes-style mesh NoC.
	NoCConfig = noc.Config
	// CacheConfig configures one cache.
	CacheConfig = cache.Config
	// Interconnect selects the fabric (AMBA or XPipes).
	Interconnect = platform.Interconnect
	// KernelMode selects the simulation kernel (strict or event-driven).
	KernelMode = platform.KernelMode
)

// Interconnect kinds.
const (
	// AMBA is the shared-bus reference interconnect.
	AMBA = platform.AMBA
	// XPipes is the packet-switched mesh NoC.
	XPipes = platform.XPipes
)

// Simulation kernels.
const (
	// KernelAuto picks event for TG replay and strict for ARM reference runs.
	KernelAuto = platform.KernelAuto
	// KernelStrict ticks every device on every cycle.
	KernelStrict = platform.KernelStrict
	// KernelEvent ticks only devices whose scheduled wake is due, jumping
	// all-asleep spans; per-cycle cost scales with the awake set.
	KernelEvent = platform.KernelEvent
)

// ParseKernel converts a "-kernel" style string into a KernelMode.
var ParseKernel = platform.ParseKernel

// Benchmark and experiment types.
type (
	// Benchmark is one runnable SPMD workload specification.
	Benchmark = prog.Spec
	// Options selects the platform variant for experiments.
	Options = exp.Options
	// RefResult is a reference (ARM) run outcome.
	RefResult = exp.RefResult
	// TGResult is a TG-platform run outcome.
	TGResult = exp.TGResult
	// Row is one Table 2 measurement line.
	Row = exp.Row
	// Sizes parameterises the Table 2 benchmark sweep.
	Sizes = exp.Sizes
	// CrossCheckResult is the cross-interconnect equality outcome.
	CrossCheckResult = exp.CrossCheckResult
	// StochasticConfig describes a statistical baseline generator.
	StochasticConfig = stochastic.Config
	// Dist selects a stochastic inter-arrival distribution.
	Dist = stochastic.Dist
	// SpatialPattern selects a spatial destination pattern.
	SpatialPattern = stochastic.Pattern
	// Spatial configures a spatial pattern over a logical master grid.
	Spatial = stochastic.Spatial
	// SpatialSampler is a compiled spatial pattern (per-draw destinations).
	SpatialSampler = stochastic.Sampler
	// MMPPConfig is the Markov-modulated (on/off burst chain) arrival
	// process: per-state mean gaps with exponential or deterministic dwells.
	MMPPConfig = stochastic.MMPP
	// SelfSimilarConfig is the superposed Pareto on/off arrival process
	// with a configurable target Hurst exponent.
	SelfSimilarConfig = stochastic.SelfSimilar
	// NoCTopology selects the ×pipes link structure (mesh or torus).
	NoCTopology = noc.Topology
)

// Stochastic distributions (Lahiri et al. [6]).
const (
	// Uniform draws gaps uniformly around the mean.
	Uniform = stochastic.Uniform
	// Gaussian draws normally distributed gaps.
	Gaussian = stochastic.Gaussian
	// Poisson draws exponential gaps.
	Poisson = stochastic.Poisson
	// Bursty alternates back-to-back bursts with long off periods.
	Bursty = stochastic.Bursty
)

// Spatial traffic patterns (the classic NoC evaluation set).
const (
	// UniformRandom draws destinations uniformly over all nodes.
	UniformRandom = stochastic.UniformRandom
	// Transpose sends node (x, y) to node (y, x) on a square grid.
	Transpose = stochastic.Transpose
	// BitComplement sends node i to ^i on a power-of-two grid.
	BitComplement = stochastic.BitComplement
	// BitReverse sends node i to its bit-reversed index.
	BitReverse = stochastic.BitReverse
	// Hotspot pulls a weighted fraction of traffic to hotspot nodes.
	Hotspot = stochastic.Hotspot
	// NearestNeighbor draws among the wrapped grid neighbours.
	NearestNeighbor = stochastic.NearestNeighbor
)

// NoC topologies.
const (
	// Mesh is the open 2-D grid.
	Mesh = noc.Mesh
	// Torus closes rows and columns into deadlock-free rings.
	Torus = noc.Torus
)

// Spatial pattern and topology helpers.
var (
	// ParsePattern converts a "-pattern" style string into a SpatialPattern.
	ParsePattern = stochastic.ParsePattern
	// NewSpatialSampler validates and compiles a spatial pattern.
	NewSpatialSampler = stochastic.NewSampler
	// ParseTopology converts a "mesh"/"torus" string into a NoCTopology.
	ParseTopology = noc.ParseTopology
)

// Benchmarks (the paper's Table 2 workloads).
var (
	// SPMatrix builds the single-processor matrix benchmark (n×n).
	SPMatrix = prog.SPMatrix
	// Cacheloop builds the cache-resident scaling benchmark.
	Cacheloop = prog.Cacheloop
	// MPMatrix builds the shared-memory multiprocessor matrix benchmark.
	MPMatrix = prog.MPMatrix
	// DES builds the table-driven Feistel encryption benchmark.
	DES = prog.DES
	// Pipeline builds the flag-handshake dataflow chain benchmark (an
	// addition beyond the paper's four workloads).
	Pipeline = prog.Pipeline
)

// The TG flow (Sections 4–5).
var (
	// Translate converts one trace into a TG program.
	Translate = core.Translate
	// DefaultTranslateConfig returns the reactive translation setup.
	DefaultTranslateConfig = core.DefaultTranslateConfig
	// AssembleTGP parses .tgp text into a program.
	AssembleTGP = core.Assemble
	// ReadBin parses a .bin TG image.
	ReadBin = core.ReadBin
	// NewTGDevice builds a TG processor over an OCP port.
	NewTGDevice = core.NewDevice
	// NewMultiTaskTG builds a multitasking TG master.
	NewMultiTaskTG = core.NewMultiTask
	// NewSlaveTG builds a slave-side TG.
	NewSlaveTG = core.NewSlaveTG
	// ParseTrace reads a .trc stream.
	ParseTrace = trace.Parse
	// NewTrace wraps monitor events as a trace.
	NewTrace = trace.New
)

// Platform assembly (Figure 1).
var (
	// BuildARM assembles a platform of miniARM cores running programs.
	BuildARM = platform.BuildARM
	// BuildTG assembles a platform of TG devices (Figure 1(b)).
	BuildTG = platform.BuildTG
	// Build assembles a platform with a custom master factory.
	Build = platform.Build
	// NewStochastic builds a statistical baseline master.
	NewStochastic = stochastic.New
)

// Experiment harness (Section 6).
var (
	// DefaultOptions returns the reference AMBA platform options.
	DefaultOptions = exp.DefaultOptions
	// RunReference executes a benchmark on cycle-true cores.
	RunReference = exp.RunReference
	// TranslateAll converts per-master traces into TG programs.
	TranslateAll = exp.TranslateAll
	// RunTG executes translated programs on the TG platform.
	RunTG = exp.RunTG
	// PollRangesFor returns a benchmark's pollable ranges.
	PollRangesFor = exp.PollRangesFor
	// MeasureRow produces one Table 2 row.
	MeasureRow = exp.MeasureRow
	// Table2 measures the full benchmark sweep.
	Table2 = exp.Table2
	// FormatTable2 renders rows in the paper's layout.
	FormatTable2 = exp.FormatTable2
	// DefaultSizes mirrors the paper's benchmark sweep.
	DefaultSizes = exp.DefaultSizes
	// QuickSizes is a fast smoke-test sweep.
	QuickSizes = exp.QuickSizes
	// CrossCheck verifies .tgp equality across interconnects.
	CrossCheck = exp.CrossCheck
)

// Memory map of the MPARM-like platform.
var (
	// PrivBaseFor returns core i's private memory base.
	PrivBaseFor = layout.PrivBaseFor
	// PrivRange returns core i's private memory range.
	PrivRange = layout.PrivRange
	// SharedRange returns the shared memory range.
	SharedRange = layout.SharedRange
	// SemRange returns the hardware semaphore bank range.
	SemRange = layout.SemRange
	// SemAddr returns the address of semaphore i.
	SemAddr = layout.SemAddr
)

// Parallel sweep types (the design-space exploration runner).
type (
	// SweepGrid is a workloads × fabrics × clocks × seeds parameter grid.
	SweepGrid = sweep.Grid
	// SweepWorkload names one traffic source of a grid.
	SweepWorkload = sweep.Workload
	// SweepArrival selects an arrival process (MMPP or self-similar) as a
	// workload's temporal axis, replacing dist/mean_gap.
	SweepArrival = sweep.Arrival
	// SweepFabric names one interconnect configuration of a grid.
	SweepFabric = sweep.Fabric
	// SweepPoint is one fully-specified grid configuration.
	SweepPoint = sweep.Point
	// SweepResult is the deterministic outcome of one grid point.
	SweepResult = sweep.Result
	// SweepRunner executes grid points over a bounded worker pool.
	SweepRunner = sweep.Runner
	// PaperSelect chooses experiment families for RunPaper.
	PaperSelect = sweep.PaperSelect
	// PaperResults aggregates the paper's experiments from one parallel run.
	PaperResults = sweep.PaperResults
	// EngineSnapshot is a serialisable end-of-run kernel capture.
	EngineSnapshot = sim.Snapshot
	// Fig2aResult is the Figure 2(a) transaction-semantics outcome.
	Fig2aResult = exp.Fig2aResult
	// Fig2bResult is the Figure 2(b) reactivity outcome.
	Fig2bResult = exp.Fig2bResult
)

// Phased measurement types (the warmup/measure/drain methodology).
type (
	// SweepMeasure configures the phased measurement methodology for a
	// grid or point: warmup window, fixed or CI-adaptive measurement
	// epochs, drain window.
	SweepMeasure = sweep.Measure
	// SweepPhaseStats is the phased extension of a SweepResult: phase
	// windows and per-epoch statistics.
	SweepPhaseStats = sweep.PhaseStats
	// SweepEpochStat is one measurement epoch's aggregated statistics.
	SweepEpochStat = sweep.EpochStat
	// CurveSpec names one load-latency curve: a stochastic workload swept
	// over an injection-load axis with phased measurement per level.
	CurveSpec = sweep.CurveSpec
	// Curve is a measured load-latency curve with its saturation point.
	Curve = sweep.Curve
	// CurvePoint is one measured load level of a curve.
	CurvePoint = sweep.CurvePoint
	// StatsRegistry is the unified per-system stats registry devices
	// register their counters and histograms with.
	StatsRegistry = sim.Registry
	// StatsCounter is a zero-allocation registry-resettable counter.
	StatsCounter = sim.Counter
)

// Analytic-estimator types (the closed-form queueing model behind
// adaptive curves, the grid pre-pass and the -print-scenarios columns).
type (
	// AnalyticSpec is one estimated configuration: fabric geometry plus the
	// per-master traffic descriptors.
	AnalyticSpec = analytic.Spec
	// AnalyticEstimator is the compiled closed-form model for one spec.
	AnalyticEstimator = analytic.Estimator
	// AnalyticEstimate is a point prediction: zero-load latency, saturation
	// knee, throughput ceiling and structural error bars.
	AnalyticEstimate = analytic.Estimate
	// AnalyticReport is the -analytic pre-pass artifact: every consulted
	// configuration with its prediction (or rejection), in sweep order.
	AnalyticReport = analytic.Report
)

// Analytic-estimator entry points.
var (
	// NewAnalyticEstimator compiles the closed-form model for a spec.
	NewAnalyticEstimator = analytic.New
	// SweepAnalyticSpec converts a stochastic sweep workload/fabric pair
	// into the estimator's specification (same floorplan and traffic
	// descriptors a simulation of the point would use).
	SweepAnalyticSpec = sweep.AnalyticSpec
	// SweepEstimator compiles the estimator for a workload/fabric pair.
	SweepEstimator = sweep.NewEstimator
	// SweepAnalyticReport predicts every distinct stochastic configuration
	// in a point list.
	SweepAnalyticReport = sweep.AnalyticReport
	// PredictedKneeGap predicts the mean gap at which the curve-level
	// saturation detector fires (resource knee or marginal-throughput
	// knee, whichever is at lighter load).
	PredictedKneeGap = sweep.PredictedKneeGap
)

// Curve traversal modes for CurveSpec.Mode.
const (
	// CurveModeUniform simulates every load level (the default).
	CurveModeUniform = sweep.CurveModeUniform
	// CurveModeAdaptive seeds levels from the analytic knee, simulates
	// densely around it, and records skipped levels as estimated points.
	CurveModeAdaptive = sweep.CurveModeAdaptive
)

// Generator-validation types (the fidelity harness: open-loop source
// capture checked against analytic arrival-process expectations).
type (
	// ValidationSource pairs a stochastic generator configuration with its
	// analytic expectations (rate, gap CDF, IDC band, Hurst band, class
	// shares).
	ValidationSource = valid.Source
	// ValidationCheck is one fidelity assertion of a report.
	ValidationCheck = valid.Check
	// ValidationSourceReport is one source's fidelity result.
	ValidationSourceReport = valid.SourceReport
	// ValidationReport is the full deterministic fidelity report
	// (byte-identical across kernels and worker counts).
	ValidationReport = valid.Report
)

// Generator-validation entry points.
var (
	// StockValidationSources returns the CI fidelity suite: one source per
	// arrival model with tuned analytic bands.
	StockValidationSources = valid.StockSources
	// ValidateSources runs sources through the open-loop harness over a
	// worker pool and aggregates the fidelity report.
	ValidateSources = valid.Validate
	// CheckValidationSource captures and checks a single source.
	CheckValidationSource = valid.CheckSource
	// ValidationSourceFromPoint derives a validation source (with every
	// analytic expectation the configuration supports) from a sweep point.
	ValidationSourceFromPoint = valid.FromPoint
	// BurstyGrid returns the stock bursty/self-similar/priority sweep grid
	// pinned by the golden and differential matrices.
	BurstyGrid = sweep.BurstyGrid
	// TQuantile returns the two-sided 95% Student-t quantile used by the
	// adaptive sweep stop rule and the offered-load CI check.
	TQuantile = sweep.TQuantile
)

// Guard types (the hardening layer: invariant watchdogs, structured
// violation diagnostics, deterministic fault injection).
type (
	// GuardConfig selects which watchdogs run and their thresholds.
	GuardConfig = guard.Config
	// GuardViolation is the typed error a fired watchdog returns instead of
	// a panic or a hang.
	GuardViolation = guard.Violation
	// GuardDiagnostic is the structured dump attached to violations.
	GuardDiagnostic = guard.Diagnostic
	// FaultPlan is a deterministic, seeded fault-injection plan (test
	// stimulus proving the watchdogs fire).
	FaultPlan = guard.FaultPlan
)

// Guard entry points.
var (
	// DefaultGuard returns the full watchdog set with default thresholds.
	DefaultGuard = guard.Default
	// AsViolation unwraps an error to the *GuardViolation it carries.
	AsViolation = guard.AsViolation
	// RandomFaultPlan derives a reproducible fabric fault plan from a seed.
	RandomFaultPlan = guard.RandomPlan
)

// Crash-safe campaign types (the write-ahead journal under the sweep
// runner: journaled execution, byte-identical resume, typed retries).
type (
	// SweepJournalConfig selects the journal file and resume mode for
	// SweepRunner.RunJournaled.
	SweepJournalConfig = sweep.JournalConfig
	// SweepJournalStatus reports how a journaled run went: points resumed
	// from the journal, ran fresh, skipped by a graceful drain, and
	// whether a torn journal tail was truncated.
	SweepJournalStatus = sweep.JournalStatus
	// SweepRetryPolicy governs transient-failure retries and the per-point
	// wall-clock deadline (execution-only: results never change).
	SweepRetryPolicy = sweep.RetryPolicy
)

// Crash-safe campaign entry points.
var (
	// SweepPointKey is a point's stable journal identity: a hash of its
	// result-determining configuration, excluding execution-only knobs.
	SweepPointKey = sweep.PointKey
	// ErrSweepDrained reports that a graceful drain (SIGINT/SIGTERM)
	// skipped unstarted points; the journal holds everything finished.
	ErrSweepDrained = sweep.ErrDrained
)

// ResumeSweep resumes a journaled campaign on a default runner: completed
// points come from the journal at path, the rest run, and the results are
// byte-identical to an uninterrupted journaled run. Use
// SweepRunner.Resume (or RunJournaled) to set workers, kernel, shards,
// guard or retry policy.
func ResumeSweep(points []SweepPoint, path string) ([]SweepResult, SweepJournalStatus, error) {
	return SweepRunner{}.Resume(points, path)
}

// Scenario types (the declarative layer over the sweep runner).
type (
	// ScenarioSpec is one declarative traffic scenario: fabric, topology,
	// logical core grid, spatial pattern, injection distribution and the
	// load/clock/seed axes.
	ScenarioSpec = scenario.Spec
)

// Scenario entry points.
var (
	// ParseScenarios reads a scenario JSON file (one spec or an array).
	ParseScenarios = scenario.Parse
	// ScenarioLibrary returns the stock pattern × topology scenario set.
	ScenarioLibrary = scenario.Library
	// ScenarioByName returns one library scenario.
	ScenarioByName = scenario.ByName
	// ScenarioPoints compiles scenarios into runnable sweep points.
	ScenarioPoints = scenario.Points
	// ScenarioCurves compiles scenarios into load-latency curve specs.
	ScenarioCurves = scenario.Curves
	// ScenarioGrid returns the pattern × topology sweep the golden-file
	// harness locks down.
	ScenarioGrid = sweep.ScenarioGrid
)

// Parallel sweep entry points.
var (
	// DefaultGrid returns the stock 16-configuration sweep.
	DefaultGrid = sweep.DefaultGrid
	// ParseGrid reads a JSON grid description.
	ParseGrid = sweep.ParseGrid
	// WriteSweepJSON renders sweep results as deterministic JSON.
	WriteSweepJSON = sweep.WriteJSON
	// WriteSweepCSV renders sweep results as deterministic CSV.
	WriteSweepCSV = sweep.WriteCSV
	// WriteCurvesJSON renders load-latency curves as deterministic JSON.
	WriteCurvesJSON = sweep.WriteCurvesJSON
	// WriteCurvesCSV renders load-latency curves as deterministic CSV.
	WriteCurvesCSV = sweep.WriteCurvesCSV
	// RunPaper executes every paper experiment as one parallel invocation.
	RunPaper = sweep.RunPaper
	// RunPaperSelect executes the selected experiment families in parallel.
	RunPaperSelect = sweep.RunPaperSelect
	// Fig2a measures the posted-write vs blocking-read experiment.
	Fig2a = exp.Fig2a
	// Fig2b measures the semaphore-reactivity experiment.
	Fig2b = exp.Fig2b
)

// WriteTGP renders a TG program as canonical .tgp text.
func WriteTGP(p *TGProgram, w io.Writer) error { return p.Format(w) }

// WriteBin serialises a TG program as a .bin image.
func WriteBin(p *TGProgram, w io.Writer) error { return p.WriteBin(w) }

// WriteTrace renders a trace in .trc format.
func WriteTrace(t *Trace, w io.Writer) error { return t.Write(w) }
