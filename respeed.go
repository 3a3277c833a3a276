// Package respeed reproduces "A different re-execution speed can help"
// (Benoit, Cavelan, Le Fèvre, Robert, Sun — INRIA RR-8888 / ICPP 2016):
// energy-optimal checkpointing of divisible-load applications on
// DVFS-capable platforms subject to silent errors, where re-executions
// after a detected error may run at a different speed than the first
// attempt.
//
// The public API wraps the internal packages:
//
//   - Model evaluation: expected time and energy of a verified-checkpoint
//     pattern (Propositions 1–3 of the paper), first-order overheads, and
//     the combined fail-stop + silent model of Section 5.
//   - Optimization: the BiCrit solver (Theorem 1 and the O(K²) pair
//     procedure), single-speed baselines, and the exact numeric optimizer.
//   - Platform catalog: the paper's four platforms and two processors.
//   - Simulation: Monte-Carlo pattern replication and a full-stack
//     executable simulator with real workloads, fault injection, digest
//     verification, and checkpoint storage.
//
// Quick start:
//
//	cfg, _ := respeed.ConfigByName("Hera/XScale")
//	sol, err := respeed.Solve(cfg, 3.0)
//	// sol.Best: σ1=0.4, σ2=0.4, W≈2764, E/W≈416
package respeed

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"time"

	"respeed/internal/admit"
	"respeed/internal/core"
	"respeed/internal/energy"
	"respeed/internal/engine"
	"respeed/internal/exp"
	"respeed/internal/fleet"
	"respeed/internal/jobs"
	"respeed/internal/obs"
	"respeed/internal/optimize"
	"respeed/internal/platform"
	"respeed/internal/report"
	"respeed/internal/rngx"
	"respeed/internal/schedule"
	"respeed/internal/serve"
	"respeed/internal/sim"
	"respeed/internal/spec"
	"respeed/internal/trace"
	"respeed/internal/workload"
)

// Re-exported model types. See the internal packages for full method
// documentation.
type (
	// Params holds the silent-error model constants (λ, C, V, R, κ,
	// Pidle, Pio).
	Params = core.Params
	// CombinedParams adds fail-stop errors (Section 5).
	CombinedParams = core.CombinedParams
	// FailStopParams is the fail-stop-only setting of Theorem 2.
	FailStopParams = core.FailStopParams
	// Solution and PairResult are the solver outputs.
	Solution   = core.Solution
	PairResult = core.PairResult
	// Platform, Processor and Config form the parameter catalog.
	Platform  = platform.Platform
	Processor = platform.Processor
	Config    = platform.Config
	// PowerModel prices energy.
	PowerModel = energy.Model
	// Plan, Costs, Estimate, ExecConfig and ExecReport drive simulation.
	Plan       = sim.Plan
	Costs      = sim.Costs
	Estimate   = sim.Estimate
	ExecConfig = sim.ExecConfig
	ExecReport = sim.ExecReport
	// Workload is a checkpointable divisible-load kernel.
	Workload = workload.Workload
	// Trace records simulated schedules.
	Trace = trace.Recorder
	// Experiment and ExperimentResult expose the paper's evaluation.
	Experiment       = exp.Experiment
	ExperimentResult = exp.Result
	ExperimentOpts   = exp.Options
)

// ErrInfeasible reports that no pattern size (or no speed pair) satisfies
// the requested performance bound.
var ErrInfeasible = core.ErrInfeasible

// Configs returns the paper's eight platform/processor configurations.
func Configs() []Config { return platform.Configs() }

// ConfigByName looks up a catalog configuration such as "Hera/XScale" or
// "Atlas/Crusoe".
func ConfigByName(name string) (Config, bool) { return platform.ByName(name) }

// ConfigNames lists the catalog configuration names, sorted.
func ConfigNames() []string { return platform.Names() }

// ParamsFor extracts model parameters from a configuration.
func ParamsFor(cfg Config) Params { return core.FromConfig(cfg) }

// Solve runs the paper's O(K²) BiCrit procedure for a configuration:
// minimize expected energy per work unit subject to expected time per
// work unit ≤ rho, choosing the pattern size W and the speed pair
// (σ1, σ2) from the processor's speed set.
//
// Solve (like SolveSingleSpeed, Sigma1Table and TwoSpeedGain) goes
// through the process-wide solver-grid memo: per-pair invariants are
// derived once per configuration and whole solutions once per
// (configuration, rho), bit-identical to the direct Params methods.
func Solve(cfg Config, rho float64) (Solution, error) {
	g, err := core.GridFor(core.FromConfig(cfg), cfg.Processor.Speeds)
	if err != nil {
		return Solution{}, err
	}
	return g.Solve(rho)
}

// SolveSingleSpeed solves the one-speed baseline (σ2 = σ1).
func SolveSingleSpeed(cfg Config, rho float64) (Solution, error) {
	g, err := core.GridFor(core.FromConfig(cfg), cfg.Processor.Speeds)
	if err != nil {
		return Solution{}, err
	}
	return g.SolveSingleSpeed(rho)
}

// SolveExact cross-validates Solve by minimizing the exact (un-truncated)
// expectations numerically. Returns the best pair and the full grid.
func SolveExact(cfg Config, rho float64) (optimize.Result, []optimize.Result, error) {
	return optimize.Solve(core.FromConfig(cfg), cfg.Processor.Speeds, rho)
}

// Sigma1Table reproduces one row block of the paper's Section 4.2
// tables: for each σ1, the best re-execution speed σ2, Wopt, and the
// energy overhead under bound rho.
func Sigma1Table(cfg Config, rho float64) []PairResult {
	p := core.FromConfig(cfg)
	g, err := core.GridFor(p, cfg.Processor.Speeds)
	if err != nil {
		return p.Sigma1Table(cfg.Processor.Speeds, rho)
	}
	return g.Sigma1Table(rho)
}

// TwoSpeedGain returns the relative energy saving of the two-speed
// optimum over the single-speed optimum at bound rho.
func TwoSpeedGain(cfg Config, rho float64) (float64, error) {
	g, err := core.GridFor(core.FromConfig(cfg), cfg.Processor.Speeds)
	if err != nil {
		return 0, err
	}
	return g.TwoSpeedGain(rho)
}

// PowerModelFor builds the energy model of a configuration.
func PowerModelFor(cfg Config) PowerModel {
	return energy.Model{Kappa: cfg.Processor.Kappa, Pidle: cfg.Processor.Pidle, Pio: cfg.Pio}
}

// SimulatePatterns replicates n Monte-Carlo executions of a pattern plan
// under the configuration's costs and returns aggregate statistics
// directly comparable with Params.ExpectedTime / ExpectedEnergy.
// The run is deterministic in seed.
func SimulatePatterns(cfg Config, plan Plan, n int, seed uint64) (Estimate, error) {
	p := core.FromConfig(cfg)
	costs := Costs{C: p.C, V: p.V, R: p.R, LambdaS: p.Lambda}
	return sim.Replicate(plan, costs, PowerModelFor(cfg), rngx.NewStream(seed, "respeed/simulate"), n)
}

// RunWorkload executes a real state-carrying workload to completion under
// the verified-checkpoint protocol with injected faults, and reports
// makespan, energy, error/detection counts and the final state digest.
// The run is deterministic in seed.
func RunWorkload(cfg ExecConfig, w Workload, seed uint64) (ExecReport, error) {
	e, err := sim.NewExecSim(cfg, sim.FromWorkload(w), rngx.NewStream(seed, "respeed/exec"))
	if err != nil {
		return ExecReport{}, err
	}
	return e.Run()
}

// NewHeatWorkload, NewStreamWorkload and NewMatVecWorkload construct the
// bundled divisible-load kernels.
func NewHeatWorkload(cells int, alpha float64) Workload { return workload.NewHeat(cells, alpha) }

// NewStreamWorkload constructs the PRNG-stream reduction kernel.
func NewStreamWorkload(seed uint64, blockLen int) Workload {
	return workload.NewStream(seed, blockLen)
}

// NewMatVecWorkload constructs the power-iteration kernel.
func NewMatVecWorkload(n int) Workload { return workload.NewMatVec(n) }

// NewTrace creates a schedule recorder (limit 0 = unbounded).
func NewTrace(limit int) *Trace { return trace.New(limit) }

// Experiments returns the registered paper experiments (tables, figures,
// validation and ablation studies), sorted by ID.
func Experiments() []Experiment { return exp.All() }

// ExperimentByID looks up one experiment ("table-rho3", "figure-2", ...).
func ExperimentByID(id string) (Experiment, bool) { return exp.Lookup(id) }

// DefaultExperimentOpts are the options behind the committed
// EXPERIMENTS.md numbers.
func DefaultExperimentOpts() ExperimentOpts { return exp.DefaultOptions() }

// WriteExperimentJSON encodes an experiment result as indented JSON.
func WriteExperimentJSON(w io.Writer, res ExperimentResult) error {
	return exp.WriteJSON(w, res)
}

// PlanApplication builds an end-to-end execution plan for an application
// of totalWork work units under bound rho: the BiCrit solution, the
// pattern partition, and exact expected makespan/energy (Section 2.3 of
// the paper applied, with an exact final partial pattern).
func PlanApplication(cfg Config, rho, totalWork float64) (AppPlan, error) {
	return schedule.Plan(cfg, rho, totalWork)
}

// AppPlan is an end-to-end application execution plan.
type AppPlan = schedule.AppPlan

// SimulatePatternsParallel is SimulatePatterns fanned out over a bounded
// worker pool; deterministic in (seed, n) independent of worker count.
func SimulatePatternsParallel(cfg Config, plan Plan, n int, seed uint64, workers int) (Estimate, error) {
	return SimulatePatternsParallelCtx(context.Background(), cfg, plan, n, seed, workers)
}

// SimulatePatternsParallelCtx is SimulatePatternsParallel with
// cancellation: once ctx is cancelled the fan-out stops promptly and
// the context's error is returned.
func SimulatePatternsParallelCtx(ctx context.Context, cfg Config, plan Plan, n int, seed uint64, workers int) (Estimate, error) {
	p := core.FromConfig(cfg)
	costs := Costs{C: p.C, V: p.V, R: p.R, LambdaS: p.Lambda}
	return sim.ReplicateParallelCtx(ctx, plan, costs, PowerModelFor(cfg), seed, n, workers)
}

// SolveCombined solves the BiCrit problem numerically under both
// fail-stop and silent errors (the general case the paper leaves open),
// using the exact Equation (8) recursion expectations.
func SolveCombined(cp CombinedParams, speeds []float64, rho float64) (optimize.CombinedResult, []optimize.CombinedResult, error) {
	return optimize.SolveCombined(cp, speeds, rho)
}

// SolveContinuous relaxes the discrete speed set to the continuous box
// [lo, hi]² — the discretization-loss ablation.
func SolveContinuous(cfg Config, lo, hi, rho float64) optimize.ContinuousResult {
	return optimize.SolveContinuous(core.FromConfig(cfg), lo, hi, rho, cfg.Processor.Speeds)
}

// AnalyzeTrace computes the waste breakdown (useful compute vs
// re-execution, verification, checkpoint and recovery time) of a
// recorded schedule.
func AnalyzeTrace(events []trace.Event) (trace.Waste, error) {
	return trace.Analyze(events)
}

// NewHeat2DWorkload constructs the 2-D stencil kernel (large checkpoint
// state).
func NewHeat2DWorkload(n int, alpha float64) Workload { return workload.NewHeat2D(n, alpha) }

// PartialPattern configures the intermediate-partial-verification
// extension; PartialSolution is its optimum.
type (
	PartialPattern  = core.PartialPattern
	PartialSolution = core.PartialSolution
)

// OptimalSegments finds the best number of intermediate partial
// verifications (and the pattern size) for a configuration at bound rho.
func OptimalSegments(cfg Config, tpl PartialPattern, s1, s2, rho float64, maxM int) (PartialSolution, error) {
	return core.FromConfig(cfg).OptimalSegments(tpl, s1, s2, rho, maxM)
}

// WriteExperimentReport renders a set of experiment results as one
// Markdown document.
func WriteExperimentReport(w io.Writer, results []ExperimentResult) error {
	return report.Write(w, results, report.Options{
		Title: "respeed experiment report",
	})
}

// Serving layer: the cached HTTP planning service behind cmd/respeedd.
// Solves are pure functions of (config, ρ, speeds), so the server
// memoizes them in an LRU cache, deduplicates identical concurrent
// queries, bounds in-flight solver work, and reports cache hit rates
// and latency quantiles on /metrics.
type (
	// ServeOptions configures the planning service (zero value =
	// defaults).
	ServeOptions = serve.Options
	// PlanningServer is the HTTP planning service.
	PlanningServer = serve.Server
	// ServerMetrics is the /metrics payload shape.
	ServerMetrics = serve.MetricsSnapshot
)

// NewPlanningServer builds the cached BiCrit planning service over the
// platform catalog. Serve it with (*PlanningServer).Run (graceful
// drain on context cancellation) or mount (*PlanningServer).Handler.
func NewPlanningServer(opts ServeOptions) *PlanningServer { return serve.New(opts) }

// Edge QoS: admission control and priority lanes ahead of compute.
// An AdmissionPolicy sheds excess arrivals at the door (429 +
// Retry-After) before any solver work is spent; an AdmitLane bounds
// work in flight per traffic class with a bounded wait queue, so a
// microsecond solve never queues behind a multi-second Monte-Carlo
// simulation. Wire a policy into ServeOptions.Admission, and share one
// heavy AdmitLane between ServeOptions.HeavyLane and
// JobManagerOptions.Gate so interactive simulations and campaign
// shards respect a single compute bound.
type (
	// AdmissionPolicy decides, per request, whether compute may be
	// spent on it.
	AdmissionPolicy = admit.Policy
	// AdmitRequest is the admission-relevant shape of one request.
	AdmitRequest = admit.Request
	// AdmitDecision is a policy's verdict (plus a Retry-After hint for
	// shed requests).
	AdmitDecision = admit.Decision
	// AdmitLane is one priority class's compute bound: a slot
	// semaphore with a bounded foreground wait queue.
	AdmitLane = admit.Lane
)

// Overload modes for a saturated heavy lane
// (ServeOptions.OverloadMode).
const (
	// OverloadReject answers 429 with a Retry-After hint.
	OverloadReject = serve.OverloadReject
	// OverloadDegrade answers a reduced-replica estimate marked
	// "partial": true, with a correspondingly wider confidence
	// interval, instead of shedding.
	OverloadDegrade = serve.OverloadDegrade
)

// NewAdmissionPolicy parses a flag-style policy spec:
//
//	always
//	reject
//	token-bucket:rate=100,burst=200
//	fair-share:rate=10,burst=20,tenants=1024
//
// Token-bucket admits against one global budget; fair-share keys
// per-tenant buckets off the X-Tenant-ID header so one flooding tenant
// cannot starve the others; reject sheds everything (the drain mode —
// cache hits are still served).
func NewAdmissionPolicy(spec string) (AdmissionPolicy, error) { return admit.New(spec) }

// NewTokenBucketPolicy admits rate requests/second with bursts up to
// burst against a single global bucket.
func NewTokenBucketPolicy(rate float64, burst int) AdmissionPolicy {
	return admit.NewTokenBucket(rate, burst)
}

// NewFairSharePolicy gives every tenant its own token bucket (rate
// req/s, bursts up to burst), tracking at most maxTenants buckets
// (0 = 1024) with LRU eviction.
func NewFairSharePolicy(rate float64, burst, maxTenants int) AdmissionPolicy {
	return admit.NewFairShare(rate, burst, maxTenants)
}

// RejectAllPolicy sheds every request with the given Retry-After hint
// (0 = 10 s) — flip it in ahead of a planned shutdown.
func RejectAllPolicy(retryAfter time.Duration) AdmissionPolicy {
	return admit.RejectAll{RetryAfter: retryAfter}
}

// NewAdmitLane creates a priority lane with slots concurrent
// executions and at most queueBound foreground waiters (negative
// disables queueing: every request past the in-flight bound fails
// fast).
func NewAdmitLane(name string, slots, queueBound int) *AdmitLane {
	return admit.NewLane(name, slots, queueBound)
}

// Observability: the telemetry spine threaded through the server, the
// job manager and the simulation engine. One Telemetry registry backs
// the Prometheus text exposition of /metrics; pass the same registry
// (and logger) to ServeOptions and JobManagerOptions so a single
// scrape covers every subsystem.
type (
	// Telemetry is a Prometheus-style metric registry (counters,
	// gauges, histograms, rendered as text exposition format 0.0.4).
	Telemetry = obs.Registry
	// BuildInfo is the build metadata /healthz reports.
	BuildInfo = obs.BuildInfo
	// TraceRing is the bounded ring of finished request traces served
	// by /debug/traces. Share one ring between ServeOptions.Tracer and
	// JobManagerOptions.Tracer so HTTP request spans and campaign job
	// spans (with their grafted remote worker spans) land in the same
	// ring and stitch together under one request ID.
	TraceRing = obs.Tracer
	// TraceSpan is one finished span: name, request ID, timing,
	// annotations and children (live local spans followed by remote
	// snapshots grafted from fleet workers).
	TraceSpan = obs.SpanSnapshot
)

// NewTelemetry creates an empty metric registry.
func NewTelemetry() *Telemetry { return obs.NewRegistry() }

// NewTraceRing creates a trace ring retaining the newest capacity root
// spans (capacity <= 0 selects the default).
func NewTraceRing(capacity int) *TraceRing { return obs.NewTracer(capacity) }

// NewStructuredLogger builds a level-filtered slog logger writing
// "text" or "json" lines to w, validating both choices (for flag
// parsing). Level is one of debug, info, warn, error.
func NewStructuredLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	if err := obs.ParseLogLevel(level); err != nil {
		return nil, err
	}
	if err := obs.ParseLogFormat(format); err != nil {
		return nil, err
	}
	return obs.NewLogger(w, level, format), nil
}

// ReadBuildInfo reports the running binary's module version and VCS
// stamp, when the build recorded them.
func ReadBuildInfo() BuildInfo { return obs.ReadBuildInfo() }

// DebugHandler serves the runtime introspection surface (net/http/pprof
// profiles and expvar counters). It is not mounted on the planning
// server; bind it to a separate, private listener (respeedd's
// -debug-addr flag).
func DebugHandler() http.Handler { return obs.DebugHandler() }

// PartialExec configures intermediate partial verifications in the
// full-stack simulator (the executable counterpart of PartialPattern).
type PartialExec = sim.PartialExec

// GanttTrace renders a recorded schedule as an ASCII timeline, one row
// per pattern attempt — the textual Figure 1.
func GanttTrace(events []trace.Event, width int) string {
	return trace.Gantt(events, width)
}

// TraceEvent is one timestamped schedule event.
type TraceEvent = trace.Event

// TwoLevelConfig and TwoLevelReport expose the two-level (memory+disk)
// checkpointing simulator; RunTwoLevel executes one application under it.
type (
	TwoLevelConfig = sim.TwoLevelConfig
	TwoLevelReport = sim.TwoLevelReport
)

// RunTwoLevel executes a workload under two-level checkpointing:
// in-memory checkpoints absorb silent errors, disk checkpoints every
// DiskEvery patterns absorb fail-stop crashes (which wipe memory and
// roll back up to DiskEvery−1 patterns).
func RunTwoLevel(cfg TwoLevelConfig, w Workload, seed uint64) (TwoLevelReport, error) {
	s, err := sim.NewTwoLevelSim(cfg, sim.FromWorkload(w), rngx.NewStream(seed, "respeed/twolevel"))
	if err != nil {
		return TwoLevelReport{}, err
	}
	return s.Run()
}

// Scenario is the unified engine composition: any combination of a
// fault process (aggregate rates or per-node processes), a checkpoint
// tier (single-level or memory+disk) and a verification discipline
// (guaranteed, partial+guaranteed, or none) runs through the one
// simulation core — including combinations the original siloed
// simulators could not express, e.g. a multi-node cluster under
// two-level checkpointing, or partial verification with fail-stop
// errors. Leave Scenario.NewWorkload nil and pass a workload factory to
// RunScenario / ReplicateScenario instead.
type (
	Scenario = engine.Scenario
	// ScenarioReport is the unified execution report.
	ScenarioReport = engine.Report
	// TwoLevelSpec parameterizes the memory+disk checkpoint tier of a
	// Scenario.
	TwoLevelSpec = engine.TwoLevelSpec
	// ClusterNode is one machine of a Scenario's multi-node platform.
	ClusterNode = engine.Node
)

// UniformScenarioNodes splits the aggregate error rates evenly over n
// identical nodes — the decomposition the paper's aggregate model
// implies.
func UniformScenarioNodes(n int, totalSilentRate, totalFailStopRate float64) []ClusterNode {
	return engine.UniformNodes(n, totalSilentRate, totalFailStopRate)
}

// RunScenario executes the scenario once on a workload built by mk.
// The run is deterministic in seed.
func RunScenario(sc Scenario, mk func() Workload, seed uint64) (ScenarioReport, error) {
	if mk != nil {
		sc.NewWorkload = func() *sim.Runner { return sim.FromWorkload(mk()) }
	}
	return sc.Run(seed)
}

// ReplicateScenario runs n independent executions of the scenario over
// a bounded worker pool (workers ≤ 0 selects GOMAXPROCS) and aggregates
// makespan and energy; deterministic in (seed, n) independent of worker
// count.
func ReplicateScenario(sc Scenario, mk func() Workload, seed uint64, n, workers int) (Estimate, error) {
	return ReplicateScenarioCtx(context.Background(), sc, mk, seed, n, workers)
}

// ReplicateScenarioCtx is ReplicateScenario with cancellation: once ctx
// is cancelled the fan-out stops promptly and the context's error is
// returned.
func ReplicateScenarioCtx(ctx context.Context, sc Scenario, mk func() Workload, seed uint64, n, workers int) (Estimate, error) {
	if mk != nil {
		sc.NewWorkload = func() *sim.Runner { return sim.FromWorkload(mk()) }
	}
	return engine.ReplicateScenarioCtx(ctx, sc, seed, n, workers)
}

// Declarative scenario specs: the versioned JSON DSL of internal/spec.
// A ScenarioSpec composes a fault process (exponential, Weibull,
// log-normal, correlated bursts or recorded-trace replay), a checkpoint
// tier, a verification discipline and a workload declaratively;
// CompileSpec lowers it onto the unified engine. The built-in registry
// re-expresses the named scenario catalog ("cluster-twolevel",
// "partial-failstop") as specs, bit-identical to the hand-built
// constructions they replaced.
type ScenarioSpec = spec.ScenarioSpec

// ParseScenarioSpec parses and strictly validates a spec document:
// unknown fields are rejected, naming the offender. CSV fault-trace
// references are not resolved here — use ParseScenarioSpecFile.
func ParseScenarioSpec(data []byte) (ScenarioSpec, error) { return spec.Parse(data) }

// ParseScenarioSpecFile reads a spec file, resolving CSV fault-trace
// references relative to the file's directory and inlining the recorded
// arrival times.
func ParseScenarioSpecFile(path string) (ScenarioSpec, error) { return spec.ParseFile(path) }

// CompileSpec lowers a spec onto an executable Scenario for a platform
// configuration.
func CompileSpec(s ScenarioSpec, cfg Config) (Scenario, error) {
	return s.Compile(spec.EnvFor(cfg))
}

// SimulateSpec compiles the spec for cfg and replicates it n times over
// a bounded worker pool (workers ≤ 0 selects GOMAXPROCS); deterministic
// in (seed, n) independent of worker count.
func SimulateSpec(s ScenarioSpec, cfg Config, seed uint64, n, workers int) (Estimate, error) {
	sc, err := s.Compile(spec.EnvFor(cfg))
	if err != nil {
		return Estimate{}, err
	}
	return engine.ReplicateScenario(sc, seed, n, workers)
}

// ScenarioSpecNames lists the built-in spec registry in advertisement
// order.
func ScenarioSpecNames() []string { return spec.Names() }

// ScenarioSpecByName returns a built-in spec by name.
func ScenarioSpecByName(name string) (ScenarioSpec, bool) { return spec.ByName(name) }

// CanonicalSpec renders a spec in its canonical JSON form — the bytes
// behind SpecHash.
func CanonicalSpec(s ScenarioSpec) ([]byte, error) { return spec.Canonical(s) }

// SpecHash digests a spec's canonical form with FNV-64a (hex). Two
// spellings of one spec share a hash; the serving layer keys its result
// cache on it.
func SpecHash(s ScenarioSpec) (string, error) { return spec.Hash(s) }

// Campaign subsystem: crash-safe asynchronous campaigns (grid solves,
// ρ-sweeps, Monte-Carlo replications) sharded into deterministic
// chunks, executed by a bounded worker pool, and journaled to disk
// after every completed shard. A killed process resumes from the
// journal, re-executing only in-flight shards, and — because shards are
// pure functions of the campaign — produces a byte-identical result.
// Wire a manager into ServeOptions.Jobs to expose it as /v1/jobs.
type (
	// JobManager runs campaigns over a journal directory.
	JobManager = jobs.Manager
	// JobManagerOptions configures a JobManager (Dir is required).
	JobManagerOptions = jobs.Options
	// Campaign describes one campaign to run.
	Campaign = jobs.Campaign
	// CampaignKind selects the campaign family ("grid", "sweep",
	// "montecarlo").
	CampaignKind = jobs.Kind
	// JobStatus is a point-in-time view of one job.
	JobStatus = jobs.Status
	// JobState is a job's lifecycle state.
	JobState = jobs.State
	// JobEvent is one progress notification.
	JobEvent = jobs.Event
	// JobResult is a finished campaign: cells in canonical order plus a
	// content hash for cross-run comparison.
	JobResult = jobs.Result
	// JobStats are the manager-wide gauges exported on /metrics.
	JobStats = jobs.Stats
	// JobTrace is a campaign's flight-recorder timeline, served on
	// GET /v1/jobs/{id}/trace: one entry per executed shard with
	// queue/dispatch/exec phases and per-peer attribution.
	JobTrace = jobs.JobTrace
	// JobShardTrace is one flight-recorder entry.
	JobShardTrace = jobs.ShardTrace
)

// Campaign kinds.
const (
	CampaignGrid       = jobs.KindGrid
	CampaignSweep      = jobs.KindSweep
	CampaignMonteCarlo = jobs.KindMonteCarlo
	// CampaignSpec replicates a declarative ScenarioSpec per config.
	CampaignSpec = jobs.KindSpec
)

// NewJobManager opens (or reopens) a campaign manager over a journal
// directory: completed snapshots load as done jobs, unfinished journals
// replay and resume. Close it when done; unfinished jobs stay on disk
// and resume at the next open.
func NewJobManager(opts JobManagerOptions) (*JobManager, error) { return jobs.Open(opts) }

// SubmitCampaign validates, journals and starts a campaign, returning
// its initial status. The job is durable once SubmitCampaign returns.
func SubmitCampaign(m *JobManager, c Campaign) (JobStatus, error) { return m.Submit(c) }

// Distributed campaign fabric: coordinator/worker mode over a fleet of
// respeedd daemons. A FleetCoordinator implements the job manager's
// ShardRunner hook — wire coordinator.RunShard into
// JobManagerOptions.ShardRunner and the manager dispatches every shard
// to a peer daemon's POST /v1/shards endpoint instead of computing it
// locally, journaling the returned bytes verbatim. Because shards are
// pure functions of (campaign, plan), the merged result (and its
// content hash) is byte-identical to a single-node run, including
// after a worker dies mid-campaign and its shards are re-dispatched. A
// FleetWorker is the receiving side; wire it into
// ServeOptions.FleetWorker to serve shards.
type (
	// FleetCoordinator routes campaign shards to peers by policy,
	// tracks peer health by heartbeat, and verifies result hashes.
	FleetCoordinator = fleet.Coordinator
	// FleetCoordinatorOptions configures a coordinator (Peers is
	// required).
	FleetCoordinatorOptions = fleet.Options
	// FleetWorker executes remote shards behind POST /v1/shards.
	FleetWorker = fleet.Worker
	// FleetWorkerOptions configures a worker (zero value = defaults).
	FleetWorkerOptions = fleet.WorkerOptions
	// FleetPeer is one configured fleet member (URL + weight).
	FleetPeer = fleet.Peer
	// FleetPeerSnapshot is a peer's live health/load view.
	FleetPeerSnapshot = fleet.PeerSnapshot
	// FleetRoutingPolicy picks the peer for each shard.
	FleetRoutingPolicy = fleet.RoutingPolicy
	// FleetShardRequest / FleetShardResponse are the POST /v1/shards
	// wire shapes.
	FleetShardRequest  = fleet.ShardRequest
	FleetShardResponse = fleet.ShardResponse
)

// NewFleetCoordinator builds a coordinator over a peer set and starts
// its heartbeat loop. Close it when done.
func NewFleetCoordinator(opts FleetCoordinatorOptions) (*FleetCoordinator, error) {
	return fleet.NewCoordinator(opts)
}

// NewFleetWorker builds the worker (data-plane) side of a daemon.
func NewFleetWorker(opts FleetWorkerOptions) *FleetWorker { return fleet.NewWorker(opts) }

// ParseFleetPeers parses a -peers style list: comma-separated base
// URLs, each optionally weighted as "url=weight".
func ParseFleetPeers(s string) ([]FleetPeer, error) { return fleet.ParsePeers(s) }

// NewFleetPolicy builds a routing policy by name: "round-robin",
// "least-loaded" or "weighted".
func NewFleetPolicy(name string) (FleetRoutingPolicy, error) { return fleet.NewPolicy(name) }

// FleetPolicyNames lists the valid routing-policy names.
func FleetPolicyNames() []string { return fleet.PolicyNames() }
