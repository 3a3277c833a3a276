package exp

import (
	"fmt"

	"respeed/internal/energy"
	"respeed/internal/engine"
	"respeed/internal/rngx"
	"respeed/internal/stats"
	"respeed/internal/trace"
)

// patternEngine builds the abstract pattern simulator of the paper's
// aggregate model: one platform-wide fault process drawn from rng and
// energy billed as a plain running sum. rec may be nil.
func patternEngine(plan engine.Plan, costs engine.Costs, model energy.Model, rng *rngx.Stream, rec *trace.Recorder) (*engine.PatternEngine, error) {
	return engine.NewPatternEngine(engine.PatternConfig{
		Plan:     plan,
		Costs:    costs,
		Faults:   engine.NewAggregateFaults(costs.LambdaS, costs.LambdaF, rng),
		Recorder: engine.NewSumRecorder(model),
		Trace:    rec,
	})
}

// replicatePattern runs n patterns of the aggregate model one after
// another on rng and aggregates them.
func replicatePattern(plan engine.Plan, costs engine.Costs, model energy.Model, rng *rngx.Stream, n int) (engine.Estimate, error) {
	eng, err := patternEngine(plan, costs, model, rng, nil)
	if err != nil {
		return engine.Estimate{}, err
	}
	return engine.ReplicatePattern(eng, plan.W, n)
}

// replicateCluster runs n patterns on the node-level simulator and
// aggregates them — the left-hand side of the aggregation argument: N
// independent per-node processes of rate λ/N against one of rate λ.
// Node i draws its silent and fail-stop arrivals from the substream
// (seed, "cluster/node-<i>"), a pattern fails as soon as any node is
// struck, and compute+verify is billed as one platform-level segment.
// The error rates live on the nodes; costs carries only C, V and R.
func replicateCluster(nodes []engine.Node, plan engine.Plan, costs engine.Costs, model energy.Model, seed uint64, n int) (engine.Estimate, error) {
	if costs.LambdaS != 0 || costs.LambdaF != 0 {
		return engine.Estimate{}, fmt.Errorf("exp: cluster error rates belong on nodes, not costs")
	}
	fp, err := engine.NewPerNodeFaults(nodes, seed, "cluster")
	if err != nil {
		return engine.Estimate{}, err
	}
	eng, err := engine.NewPatternEngine(engine.PatternConfig{
		Plan:          plan,
		Costs:         costs,
		Faults:        fp,
		Recorder:      engine.NewSumRecorder(model),
		CombineVerify: true,
	})
	if err != nil {
		return engine.Estimate{}, err
	}
	return engine.ReplicatePattern(eng, plan.W, n)
}

// replicateTwoLevel runs n independent two-level executions, run i on
// the stream (seed, "twolevel/<i>") with a fresh workload from mk, and
// aggregates them: Welford mean/stddev of makespan and energy,
// per-work normalizations against TotalWork, and the mean execution
// count. Time.Mean is the objective the disk interval k is tuned
// against. The loop is sequential because the accumulation order is
// golden-pinned.
func replicateTwoLevel(cfg engine.TwoLevelConfig, mk func() *engine.Runner, seed uint64, n int) (engine.Estimate, error) {
	if n < 1 {
		return engine.Estimate{}, fmt.Errorf("exp: replication count must be ≥ 1")
	}
	var tw, ew, tpw, epw stats.Welford
	executions := 0
	for i := 0; i < n; i++ {
		rep, err := cfg.Run(mk(), rngx.NewStream(seed, fmt.Sprintf("twolevel/%d", i)))
		if err != nil {
			return engine.Estimate{}, err
		}
		tw.Add(rep.Makespan)
		ew.Add(rep.Energy)
		tpw.Add(rep.Makespan / cfg.TotalWork)
		epw.Add(rep.Energy / cfg.TotalWork)
		executions += rep.Executions
	}
	return engine.Estimate{
		Time:          tw.Summarize(),
		Energy:        ew.Summarize(),
		TimePerWork:   tpw.Summarize(),
		EnergyPerWork: epw.Summarize(),
		MeanAttempts:  float64(executions) / float64(n),
		Patterns:      n,
	}, nil
}
