package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"respeed"
	"respeed/internal/core"
	"respeed/internal/jobs"
	"respeed/internal/serve"
)

// The paper's anchor: Hera/XScale at ρ=3 (Section 4.2).
const (
	anchorConfig = "Hera/XScale"
	anchorRho    = 3.0
	anchorW      = 2764
	anchorEW     = 416
)

// checkAnchor requires Wopt = 2764 and E/W ≈ 416 for the anchor, both
// from respeed.Solve and from the served /v1/solve.
func checkAnchor(c *http.Client, base string) error {
	cfg, ok := respeed.ConfigByName(anchorConfig)
	if !ok {
		return fmt.Errorf("anchor config %s missing from the catalog", anchorConfig)
	}
	sol, err := respeed.Solve(cfg, anchorRho)
	if err != nil {
		return fmt.Errorf("anchor solve: %w", err)
	}
	if err := anchorOK("respeed.Solve", sol.Best); err != nil {
		return err
	}
	resp, err := c.Get(base + "/v1/solve?config=" + url.QueryEscape(anchorConfig) + "&rho=3")
	if err != nil {
		return fmt.Errorf("anchor /v1/solve: %w", err)
	}
	defer resp.Body.Close()
	var served serve.SolveReply
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("anchor /v1/solve answered %d (%v)", resp.StatusCode, err)
	}
	return anchorOK("/v1/solve", served.Solution.Best)
}

func anchorOK(where string, best core.PairResult) error {
	if math.Floor(best.W) != anchorW || math.Floor(best.EnergyOverhead) != anchorEW {
		return fmt.Errorf("%s anchor: Wopt=%.2f E/W=%.2f, want %d and %d", where, best.W, best.EnergyOverhead, anchorW, anchorEW)
	}
	return nil
}

// digest is the FNV-64a hash the load generator records per answer.
func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// served renders a reply exactly as the server encodes it.
func served(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// closedFormReply computes the answer of a solve, gain or sigma1 op
// through the respeed façade.
func closedFormReply(o *op) ([]byte, error) {
	cfg, ok := respeed.ConfigByName(o.config)
	if !ok {
		return nil, fmt.Errorf("unknown config %s", o.config)
	}
	switch o.class {
	case "solve":
		sol, err := respeed.Solve(cfg, o.rho)
		if err != nil {
			return nil, err
		}
		return served(serve.SolveReply{Config: cfg.Name(), Rho: o.rho, Speeds: cfg.Processor.Speeds, Solution: sol})
	case "gain":
		g, err := respeed.TwoSpeedGain(cfg, o.rho)
		if err != nil {
			return nil, err
		}
		return served(serve.GainReply{Config: cfg.Name(), Rho: o.rho, Gain: g})
	default:
		return served(sigma1Reply(cfg, o.rho, respeed.Sigma1Table(cfg, o.rho)))
	}
}

// directReply computes the same answer from the closed forms directly
// (core.Params), bypassing the process-wide solver memo the server and
// the façade share, so a corrupted memo cannot vouch for itself.
func directReply(o *op) ([]byte, error) {
	cfg, ok := respeed.ConfigByName(o.config)
	if !ok {
		return nil, fmt.Errorf("unknown config %s", o.config)
	}
	p := core.FromConfig(cfg)
	speeds := cfg.Processor.Speeds
	switch o.class {
	case "solve":
		sol, err := p.Solve(speeds, o.rho)
		if err != nil {
			return nil, err
		}
		return served(serve.SolveReply{Config: cfg.Name(), Rho: o.rho, Speeds: speeds, Solution: sol})
	case "gain":
		g, err := p.TwoSpeedGain(speeds, o.rho)
		if err != nil {
			return nil, err
		}
		return served(serve.GainReply{Config: cfg.Name(), Rho: o.rho, Gain: g})
	default:
		return served(sigma1Reply(cfg, o.rho, p.Sigma1Table(speeds, o.rho)))
	}
}

func sigma1Reply(cfg respeed.Config, rho float64, rows []respeed.PairResult) serve.Sigma1TableReply {
	out := serve.Sigma1TableReply{Config: cfg.Name(), Rho: rho, Speeds: cfg.Processor.Speeds,
		Rows: make([]serve.Sigma1Row, len(rows))}
	for i, row := range rows {
		r := serve.Sigma1Row{Sigma1: row.Sigma1, RhoMin: row.RhoMin, Feasible: row.Feasible,
			W: row.W, TimeOverhead: row.TimeOverhead, EnergyOverhead: row.EnergyOverhead}
		if !math.IsNaN(row.Sigma2) {
			s2 := row.Sigma2
			r.Sigma2 = &s2
		}
		out.Rows[i] = r
	}
	return out
}

// simulateReply recomputes a pattern /v1/simulate answer through the
// façade: the optimal plan, then SimulatePatternsParallel.
func simulateReply(o *op) ([]byte, error) {
	cfg, ok := respeed.ConfigByName(o.config)
	if !ok {
		return nil, fmt.Errorf("unknown config %s", o.config)
	}
	sol, err := respeed.Solve(cfg, o.rho)
	if err != nil {
		return nil, err
	}
	plan := respeed.Plan{W: sol.Best.W, Sigma1: sol.Best.Sigma1, Sigma2: sol.Best.Sigma2}
	est, err := respeed.SimulatePatternsParallel(cfg, plan, o.n, o.seed, 0)
	if err != nil {
		return nil, err
	}
	return served(serve.SimulateReply{Config: cfg.Name(), Rho: o.rho, N: o.n, Seed: o.seed, Plan: plan, Estimate: est})
}

// scenarioEstimate recomputes a scenario or spec answer's estimate
// through the façade: SimulateSpec over the built-in spec (resolved by
// name) or the posted document.
func scenarioEstimate(o *op) ([]byte, error) {
	cfg, ok := respeed.ConfigByName(o.config)
	if !ok {
		return nil, fmt.Errorf("unknown config %s", o.config)
	}
	var sp respeed.ScenarioSpec
	if o.class == "scenario" {
		if sp, ok = respeed.ScenarioSpecByName(o.name); !ok {
			return nil, fmt.Errorf("unknown built-in scenario %s", o.name)
		}
	} else {
		var err error
		if sp, err = respeed.ParseScenarioSpec(o.body); err != nil {
			return nil, err
		}
	}
	est, err := respeed.SimulateSpec(sp, cfg, o.seed, o.n, 0)
	if err != nil {
		return nil, err
	}
	return json.Marshal(est)
}

// scenarioAnswer is the part of a scenario or spec answer every check
// reads.
type scenarioAnswer struct {
	Config   string          `json:"config"`
	Scenario string          `json:"scenario"`
	Spec     string          `json:"spec"`
	N        int             `json:"n"`
	Seed     uint64          `json:"seed"`
	Partial  bool            `json:"partial"`
	Estimate json.RawMessage `json:"estimate"`
}

// checkScenario validates a scenario or spec answer against its request;
// with full set it also recomputes the estimate through the façade.
func checkScenario(o *op, body []byte, full bool) error {
	var a scenarioAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	name := a.Scenario
	if o.class == "spec" {
		name = a.Spec
	}
	if a.Config != o.config || name != o.name || a.N != o.n || a.Seed != o.seed || a.Partial {
		return fmt.Errorf("answer (%s, %s, n=%d, seed=%d, partial=%v) does not match the request (%s, %s, n=%d, seed=%d)",
			a.Config, name, a.N, a.Seed, a.Partial, o.config, o.name, o.n, o.seed)
	}
	if !full {
		return nil
	}
	want, err := scenarioEstimate(o)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if !bytes.Equal(bytes.TrimSpace(a.Estimate), want) {
		return fmt.Errorf("estimate differs from respeed.SimulateSpec")
	}
	return nil
}

// solverKey is one (config, ρ) entry of the process-wide solver memo.
type solverKey struct {
	config string
	rho    float64
}

// solverKeys lists the distinct memo keys ops will solve: a request's
// (config, ρ), or every cell of a campaign.
func solverKeys(ops []op) []solverKey {
	seen := map[solverKey]bool{}
	var keys []solverKey
	add := func(k solverKey) {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for i := range ops {
		o := &ops[i]
		switch o.class {
		case string(jobs.KindSweep), string(jobs.KindMonteCarlo):
			var camp jobs.Campaign
			if json.Unmarshal(o.body, &camp) != nil {
				continue
			}
			configs := camp.Configs
			if len(configs) == 0 {
				configs = respeed.ConfigNames()
			}
			for _, c := range configs {
				for _, rho := range camp.Rhos {
					add(solverKey{c, rho})
				}
			}
		default:
			if o.config != "" && o.rho != 0 {
				add(solverKey{o.config, o.rho})
			}
		}
	}
	return keys
}

// solverMemoCap is the per-configuration capacity of core's solver
// memo; past it, solves are no longer stored.
const solverMemoCap = 4096

// warmSolverMemo solves every key of ops through the façade, which
// shares the solver memo with the in-process daemons: TwoSpeedGain fills
// both the two-speed and the single-speed entry. warmed tallies every
// key warmed so far in the process, per config; it fails when a config
// would pass the memo's capacity, since the memo could then no longer
// hold every key.
func warmSolverMemo(ops []op, warmed map[string]map[float64]bool) error {
	for _, k := range solverKeys(ops) {
		cfg, ok := respeed.ConfigByName(k.config)
		if !ok {
			return fmt.Errorf("unknown config %s", k.config)
		}
		if warmed[k.config] == nil {
			warmed[k.config] = map[float64]bool{}
		}
		warmed[k.config][k.rho] = true
		if len(warmed[k.config]) > solverMemoCap {
			return fmt.Errorf("more than %d solver keys for %s: the memo cannot hold them all", solverMemoCap, k.config)
		}
		respeed.TwoSpeedGain(cfg, k.rho)
	}
	return nil
}

// memoMissTimes times the solver as it runs on a memo miss: for each
// key, the first Solve and the first TwoSpeedGain at that ρ on fresh
// per-config grids (one grid per call kind, so neither sees the
// other's entries), in microseconds.
func memoMissTimes(keys []solverKey) (solve, gain []float64, err error) {
	type grids struct{ solve, gain *core.PairGrid }
	byConfig := map[string]grids{}
	for _, k := range keys {
		g, ok := byConfig[k.config]
		if !ok {
			cfg, found := respeed.ConfigByName(k.config)
			if !found {
				return nil, nil, fmt.Errorf("unknown config %s", k.config)
			}
			p := core.FromConfig(cfg)
			if g.solve, err = core.NewPairGrid(p, cfg.Processor.Speeds); err != nil {
				return nil, nil, err
			}
			if g.gain, err = core.NewPairGrid(p, cfg.Processor.Speeds); err != nil {
				return nil, nil, err
			}
			byConfig[k.config] = g
		}
		t0 := time.Now()
		g.solve.Solve(k.rho)
		t1 := time.Now()
		g.gain.TwoSpeedGain(k.rho)
		t2 := time.Now()
		solve = append(solve, float64(t1.Sub(t0))/float64(time.Microsecond))
		gain = append(gain, float64(t2.Sub(t1))/float64(time.Microsecond))
	}
	return solve, gain, nil
}

// fmtRho renders ρ so that parsing the query recovers the same float.
func fmtRho(rho float64) string { return strconv.FormatFloat(rho, 'g', -1, 64) }
