package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"time"

	"respeed"
)

// scenarioRho is the time bound of the built-in scenario requests.
const scenarioRho = 3.0

// scenarioOps builds one closed-loop client's request sequence: enough
// for max_rate_per_client over the warm-up and the timed phase. A client
// that sends them all before the deadline makes the run incorrect, so
// the cap can never quietly bound a measured rate.
func scenarioOps(c scenarioSimConfig, seed uint64, client int, seconds float64, docs map[string][]byte) []op {
	rng := rand.New(rand.NewPCG(seed, 0x7363656e+uint64(client)))
	names := respeed.ConfigNames()
	count := int(math.Ceil(c.MaxRate * (c.WarmupS + seconds)))
	ops := make([]op, 0, count)
	for i := 0; i < count; i++ {
		o := op{name: pickClass(rng, c.Mix), config: names[rng.IntN(len(names))], n: c.N, seed: rng.Uint64()}
		if doc, ok := docs[o.name]; ok {
			o.class, o.method, o.body = "spec", http.MethodPost, doc
			o.target = fmt.Sprintf("/v1/simulate?config=%s&n=%d&seed=%d", url.QueryEscape(o.config), o.n, o.seed)
		} else {
			o.class, o.method, o.rho = "scenario", http.MethodGet, scenarioRho
			o.target = fmt.Sprintf("/v1/simulate?config=%s&rho=%s&scenario=%s&n=%d&seed=%d",
				url.QueryEscape(o.config), fmtRho(o.rho), o.name, o.n, o.seed)
		}
		o.sample = rng.Float64() < c.SampleShare
		ops = append(ops, o)
	}
	return ops
}

// readSpecs loads the posted spec documents named in the config.
func readSpecs(c scenarioSimConfig) (map[string][]byte, error) {
	docs := make(map[string][]byte, len(c.Specs))
	for name, path := range c.Specs {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("read spec %s: %w", name, err)
		}
		docs[name] = b
	}
	return docs, nil
}

// scenarioSim runs the closed loop of App-scenario simulations.
func (r *run) scenarioSim(p phaseOpts) phaseResult {
	c := r.cfg.ScenarioSim
	var res phaseResult
	docs, err := readSpecs(c)
	if err != nil {
		res.problem("%v", err)
		return res
	}
	perClient := make([][]op, c.Clients)
	for k := range perClient {
		perClient[k] = scenarioOps(c, r.seed, k, p.seconds, docs)
	}
	warm := time.Duration(c.WarmupS * float64(time.Second))
	if p.warmMemo {
		for _, ops := range perClient {
			if err := warmSolverMemo(ops, r.warmed); err != nil {
				res.problem("warm solver memo: %v", err)
			}
		}
	}

	st, ok := r.buildStack(stackSpec{}, p, &res)
	if !ok {
		return res
	}
	defer st.stop()
	base := st.front().url
	senders := newSenders(c.Clients)
	defer closeSenders(senders)
	if err := checkAnchor(senders[0].c, base); err != nil {
		res.problem("%v", err)
	}

	heapBase := settledHeapMiB()
	res.rt0 = readRuntime()
	start := time.Now()
	smp := startSampler(5*time.Millisecond, start.Add(warm), p.probe(st))
	cr := runClosed(context.Background(), senders, base, perClient, start, warm+p.timed(), p.tr != nil)
	// Requests in flight at the deadline finish after it; rates are
	// over the whole timed stretch.
	secs := (time.Since(start) - warm).Seconds()
	heap, gor := smp.finish()
	res.rt1, res.goroutines = readRuntime(), gor
	ops, recs := cr.ops, cr.recs
	res.ops, res.recs, res.ids, res.timedFrom = ops, recs, cr.ids, warm
	for _, k := range cr.short {
		res.problem("client %d sent all %d pre-built requests before the deadline: raise max_rate_per_client", k, len(perClient[k]))
	}

	var lat []float64
	good, reps := 0, 0
	classCount := map[string]int{}
	for i := range ops {
		o, rec := &ops[i], &recs[i]
		timed := rec.sent >= warm
		if timed {
			res.attempted++
			classCount[o.name]++
		}
		err := rec.err
		switch {
		case rec.wrong:
			res.problem("%s %s: %v", o.method, o.target, err)
		case err == nil && rec.status != http.StatusOK:
			err = fmt.Errorf("status %d", rec.status)
		case err == nil && o.sample:
			if err = checkScenario(o, rec.body, true); err != nil {
				res.problem("%s %s: %v", o.method, o.target, err)
			}
		}
		rec.ok = err == nil
		if !timed {
			continue
		}
		if !rec.ok {
			res.failed++
		}
		d := rec.end - rec.sent
		lat = append(lat, ms(d))
		if withinLimit(rec, d, limit(c.LimitsMS, o.class)) {
			good++
		}
		if rec.ok {
			reps += o.n
		}
	}
	ls := summarize(lat)
	res.latencyP50 = ls.p50
	res.info("client_rate_per_s", float64(ls.n)/secs/float64(c.Clients), "1/s", ls.n,
		fmt.Sprintf("requests per client per second; ops are pre-built for %g", c.MaxRate))
	res.add("latency_p50_ms", ls.p50, "ms", ls.n, "closed loop")
	res.info("latency_p99_ms", ls.tail, "ms", ls.n, fmt.Sprintf("p%.4g, closed loop", ls.tailPct))
	res.add("goodput_rps", float64(good)/secs, "1/s", ls.n, "answered 200, correct, within the class limit")
	res.add("replications_per_s", float64(reps)/secs, "1/s", ls.n, "scenario replications answered")
	res.add("heap_peak_mb", heap-heapBase, "MiB", 0, "peak live heap above the pre-run baseline")
	for _, k := range sortedKeys(classCount) {
		res.info("share."+k, float64(classCount[k])/float64(res.attempted), "ratio", classCount[k], "")
	}
	if p.collect != nil {
		p.collect(st)
	}
	return res
}
