package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sort"
	"time"

	"respeed"
	"respeed/internal/obs"
)

// planMixPaths maps the closed-form classes to their endpoints.
var planMixPaths = map[string]string{"solve": "/v1/solve", "gain": "/v1/gain", "sigma1": "/v1/sigma1-table"}

// pickClass draws a class from a share table, in sorted-name order so
// the draw depends only on the seed.
func pickClass(rng *rand.Rand, mix map[string]float64) string {
	names := make([]string, 0, len(mix))
	var total float64
	for k, v := range mix {
		names = append(names, k)
		total += v
	}
	sort.Strings(names)
	u := rng.Float64() * total
	for _, k := range names {
		if u < mix[k] {
			return k
		}
		u -= mix[k]
	}
	return names[len(names)-1]
}

// planMixOps builds the open-loop schedule: Poisson arrivals over the
// warm-up and the timed phase, plus one /metrics scrape per interval.
// Closed-form reads draw their (config, ρ) key from a small hot set with
// Zipf skew or uniformly from a larger cold set; the cold set times the
// three endpoints is a working set several times the result cache.
// Simulations draw a cold key and a fresh seed, so they are never
// cached. It returns the ops sorted by due time and the warm-up length.
func planMixOps(c planMixConfig, seed uint64, seconds float64) ([]op, time.Duration) {
	rng := rand.New(rand.NewPCG(seed, 0x706c616e))
	names := respeed.ConfigNames()
	lo, hi := c.RhoRange[0], c.RhoRange[1]
	type key struct {
		config string
		rho    float64
	}
	keys := func(n int) []key {
		ks := make([]key, n)
		for i := range ks {
			ks[i] = key{names[rng.IntN(len(names))], lo + (hi-lo)*rng.Float64()}
		}
		return ks
	}
	hot, cold := keys(c.HotKeys), keys(c.ColdKeys)
	zipf := rand.NewZipf(rng, c.ZipfS, 1, uint64(c.HotKeys-1))
	warm := time.Duration(c.WarmupS * float64(time.Second))
	total := warm + time.Duration(seconds*float64(time.Second))

	var ops []op
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / c.RatePerS * float64(time.Second))
		if t >= total {
			break
		}
		o := op{class: pickClass(rng, c.Mix), method: http.MethodGet, due: t}
		if o.class == "simulate" {
			k := cold[rng.IntN(len(cold))]
			o.config, o.rho, o.n, o.seed = k.config, k.rho, c.SimulateN, rng.Uint64()
			o.target = fmt.Sprintf("/v1/simulate?config=%s&rho=%s&n=%d&seed=%d",
				url.QueryEscape(o.config), fmtRho(o.rho), o.n, o.seed)
		} else {
			k := cold[rng.IntN(len(cold))]
			if rng.Float64() < c.HotShare {
				k = hot[zipf.Uint64()]
			}
			o.config, o.rho = k.config, k.rho
			o.target = planMixPaths[o.class] + "?config=" + url.QueryEscape(o.config) + "&rho=" + fmtRho(o.rho)
		}
		o.sample = t >= warm && rng.Float64() < c.SampleShare
		ops = append(ops, o)
	}
	every := time.Duration(c.ScrapeEveryS * float64(time.Second))
	for t := every; t < total; t += every {
		ops = append(ops, op{class: "metrics", method: http.MethodGet, target: "/metrics", due: t})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops, warm
}

// planMix runs the open-loop closed-form and simulate mix on one daemon.
func (r *run) planMix(p phaseOpts) phaseResult {
	c := r.cfg.PlanMix
	var res phaseResult
	ops, warm := planMixOps(c, r.seed, p.seconds)
	if p.warmMemo {
		if err := warmSolverMemo(ops, r.warmed); err != nil {
			res.problem("warm solver memo: %v", err)
		}
	}

	st, ok := r.buildStack(stackSpec{}, p, &res)
	if !ok {
		return res
	}
	defer st.stop()
	base := st.front().url
	senders := newSenders(c.Senders)
	defer closeSenders(senders)
	if err := checkAnchor(senders[0].c, base); err != nil {
		res.problem("%v", err)
	}
	var ids []string
	if p.tr != nil {
		ids = make([]string, len(ops))
		for i := range ids {
			ids[i] = fmt.Sprintf("pm-%d", i)
		}
	}

	recs := make([]record, len(ops))
	heapBase := settledHeapMiB()
	res.rt0 = readRuntime()
	start := time.Now()
	smp := startSampler(5*time.Millisecond, start.Add(warm), p.probe(st))
	runOpen(context.Background(), senders, base, ops, recs, ids, start)
	heap, gor := smp.finish()
	res.rt1, res.goroutines = readRuntime(), gor
	res.ops, res.recs, res.ids, res.timedFrom = ops, recs, ids, warm

	// Check every answer. Closed forms and pattern simulations are all
	// recomputed through the façade (compared by digest); sampled
	// closed-form answers are also recomputed from core.Params directly.
	var lat []float64
	var connWait, late []float64
	good, reps := 0, 0
	classCount := map[string]int{}
	for i := range ops {
		o, rec := &ops[i], &recs[i]
		timed := o.due >= warm
		if timed {
			res.attempted++
			classCount[o.class]++
		}
		if err := checkPlanMix(o, rec); err != nil {
			if rec.err == nil && rec.status == http.StatusOK {
				res.problem("%s %s: %v", o.method, o.target, err)
			}
			if timed {
				res.failed++
			}
		} else {
			rec.ok = true
		}
		if !timed {
			continue
		}
		t := openTimesOf(o, rec)
		lat = append(lat, ms(t.latency))
		connWait = append(connWait, ms(t.connWait))
		late = append(late, ms(t.late))
		if withinLimit(rec, t.latency, limit(c.LimitsMS, o.class)) {
			good++
		}
		if rec.ok && o.class == "simulate" {
			reps += o.n
		}
	}
	secs := p.seconds
	ls := summarize(lat)
	res.latencyP50 = ls.p50
	res.add("latency_p50_ms", ls.p50, "ms", ls.n, "from due time")
	res.info("latency_p99_ms", ls.tail, "ms", ls.n, fmt.Sprintf("p%.4g, from due time", ls.tailPct))
	res.add("goodput_rps", float64(good)/secs, "1/s", ls.n, "answered 200, correct, within the class limit")
	res.add("replications_per_s", float64(reps)/secs, "1/s", classCount["simulate"], "pattern replications answered")
	res.add("heap_peak_mb", heap-heapBase, "MiB", 0, "peak live heap above the pre-run baseline")
	cw, lt := summarize(connWait), summarize(late)
	res.info("loadgen.conn_wait_p99_ms", cw.tail, "ms", cw.n, "")
	res.info("loadgen.late_p99_ms", lt.tail, "ms", lt.n, "")
	for _, k := range sortedKeys(classCount) {
		res.info("share."+k, float64(classCount[k])/float64(res.attempted), "ratio", classCount[k], "")
	}
	if e, err := registryExposition(st.front()); err == nil {
		hits := sum(e, "respeed_http_cache_hits_total", nil)
		misses := sum(e, "respeed_http_cache_misses_total", nil)
		res.info("cache_hit_share", hits/(hits+misses), "ratio", int(hits+misses), "whole run")
		res.info("cache_evictions", sum(e, "respeed_cache_evictions_total", nil), "count", 0, "whole run")
	}
	if p.collect != nil {
		p.collect(st)
	}
	return res
}

// checkPlanMix validates one plan-mix answer.
func checkPlanMix(o *op, rec *record) error {
	if rec.err != nil {
		return rec.err
	}
	if rec.status != http.StatusOK {
		return fmt.Errorf("status %d", rec.status)
	}
	switch o.class {
	case "metrics":
		_, err := obs.ParseExposition(rec.body)
		return err
	case "simulate":
		want, err := simulateReply(o)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		if digest(want) != rec.digest {
			return fmt.Errorf("answer differs from respeed.SimulatePatternsParallel")
		}
		return nil
	}
	want, err := closedFormReply(o)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if digest(want) != rec.digest {
		return fmt.Errorf("answer differs from the façade")
	}
	if o.sample {
		direct, err := directReply(o)
		if err != nil {
			return fmt.Errorf("direct reference: %w", err)
		}
		if digest(direct) != rec.digest {
			return fmt.Errorf("answer differs from core.Params")
		}
	}
	return nil
}

// limit returns a class's latency limit.
func limit(limits map[string]float64, class string) time.Duration {
	v, ok := limits[class]
	if !ok {
		return 0 // an unlisted class never counts toward goodput
	}
	return time.Duration(v * float64(time.Millisecond))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// registryExposition renders and strict-parses a daemon's registry
// in-process (no request, so it adds no traffic).
func registryExposition(d *daemon) (*obs.Exposition, error) {
	var buf bytes.Buffer
	if err := d.reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return obs.ParseExposition(buf.Bytes())
}
