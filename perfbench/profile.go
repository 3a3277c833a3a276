package main

import (
	"fmt"
	"math"
	"time"

	"respeed"
	"respeed/internal/obs"
	"respeed/internal/spec"
	"respeed/internal/workload"
)

// serveClasses are the request classes the serve layer reports.
var serveClasses = []string{"solve", "gain", "sigma1", "simulate", "scenario", "spec", "jobs", "shards"}

// profile accumulates the traced run's per-layer figures.
type profile struct {
	r    *run
	out  outcome
	tr   *tracing // shared by every traced phase
	self map[string][]float64
	reps int
	shed float64
	degr float64
}

// tracedPhases is the number of phases the traced profile splits its
// time over: each workload once untraced and once traced.
const tracedPhases = 6

// traced runs the layer profile: each workload untraced, then traced,
// each phase for a sixth of the run's seconds.
func (r *run) traced() outcome {
	pr := &profile{r: r, tr: newTracing(), self: map[string][]float64{}}
	secs := r.seconds / tracedPhases
	type phase struct {
		name   string
		run    func(phaseOpts) phaseResult
		layers func(phaseResult, *collected)
		// scrapes is how many /metrics scrapes to time after the phase.
		scrapes int
	}
	phases := []phase{
		{"plan-mix", r.planMix, pr.planMixLayers, 21},
		{"scenario-sim", r.scenarioSim, pr.scenarioLayers, 0},
		{"campaign-fleet", r.campaignFleet, pr.fleetLayers, 0},
	}
	for _, ph := range phases {
		// Both phases use the same seed, so the same solver keys: each
		// starts with all of them in the process-wide solver memo, or the
		// traced phase would find the memo the untraced one (and its
		// answer checks) filled.
		plain := ph.run(phaseOpts{seconds: secs, warmMemo: true})
		pr.merge(plain)
		var col collected
		res := ph.run(phaseOpts{seconds: secs, warmMemo: true, tr: pr.tr, collect: func(st stack) {
			if err := col.read(st, ph.scrapes); err != nil {
				pr.out.problem("%s collect: %v", ph.name, err)
			}
		}})
		pr.merge(res)
		pr.out.add("trace.overhead_pct."+ph.name, 100*(res.latencyP50/plain.latencyP50-1), "%", len(res.recs),
			"traced vs untraced latency_p50_ms")
		pr.runtimeRows(ph.name, plain)
		for _, m := range plain.rows {
			if m.name == "latency_p99_ms" {
				// The tail is too unsteady on a shared host to gate, so
				// the profile carries it unbounded, from the untraced phase.
				v := m.value
				if math.IsNaN(v) {
					v = 0 // fewer than minTail+1 samples: no tail
				}
				pr.out.add("loadgen.latency_p99_ms."+ph.name, v, m.unit, m.n, m.note+", untraced phase")
			}
		}
		pr.shed += col.total("respeed_admit_shed_total", nil)
		pr.degr += col.total("respeed_admit_degraded_total", nil)
		ph.layers(res, &col)
	}
	pr.finish()
	return pr.out
}

func (pr *profile) merge(res phaseResult) {
	pr.out.attempted += res.attempted
	pr.out.failed += res.failed
	pr.out.problems = append(pr.out.problems, res.problems...)
}

// runtimeRows reports runtime/metrics deltas of an untraced phase.
func (pr *profile) runtimeRows(name string, res phaseResult) {
	n := max(len(res.recs), 1)
	pr.out.add("runtime.alloc_kb_per_op."+name, float64(res.rt1.allocBytes-res.rt0.allocBytes)/1024/float64(n), "KiB", n, "untraced phase")
	share := 0.0
	if cpu := res.rt1.totalCPU - res.rt0.totalCPU; cpu > 0 {
		share = (res.rt1.gcCPU - res.rt0.gcCPU) / cpu
	}
	pr.out.add("runtime.gc_cpu_share."+name, share, "ratio", n, "untraced phase")
	pr.out.add("runtime.goroutines_peak."+name, float64(res.goroutines), "count", n, "untraced phase")
}

// p50 adds a median row; an empty sample reports 0 with n=0.
func (pr *profile) p50(name string, xs []float64, unit, note string) {
	s := summarize(xs)
	v := s.p50
	if s.n == 0 {
		v = 0
	}
	pr.out.add(name, v, unit, s.n, note)
}

// tail adds a tail row by the percentile rule.
func (pr *profile) tail(name string, xs []float64, unit, note string) {
	s := summarize(xs)
	v := s.tail
	if math.IsNaN(v) {
		v = 0
	}
	pr.out.add(name, v, unit, s.n, fmt.Sprintf("p%.4g, %s", s.tailPct, note))
}

// requestSpans matches each traced request to its root span (the
// middleware span, ID = X-Request-ID) and returns, per class, the
// compute-span durations and the serve self times (handler − compute).
func (pr *profile) requestSpans(res phaseResult, col *collected) (compute map[string][]float64) {
	roots := make(map[string]obs.SpanSnapshot, len(col.roots))
	for _, s := range col.roots {
		roots[s.ID] = s
	}
	compute = map[string][]float64{}
	pr.tr.mu.Lock()
	defer pr.tr.mu.Unlock()
	for i, o := range res.ops {
		id := res.ids[i]
		h, ok := pr.tr.handler[id]
		if !ok || !res.recs[i].ok {
			continue
		}
		self := ms(h)
		if c, ok := childMS(roots[id], "compute"); ok {
			compute[o.class] = append(compute[o.class], c)
			self -= c
		}
		pr.self[o.class] = append(pr.self[o.class], self)
	}
	return compute
}

// planMixLayers: loadgen, http, core, the pattern engine, serve cache
// and obs exposition.
func (pr *profile) planMixLayers(res phaseResult, col *collected) {
	var late, wait, transport []float64
	pr.tr.mu.Lock()
	for i := range res.ops {
		o, rec := &res.ops[i], &res.recs[i]
		if o.due < res.timedFrom {
			continue
		}
		t := openTimesOf(o, rec)
		late = append(late, ms(t.late))
		wait = append(wait, ms(t.connWait))
		if h, ok := pr.tr.handler[res.ids[i]]; ok && rec.ok {
			transport = append(transport, ms(rec.end-rec.sent-h))
		}
		if rec.ok && o.class == "simulate" {
			pr.reps += o.n
		}
	}
	pr.tr.mu.Unlock()
	pr.tail("loadgen.late_p99_ms", late, "ms", "generator lag after it could send")
	pr.tail("loadgen.conn_wait_p99_ms", wait, "ms", "due op waiting for a free connection")
	pr.p50("http.transport_p50_ms", transport, "ms", "client round trip − handler time")
	compute := pr.requestSpans(res, col)
	for _, c := range []string{"solve", "gain", "sigma1"} {
		us := make([]float64, len(compute[c]))
		for i, v := range compute[c] {
			us[i] = v * 1000
		}
		note := "compute span; the solver memo holds every key, so a memo hit"
		if c == "sigma1" {
			note = "compute span; Sigma1Table is not memoized"
		}
		pr.p50("core.compute_p50_us."+c, us, "us", note)
	}
	solve, gain, err := memoMissTimes(solverKeys(res.ops))
	if err != nil {
		pr.out.problem("memo-miss timing: %v", err)
	}
	pr.p50("core.memo_miss_p50_us.solve", solve, "us", "first PairGrid.Solve per plan-mix key on a fresh grid")
	pr.p50("core.memo_miss_p50_us.gain", gain, "us", "first PairGrid.TwoSpeedGain per plan-mix key on a fresh grid")
	pr.p50("engine.compute_p50_ms.simulate", compute["simulate"], "ms", "compute span")
	hits := col.total("respeed_http_cache_hits_total", nil)
	misses := col.total("respeed_http_cache_misses_total", nil)
	pr.out.add("serve.cache_hit_ratio", hits/math.Max(hits+misses, 1), "ratio", int(hits+misses), "respeed_http_cache_*")
	pr.useful("pattern", "pattern", col)
	pr.p50("obs.scrape_p50_ms", col.scrapes, "ms", "client GET /metrics")
	pr.p50("obs.exposition_kb", col.sizes, "KiB", "exposition size")
}

// useful reports patterns / attempts for one engine scenario label:
// the share of attempts not lost to re-execution.
func (pr *profile) useful(name, label string, col *collected) {
	want := map[string]string{"scenario": label}
	patterns := col.total("respeed_engine_patterns_total", want)
	attempts := col.total("respeed_engine_attempts_total", want)
	pr.out.add("engine.useful_attempt_ratio."+name, patterns/math.Max(attempts, 1), "ratio", int(attempts), "respeed_engine_{patterns,attempts}_total")
}

// scenarioLabels are the engine scenario labels of scenario-sim's
// requests, keyed by the request name.
var scenarioLabels = map[string]string{
	"cluster-twolevel": "cluster-twolevel", "partial-failstop": "partial-failstop",
	"weibull-failstop": "spec:weibull-failstop", "correlated-bursts": "spec:correlated-bursts",
}

// scenarioLayers: the App engine path, spec compile and workload
// stepping.
func (pr *profile) scenarioLayers(res phaseResult, col *collected) {
	compute := pr.requestSpans(res, col)
	pr.p50("engine.compute_p50_ms.scenario", compute["scenario"], "ms", "compute span")
	pr.p50("engine.compute_p50_ms.spec", compute["spec"], "ms", "compute span")
	for _, name := range sortedKeys(scenarioLabels) {
		pr.useful(name, scenarioLabels[name], col)
	}
	for i := range res.ops {
		if res.recs[i].ok {
			pr.reps += res.ops[i].n
		}
	}
	docs, err := readSpecs(pr.r.cfg.ScenarioSim)
	if err != nil {
		pr.out.problem("%v", err)
		return
	}
	compile, err := specCompileTimes(docs)
	if err != nil {
		pr.out.problem("spec compile: %v", err)
	}
	pr.p50("spec.compile_p50_us", compile, "us", "spec.Parse + Compile(EnvFor(cfg)) of the posted documents")
	stream, heat, err := advanceTimes(docs)
	if err != nil {
		pr.out.problem("workload stepping: %v", err)
	}
	pr.p50("workload.advance_p50_us.stream", stream, "us", "Stream.Advance(W) at the scenarios' W")
	pr.p50("workload.advance_p50_us.heat", heat, "us", "Heat.Advance(W) at weibull-failstop's W")
}

// specCompileTimes times spec.Parse + Compile(spec.EnvFor(cfg)) of each
// posted document against every catalog config, in microseconds.
func specCompileTimes(docs map[string][]byte) ([]float64, error) {
	var us []float64
	for round := 0; round < 20; round++ {
		for _, name := range sortedKeys(docs) {
			for _, cfg := range respeed.Configs() {
				t0 := time.Now()
				sp, err := spec.Parse(docs[name])
				if err == nil {
					_, err = sp.Compile(spec.EnvFor(cfg))
				}
				d := time.Since(t0)
				if err != nil {
					return us, fmt.Errorf("%s on %s: %w", name, cfg.Name(), err)
				}
				us = append(us, float64(d)/float64(time.Microsecond))
			}
		}
	}
	return us, nil
}

// advanceTimes times the public stepping call of each scenario's
// workload at the scenario's pattern size W, in microseconds, split by
// workload kind.
func advanceTimes(docs map[string][]byte) (stream, heat []float64, err error) {
	var specs []spec.ScenarioSpec
	for _, name := range respeed.ScenarioSpecNames() {
		sp, _ := respeed.ScenarioSpecByName(name)
		specs = append(specs, sp)
	}
	for _, name := range sortedKeys(docs) {
		sp, err := spec.Parse(docs[name])
		if err != nil {
			return nil, nil, err
		}
		specs = append(specs, sp)
	}
	for _, sp := range specs {
		ws := spec.WorkloadSpec{Kind: "stream", Seed: 7, Size: 64}
		if sp.Workload != nil {
			ws = *sp.Workload
		}
		var w workload.Workload
		var into *[]float64
		switch ws.Kind {
		case "stream":
			w, into = workload.NewStream(ws.Seed, ws.Size), &stream
		case "heat":
			w, into = workload.NewHeat(ws.Size, ws.Alpha), &heat
		default:
			continue
		}
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			w.Advance(sp.Plan.W)
			*into = append(*into, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	return stream, heat, nil
}

// fleetLayers: jobs queue, journal and finish; fleet dispatch, worker
// exec and wire; the shards and jobs serve classes; the jobs gate.
func (pr *profile) fleetLayers(res phaseResult, col *collected) {
	var queue, journal, exec, wire, dispatch []float64
	pr.tr.mu.Lock()
	for i, rec := range res.recs {
		if !rec.ok {
			continue
		}
		pr.reps += res.ops[i].n
		for _, s := range pr.tr.jobTraces[rec.job].Shards {
			if !s.OK {
				continue
			}
			queue = append(queue, 1000*s.QueueSeconds)
			exec = append(exec, 1000*s.ExecSeconds)
			if d, ok := pr.tr.runner[fmt.Sprintf("%s/%d", rec.job, s.Shard)]; ok {
				dispatch = append(dispatch, ms(d))
				journal = append(journal, 1000*s.DispatchSeconds-ms(d))
				wire = append(wire, ms(d)-1000*s.ExecSeconds)
			}
		}
	}
	pr.self["jobs"] = append(pr.self["jobs"], pr.tr.byClass["jobs"]...)
	pr.tr.mu.Unlock()

	var finish []float64
	timed := map[string]bool{}
	for _, rec := range res.recs {
		timed[rec.job] = rec.ok
	}
	for _, root := range col.roots {
		switch {
		case root.Name == "job" && timed[root.ID]:
			// Assemble, snapshot and publish: the job span's end after
			// its last shard span ended.
			end := root.Start.Add(msDur(root.DurationMS))
			var last time.Time
			for _, c := range root.Children {
				if e := c.Start.Add(msDur(c.DurationMS)); c.Name == "shard" && e.After(last) {
					last = e
				}
			}
			if !last.IsZero() {
				finish = append(finish, ms(end.Sub(last)))
			}
		case root.Name == "POST /v1/shards":
			if c, ok := childMS(root, "shard-exec"); ok {
				pr.self["shards"] = append(pr.self["shards"], root.DurationMS-c)
			}
		}
	}
	pr.p50("jobs.queue_p50_ms", queue, "ms", "flight recorder queue_seconds")
	pr.p50("jobs.journal_p50_ms", journal, "ms", "dispatch_seconds − wrapped ShardRunner time")
	pr.p50("jobs.finish_p50_ms", finish, "ms", "job span end − last shard span end")
	shards := math.Max(col.total("respeed_jobs_shards_executed_total", nil), 1)
	pr.out.add("jobs.fsyncs_per_shard", col.total("respeed_jobs_journal_fsyncs_total", nil)/shards, "count", int(shards), "respeed_jobs_journal_fsyncs_total")
	pr.out.add("jobs.journal_bytes_per_shard", col.total("respeed_jobs_journal_bytes_total", nil)/shards, "B", int(shards), "respeed_jobs_journal_bytes_total")
	pr.out.add("jobs.retries", col.total("respeed_jobs_shard_retries_total", nil), "count", int(shards), "respeed_jobs_shard_retries_total")
	pr.p50("fleet.dispatch_p50_ms", dispatch, "ms", "wrapper on Coordinator.RunShard")
	pr.p50("fleet.worker_exec_p50_ms", exec, "ms", "flight recorder exec_seconds")
	pr.p50("fleet.wire_p50_ms", wire, "ms", "dispatch − worker exec")
	pr.out.add("fleet.redispatched", col.total("respeed_fleet_shards_redispatched_total", nil), "count", int(shards), "respeed_fleet_shards_redispatched_total")
	pr.out.add("fleet.busy_rejects", col.total("respeed_fleet_shards_rejected_total", nil), "count", int(shards), "respeed_fleet_shards_rejected_total")
}

// finish adds the rows gathered across every traced phase.
func (pr *profile) finish() {
	pr.tr.mu.Lock()
	defer pr.tr.mu.Unlock()
	for _, c := range serveClasses {
		pr.p50("serve.handler_p50_ms."+c, pr.tr.byClass[c], "ms", "wrapper on Server.Handler().ServeHTTP")
		pr.p50("serve.self_p50_ms."+c, pr.self[c], "ms", "handler − compute span")
	}
	pr.out.add("admit.heavy_queue_depth_mean", mean(pr.tr.heavyQ), "count", len(pr.tr.heavyQ), "sampled heavy lanes")
	pr.out.add("admit.express_queue_depth_mean", mean(pr.tr.expressQ), "count", len(pr.tr.expressQ), "sampled express lanes")
	pr.out.add("admit.shed", pr.shed, "count", 0, "respeed_admit_shed_total")
	pr.out.add("admit.degraded", pr.degr, "count", 0, "respeed_admit_degraded_total")
	pr.p50("admit.gate_wait_p50_ms", pr.tr.gate, "ms", "wrapper on jobs.Options.Gate of the local campaign rerun")
	pr.out.add("engine.replications", float64(pr.reps), "count", 0, "replications answered in the traced phases")
}

func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
