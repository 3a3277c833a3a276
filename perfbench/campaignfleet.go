package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"respeed"
	"respeed/internal/admit"
	"respeed/internal/jobs"
)

// campaignOps builds the campaign sequence: every sweep_every-th
// campaign is a sweep (every config × a ρ list), the others Monte-Carlo
// studies, each with fresh ρ values and seeds. There are enough for
// max_campaigns_per_s over the timed phase; running out before the
// deadline makes the run incorrect.
func campaignOps(c campaignFleetConfig, seed uint64, seconds float64) []op {
	rng := rand.New(rand.NewPCG(seed, 0x666c6565))
	names := respeed.ConfigNames()
	lo, hi := c.RhoRange[0], c.RhoRange[1]
	count := c.WarmupCampaigns + int(math.Ceil(c.MaxRate*seconds))
	ops := make([]op, 0, count)
	for i := 0; i < count; i++ {
		var camp jobs.Campaign
		if i%c.SweepEvery == 0 {
			camp = jobs.Campaign{Kind: jobs.KindSweep, Rhos: make([]float64, c.SweepRhos)}
			for k := range camp.Rhos {
				camp.Rhos[k] = lo + (hi-lo)*rng.Float64()
			}
		} else {
			camp = jobs.Campaign{Kind: jobs.KindMonteCarlo, N: c.MonteCarloN, Seed: rng.Uint64(),
				Rhos: []float64{lo + (hi-lo)*rng.Float64()}}
			for _, k := range rng.Perm(len(names))[:c.MonteCarloCells] {
				camp.Configs = append(camp.Configs, names[k])
			}
		}
		body, err := json.Marshal(camp)
		if err != nil {
			panic(err) // a Campaign of plain fields always marshals
		}
		ops = append(ops, op{class: string(camp.Kind), method: http.MethodPost, target: "/v1/jobs",
			body: body, n: camp.N * len(camp.Configs), seed: camp.Seed})
	}
	return ops
}

// runCampaign submits one campaign, follows its event stream to the end,
// fetches the result and checks its hash.
func runCampaign(ctx context.Context, c *http.Client, base string, o *op, rec *record) {
	fail := func(status int, err error) {
		rec.status, rec.err = status, err
	}
	var st jobs.Status
	status, err := call(ctx, c, http.MethodPost, base+o.target, o.body, &st)
	if err != nil || status != http.StatusAccepted {
		fail(status, err)
		return
	}
	rec.job = st.ID
	last, err := follow(ctx, c, base+"/v1/jobs/"+st.ID+"/events")
	if err != nil {
		fail(http.StatusOK, err)
		return
	}
	if last.State != jobs.StateDone {
		fail(http.StatusOK, fmt.Errorf("campaign %s ended %s: %s", st.ID, last.State, last.Error))
		return
	}
	rec.shards = last.ShardsTotal
	var res jobs.Result
	status, err = call(ctx, c, http.MethodGet, base+"/v1/jobs/"+st.ID+"/result", nil, &res)
	rec.status = status
	if err != nil || status != http.StatusOK {
		rec.err = err
		return
	}
	rec.hash = res.Hash
	rec.err = checkResult(o, &res)
}

// checkResult re-derives the result hash from the cells and checks the
// cell count and kind-specific content.
func checkResult(o *op, res *jobs.Result) error {
	h, err := hashCells(res.Cells)
	if err != nil {
		return err
	}
	if h != res.Hash {
		return fmt.Errorf("result hash %s, cells hash to %s", res.Hash, h)
	}
	var camp jobs.Campaign
	if err := json.Unmarshal(o.body, &camp); err != nil {
		return err
	}
	configs := len(camp.Configs)
	if configs == 0 {
		configs = len(respeed.ConfigNames())
	}
	if len(res.Cells) != configs*len(camp.Rhos) {
		return fmt.Errorf("%d cells, want %d", len(res.Cells), configs*len(camp.Rhos))
	}
	for _, cell := range res.Cells {
		if cell.Infeasible || (camp.Kind == jobs.KindMonteCarlo && cell.Estimate == nil) ||
			(camp.Kind == jobs.KindSweep && (cell.Best == nil || cell.Gain == nil)) {
			return fmt.Errorf("cell %s ρ=%g incomplete", cell.Config, cell.Rho)
		}
	}
	return nil
}

// hashCells is the campaign result hash: FNV-64a over the canonical
// JSON of the cells.
func hashCells(cells []jobs.CellOutcome) (string, error) {
	data, err := json.Marshal(cells)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// call sends one JSON request and decodes a 2xx answer into out.
func call(ctx context.Context, c *http.Client, method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s answered %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// follow reads a job's SSE stream until the server closes it and
// returns the last event.
func follow(ctx context.Context, c *http.Client, url string) (jobs.Event, error) {
	var last jobs.Event
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return last, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return last, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return last, fmt.Errorf("events answered %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	seen := false
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		if err := json.Unmarshal([]byte(data), &last); err != nil {
			return last, fmt.Errorf("decode event: %w", err)
		}
		seen = true
	}
	if err := sc.Err(); err != nil {
		return last, err
	}
	if !seen {
		return last, fmt.Errorf("event stream closed without an event")
	}
	return last, nil
}

// campaignFleet runs the closed loop of campaigns against a coordinator
// that journals every shard and dispatches it to two worker daemons.
func (r *run) campaignFleet(p phaseOpts) phaseResult {
	c := r.cfg.CampaignFleet
	var res phaseResult
	ops := campaignOps(c, r.seed, p.seconds)
	if p.warmMemo {
		if err := warmSolverMemo(ops, r.warmed); err != nil {
			res.problem("warm solver memo: %v", err)
		}
	}

	st, ok := r.buildStack(stackSpec{fleet: true}, p, &res)
	if !ok {
		return res
	}
	defer st.stop()
	base := st.front().url
	client := newClient()
	defer client.CloseIdleConnections()
	if err := checkAnchor(client, base); err != nil {
		res.problem("%v", err)
	}
	ctx := context.Background()
	warm := make([]record, c.WarmupCampaigns)
	for i := range warm {
		runCampaign(ctx, client, base, &ops[i], &warm[i])
		if warm[i].err != nil {
			res.problem("warm-up campaign: %v", warm[i].err)
		}
	}
	ops = ops[c.WarmupCampaigns:]

	heapBase := settledHeapMiB()
	res.rt0 = readRuntime()
	start := time.Now()
	smp := startSampler(5*time.Millisecond, start, p.probe(st))
	var recs []record
	for i := range ops {
		if time.Since(start) >= p.timed() {
			break
		}
		rec := record{sent: time.Since(start)}
		runCampaign(ctx, client, base, &ops[i], &rec)
		rec.end = time.Since(start)
		if p.tr != nil && rec.err == nil {
			if err := p.tr.fetchJobTrace(client, base, rec.job); err != nil {
				res.problem("%v", err)
			}
		}
		recs = append(recs, rec)
	}
	// The campaign in flight at the deadline finishes after it; rates
	// are over the whole timed stretch.
	elapsed := time.Since(start)
	secs := elapsed.Seconds()
	heap, gor := smp.finish()
	res.rt1, res.goroutines = readRuntime(), gor
	if len(recs) == len(ops) && elapsed < p.timed() {
		res.problem("the client ran all %d pre-built campaigns before the deadline: raise max_campaigns_per_s", len(ops))
	}
	ops = ops[:len(recs)]

	var lat []float64
	byKind := map[string][]float64{}
	good, reps, shards := 0, 0, 0
	limitD := time.Duration(c.LimitS * float64(time.Second))
	for i := range recs {
		o, rec := &ops[i], &recs[i]
		res.attempted++
		rec.ok = rec.err == nil && rec.status == http.StatusOK
		if !rec.ok {
			res.failed++
			if rec.status == http.StatusOK {
				res.problem("campaign %s: %v", rec.job, rec.err)
			}
		}
		d := rec.end - rec.sent
		lat = append(lat, ms(d))
		byKind[o.class] = append(byKind[o.class], ms(d))
		if withinLimit(rec, d, limitD) {
			good++
		}
		if rec.ok {
			reps += o.n
			shards += rec.shards
		}
	}
	ls := summarize(lat)
	res.latencyP50 = ls.p50
	res.add("latency_p50_ms", ls.p50, "ms", ls.n, "campaign submit to verified result")
	res.info("latency_p99_ms", ls.tail, "ms", ls.n, fmt.Sprintf("p%.4g, campaign submit to verified result", ls.tailPct))
	res.add("goodput_rps", float64(good)/secs, "1/s", ls.n, "campaigns done, verified, within the limit")
	res.add("replications_per_s", float64(reps)/secs, "1/s", ls.n, "Monte-Carlo replications journaled")
	res.add("heap_peak_mb", heap-heapBase, "MiB", 0, "peak live heap above the pre-run baseline")
	res.info("shards_per_s", float64(shards)/secs, "1/s", shards, "")
	res.info("campaigns_per_s", float64(len(recs))/secs, "1/s", len(recs),
		fmt.Sprintf("campaigns are pre-built for %g", c.MaxRate))
	res.info("campaign_p50_s", ls.p50/1000, "s", ls.n, "")
	for _, k := range sortedKeys(byKind) {
		s := summarize(byKind[k])
		res.info("latency_p50_ms."+k, s.p50, "ms", s.n, "")
		res.info("share."+k, float64(s.n)/float64(len(recs)), "ratio", s.n, "")
	}
	res.ops, res.recs = ops, recs
	if p.collect != nil {
		p.collect(st)
	}

	if len(recs) > 0 {
		i := rand.New(rand.NewPCG(r.seed, 0x72657275)).IntN(len(recs))
		if recs[i].ok {
			if err := r.rerunLocal(&ops[i], recs[i].hash, p.tr); err != nil {
				res.problem("local rerun of campaign %s: %v", recs[i].job, err)
			}
		}
	}
	return res
}

// rerunLocal runs a campaign on a local jobs manager with no fleet (a
// single respeedd with a journal directory: the heavy lane is its gate)
// and requires the fleet result's hash.
func (r *run) rerunLocal(o *op, want string, tr *tracing) error {
	var camp jobs.Campaign
	if err := json.Unmarshal(o.body, &camp); err != nil {
		return err
	}
	slots := runtime.GOMAXPROCS(0)
	var gate jobs.Gate = admit.NewLane("heavy", slots, 4*slots)
	if tr != nil {
		gate = tr.wrapGate(gate)
	}
	dir, err := makeWorkDir(filepath.Join(r.workDir, "rerun"))
	if err != nil {
		return err
	}
	m, err := jobs.Open(jobs.Options{Dir: dir, Logger: r.log, Gate: gate})
	if err != nil {
		return err
	}
	defer m.Close()
	st, err := m.Submit(camp)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if st, err = m.Wait(ctx, st.ID); err != nil {
		return err
	}
	res, err := m.Result(st.ID)
	if err != nil {
		return err
	}
	if res.Hash != want {
		return fmt.Errorf("hash %s, fleet gave %s", res.Hash, want)
	}
	return nil
}
