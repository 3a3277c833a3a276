// Tests for the composed-scenario mode of /v1/simulate.
package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"respeed"
	"respeed/internal/serve"
)

// TestSimulateScenarioEndpoint exercises both composed scenarios
// end-to-end and cross-checks them against the façade.
func TestSimulateScenarioEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	p := respeed.ParamsFor(cfg)

	for _, name := range []string{"cluster-twolevel", "partial-failstop"} {
		t.Run(name, func(t *testing.T) {
			status, body := get(t, ts.URL,
				"/v1/simulate?config=Hera%2FXScale&rho=3&scenario="+name+"&n=20&seed=7")
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			var decoded struct {
				Scenario string          `json:"scenario"`
				N        int             `json:"n"`
				Report   json.RawMessage `json:"report"`
				Estimate json.RawMessage `json:"estimate"`
			}
			if err := json.Unmarshal(body, &decoded); err != nil {
				t.Fatal(err)
			}
			if decoded.Scenario != name || decoded.N != 20 {
				t.Errorf("echo fields = (%q, %d), want (%q, 20)", decoded.Scenario, decoded.N, name)
			}

			// Rebuild the same composition through the façade; the
			// endpoint must be byte-identical to it.
			sc := respeed.Scenario{
				Plan:      respeed.Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
				Costs:     respeed.Costs{C: p.C, V: p.V, R: p.R},
				Model:     respeed.PowerModelFor(cfg),
				TotalWork: 500,
			}
			switch name {
			case "cluster-twolevel":
				sc.Nodes = respeed.UniformScenarioNodes(4, 2e-3, 5e-4)
				sc.TwoLevel = &respeed.TwoLevelSpec{MemC: p.C / 4, DiskC: p.C, DiskR: 2 * p.R, Every: 3}
			case "partial-failstop":
				sc.Costs.LambdaS, sc.Costs.LambdaF = 2e-3, 5e-4
				sc.Partial = &respeed.PartialExec{Segments: 4, Coverage: 0.8, Cost: p.V / 4}
			}
			mk := func() respeed.Workload { return respeed.NewStreamWorkload(7, 64) }

			rep, err := respeed.RunScenario(sc, mk, 7)
			if err != nil {
				t.Fatal(err)
			}
			wantRep, _ := json.Marshal(rep)
			if !bytes.Equal(decoded.Report, wantRep) {
				t.Errorf("report differs from RunScenario:\n got %s\nwant %s", decoded.Report, wantRep)
			}
			est, err := respeed.ReplicateScenario(sc, mk, 7, 20, 0)
			if err != nil {
				t.Fatal(err)
			}
			wantEst, _ := json.Marshal(est)
			if !bytes.Equal(decoded.Estimate, wantEst) {
				t.Errorf("estimate differs from ReplicateScenario:\n got %s\nwant %s", decoded.Estimate, wantEst)
			}
			if rep.Attempts < rep.Patterns || rep.Patterns == 0 {
				t.Errorf("implausible report: %+v", rep)
			}

			// Same query again: cached, byte-identical.
			_, second := get(t, ts.URL,
				"/v1/simulate?config=Hera%2FXScale&rho=3&scenario="+name+"&n=20&seed=7")
			if !bytes.Equal(body, second) {
				t.Error("repeated scenario simulation changed bytes")
			}
		})
	}
}

// TestSimulateScenarioValidation covers the scenario-specific parameter
// errors.
func TestSimulateScenarioValidation(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	cases := []struct {
		path string
		want int
	}{
		{"/v1/simulate?config=Hera%2FXScale&rho=3&scenario=nope", http.StatusBadRequest},
		{"/v1/simulate?config=Hera%2FXScale&rho=3&scenario=cluster-twolevel&n=99999", http.StatusBadRequest},
	}
	for _, c := range cases {
		status, body := get(t, ts.URL, c.path)
		if status != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.path, status, c.want, body)
		}
	}
}

// TestScenarioCacheHitReplaysExactBytes repeats a scenario request: the
// second answer comes from the cache, where heavy answers are stored
// compressed, and must be byte-identical to the first.
func TestScenarioCacheHitReplaysExactBytes(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{})
	const q = "/v1/simulate?config=Hera%2FXScale&rho=3&scenario=cluster-twolevel&n=8&seed=77"
	status, first := get(t, ts.URL, q)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, first)
	}
	status, second := get(t, ts.URL, q)
	if status != http.StatusOK || !bytes.Equal(first, second) {
		t.Fatalf("cached answer differs (status %d):\n%s\n%s", status, first, second)
	}
	if ep := s.Metrics().Endpoints["/v1/simulate"]; ep.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", ep.CacheHits)
	}
}
