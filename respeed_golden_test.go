package respeed_test

import (
	"fmt"
	"math"
	"testing"

	"respeed"
)

// Façade golden tests: RunWorkload and RunTwoLevel draw their faults
// from the streams "respeed/exec" and "respeed/twolevel". The values
// below pin both streams, the partial-position sampler derived from
// the first, and the energy billing of each path, so a change of
// stream name, draw order or recorder shows up as a failure.

func wantFacadeBits(t *testing.T, name string, got float64, want string) {
	t.Helper()
	if g := fmt.Sprintf("0x%016x", math.Float64bits(got)); g != want {
		t.Errorf("%s: got %s (%v), want %s", name, g, got, want)
	}
}

func wantFacadeInts(t *testing.T, got, want map[string]int) {
	t.Helper()
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: got %d, want %d", k, got[k], w)
		}
	}
}

func facadeExecConfig() respeed.ExecConfig {
	return respeed.ExecConfig{
		Plan:      respeed.Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
		Costs:     respeed.Costs{C: 6, V: 15.4, R: 30, LambdaS: 2e-3, LambdaF: 1e-3},
		Model:     respeed.PowerModel{Kappa: 1550, Pidle: 60, Pio: 5.23},
		TotalWork: 500,
	}
}

func TestGoldenFacadeRunWorkload(t *testing.T) {
	rep, err := respeed.RunWorkload(facadeExecConfig(), respeed.NewHeatWorkload(128, 0.25), 11)
	if err != nil {
		t.Fatal(err)
	}
	wantFacadeBits(t, "makespan", rep.Makespan, "0x40a1f433839c237d")
	wantFacadeBits(t, "energy", rep.Energy, "0x4124df08090b7fab")
	if got := uint64(rep.StateDigest); got != 0x11553923cc7adc66 {
		t.Errorf("digest: got 0x%016x", got)
	}
	wantFacadeInts(t, map[string]int{
		"patterns": rep.Patterns, "attempts": rep.Attempts,
		"silentInjected": rep.SilentInjected, "silentDetected": rep.SilentDetected,
		"failStops": rep.FailStops,
	}, map[string]int{
		"patterns": 10, "attempts": 16,
		"silentInjected": 5, "silentDetected": 5,
		"failStops": 1,
	})
}

func TestGoldenFacadeRunWorkloadPartial(t *testing.T) {
	cfg := facadeExecConfig()
	cfg.Partial = &respeed.PartialExec{Segments: 4, Coverage: 0.7, Cost: 2}
	rep, err := respeed.RunWorkload(cfg, respeed.NewHeatWorkload(128, 0.25), 12)
	if err != nil {
		t.Fatal(err)
	}
	wantFacadeBits(t, "makespan", rep.Makespan, "0x40a1939c407f2383")
	wantFacadeBits(t, "energy", rep.Energy, "0x41259716c4e8aa15")
	if got := uint64(rep.StateDigest); got != 0x11553923cc7adc66 {
		t.Errorf("digest: got 0x%016x", got)
	}
	wantFacadeInts(t, map[string]int{
		"patterns": rep.Patterns, "attempts": rep.Attempts,
		"silentInjected": rep.SilentInjected, "silentDetected": rep.SilentDetected,
		"failStops":     rep.FailStops,
		"partialChecks": rep.PartialChecks, "partialDetections": rep.PartialDetections,
	}, map[string]int{
		"patterns": 10, "attempts": 16,
		"silentInjected": 5, "silentDetected": 5,
		"failStops":     1,
		"partialChecks": 41, "partialDetections": 2,
	})
}

func TestGoldenFacadeRunTwoLevel(t *testing.T) {
	rep, err := respeed.RunTwoLevel(respeed.TwoLevelConfig{
		Plan:      respeed.Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
		Costs:     respeed.Costs{V: 15.4, R: 30, LambdaS: 1.5e-3, LambdaF: 2e-3},
		MemC:      20,
		DiskC:     300,
		DiskR:     300,
		DiskEvery: 4,
		Model:     respeed.PowerModel{Kappa: 1550, Pidle: 60, Pio: 5.23},
		TotalWork: 1000,
	}, respeed.NewStreamWorkload(5, 8), 13)
	if err != nil {
		t.Fatal(err)
	}
	wantFacadeBits(t, "makespan", rep.Makespan, "0x40ccdda375864a82")
	wantFacadeBits(t, "energy", rep.Energy, "0x414de60113161cc9")
	if got := uint64(rep.StateDigest); got != 0xe011f6fa2c0c7495 {
		t.Errorf("digest: got 0x%016x", got)
	}
	wantFacadeInts(t, map[string]int{
		"patterns": rep.Patterns, "executions": rep.Executions,
		"memCommits": rep.MemCommits, "diskCommits": rep.DiskCommits,
		"silentErrors": rep.SilentErrors, "failStops": rep.FailStops,
		"memRecoveries": rep.MemRecoveries, "diskRecoveries": rep.DiskRecoveries,
		"patternsLost": rep.PatternsLost,
	}, map[string]int{
		"patterns": 20, "executions": 72,
		"memCommits": 53, "diskCommits": 5,
		"silentErrors": 3, "failStops": 16,
		"memRecoveries": 3, "diskRecoveries": 16,
		"patternsLost": 33,
	})
}
