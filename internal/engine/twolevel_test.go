package engine

import (
	"math"
	"testing"

	"respeed/internal/rngx"
	"respeed/internal/workload"
)

func twoLevelConfig(lambdaS, lambdaF float64, k int) TwoLevelConfig {
	return TwoLevelConfig{
		Plan:      Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
		Costs:     Costs{V: 15.4, R: 30, LambdaS: lambdaS, LambdaF: lambdaF},
		MemC:      20,
		DiskC:     300,
		DiskR:     300,
		DiskEvery: k,
		Model:     testModel(),
		TotalWork: 1000, // 20 patterns
	}
}

func twoLevelRunner() *Runner { return FromWorkload(workload.NewHeat(128, 0.25)) }

// runTwoLevel runs cfg once with faults drawn from the stream (seed, name).
func runTwoLevel(t *testing.T, cfg TwoLevelConfig, seed uint64, name string) TwoLevelReport {
	t.Helper()
	rep, err := cfg.Run(twoLevelRunner(), rngx.NewStream(seed, name))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestTwoLevelErrorFree(t *testing.T) {
	rep := runTwoLevel(t, twoLevelConfig(0, 0, 4), 1, "tl")
	if rep.Patterns != 20 || rep.Executions != 20 {
		t.Errorf("patterns/executions %d/%d", rep.Patterns, rep.Executions)
	}
	if rep.MemCommits != 20 {
		t.Errorf("mem commits %d, want 20", rep.MemCommits)
	}
	// Disk checkpoints at patterns 3,7,11,15,19 → 5 (the final one is a
	// scheduled k-th).
	if rep.DiskCommits != 5 {
		t.Errorf("disk commits %d, want 5", rep.DiskCommits)
	}
	// Makespan: 20 × ((50+15.4)/0.4 + 20) + 5×300.
	want := 20*((50+15.4)/0.4+20) + 5*300
	if math.Abs(rep.Makespan-want) > 1e-6 {
		t.Errorf("makespan %g, want %g", rep.Makespan, want)
	}
}

func TestTwoLevelFinalPatternAlwaysOnDisk(t *testing.T) {
	// With k=7 and 20 patterns, scheduled disk checkpoints land at 6 and
	// 13; the final pattern 19 gets one regardless → 3 total.
	rep := runTwoLevel(t, twoLevelConfig(0, 0, 7), 2, "tl-final")
	if rep.DiskCommits != 3 {
		t.Errorf("disk commits %d, want 3", rep.DiskCommits)
	}
}

func TestTwoLevelSilentUsesMemoryLevel(t *testing.T) {
	rep := runTwoLevel(t, twoLevelConfig(3e-3, 0, 4), 3, "tl-silent")
	if rep.SilentErrors == 0 {
		t.Fatal("no silent errors sampled")
	}
	if rep.MemRecoveries != rep.SilentErrors {
		t.Errorf("memory recoveries %d != silent errors %d", rep.MemRecoveries, rep.SilentErrors)
	}
	if rep.DiskRecoveries != 0 {
		t.Errorf("silent errors triggered %d disk recoveries", rep.DiskRecoveries)
	}
	if rep.PatternsLost != 0 {
		t.Errorf("silent errors lost %d committed patterns", rep.PatternsLost)
	}
}

func TestTwoLevelFailStopRollsBackToDisk(t *testing.T) {
	cfg := twoLevelConfig(0, 4e-3, 5)
	rep := runTwoLevel(t, cfg, 4, "tl-fs")
	if rep.FailStops == 0 {
		t.Fatal("no fail-stops sampled")
	}
	if rep.DiskRecoveries != rep.FailStops {
		t.Errorf("disk recoveries %d != fail-stops %d", rep.DiskRecoveries, rep.FailStops)
	}
	// Each crash can lose at most DiskEvery−1 committed patterns.
	if rep.PatternsLost > rep.FailStops*(cfg.DiskEvery-1) {
		t.Errorf("lost %d patterns across %d crashes with k=%d", rep.PatternsLost, rep.FailStops, cfg.DiskEvery)
	}
	// Re-executions happened: executions exceed patterns.
	if rep.Executions <= rep.Patterns {
		t.Errorf("executions %d should exceed patterns %d", rep.Executions, rep.Patterns)
	}
}

func TestTwoLevelFinalStateClean(t *testing.T) {
	cleanRep := runTwoLevel(t, twoLevelConfig(0, 0, 4), 5, "tl-clean")
	dirtyRep := runTwoLevel(t, twoLevelConfig(3e-3, 3e-3, 4), 6, "tl-dirty")
	if dirtyRep.SilentErrors == 0 || dirtyRep.FailStops == 0 {
		t.Fatalf("want both error kinds (got %d silent, %d fail-stop)", dirtyRep.SilentErrors, dirtyRep.FailStops)
	}
	if dirtyRep.StateDigest != cleanRep.StateDigest {
		t.Error("two-level execution ended corrupted")
	}
	if !(dirtyRep.Makespan > cleanRep.Makespan) {
		t.Error("errors should lengthen the run")
	}
}

func TestTwoLevelValidate(t *testing.T) {
	good := twoLevelConfig(0, 0, 4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.DiskEvery = 0
	if err := bad.Validate(); err == nil {
		t.Error("k=0 should be rejected")
	}
	bad = good
	bad.TotalWork = 1025 // not a multiple of W=50
	if err := bad.Validate(); err == nil {
		t.Error("non-multiple TotalWork should be rejected")
	}
	bad = good
	bad.MemC = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative MemC should be rejected")
	}
	if _, err := good.Run(nil, rngx.NewStream(1, "x")); err == nil {
		t.Error("nil workload should be rejected")
	}
}
