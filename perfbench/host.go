package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"
)

// config is perfbench/workloads.json: the fixed parameters of every
// workload. Keys the program does not read (why, loop, the notes,
// observed) are the workload records.
type config struct {
	PlanMix       planMixConfig       `json:"plan-mix"`
	ScenarioSim   scenarioSimConfig   `json:"scenario-sim"`
	CampaignFleet campaignFleetConfig `json:"campaign-fleet"`
}

type planMixConfig struct {
	RatePerS     float64            `json:"rate_per_s"`
	Senders      int                `json:"senders"`
	WarmupS      float64            `json:"warmup_s"`
	HotKeys      int                `json:"hot_keys"`
	ColdKeys     int                `json:"cold_keys"`
	HotShare     float64            `json:"hot_share"`
	ZipfS        float64            `json:"zipf_s"`
	Mix          map[string]float64 `json:"mix"`
	SimulateN    int                `json:"simulate_n"`
	RhoRange     [2]float64         `json:"rho_range"`
	ScrapeEveryS float64            `json:"scrape_every_s"`
	LimitsMS     map[string]float64 `json:"limits_ms"`
	SampleShare  float64            `json:"sample_share"`
}

type scenarioSimConfig struct {
	Clients     int                `json:"clients"`
	WarmupS     float64            `json:"warmup_s"`
	N           int                `json:"n"`
	Mix         map[string]float64 `json:"mix"`
	Specs       map[string]string  `json:"specs"`
	MaxRate     float64            `json:"max_rate_per_client"`
	LimitsMS    map[string]float64 `json:"limits_ms"`
	SampleShare float64            `json:"sample_share"`
}

type campaignFleetConfig struct {
	WarmupCampaigns int        `json:"warmup_campaigns"`
	SweepEvery      int        `json:"sweep_every"`
	SweepRhos       int        `json:"sweep_rhos"`
	MonteCarloCells int        `json:"montecarlo_cells"`
	MonteCarloN     int        `json:"montecarlo_n"`
	RhoRange        [2]float64 `json:"rho_range"`
	MaxRate         float64    `json:"max_campaigns_per_s"`
	LimitS          float64    `json:"limit_s"`
}

func loadConfig(path string) (config, error) {
	var c config
	data, err := os.ReadFile(path)
	if err != nil {
		return c, fmt.Errorf("read workload parameters: %w", err)
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("parse %s: %w", path, err)
	}
	return c, nil
}

// hostRecord describes the machine a result was measured on.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	JournalFS  string `json:"journal_fs"`
	Threads    int    `json:"generator_threads"`
	Conns      int    `json:"generator_connections"`
}

// readHost records the machine; senders is the generator's sender
// goroutine count, each holding one connection.
func readHost(journalDir string, senders int) hostRecord {
	return hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		JournalFS:  fsType(journalDir),
		Threads:    senders,
		Conns:      senders,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsMagic names the common Linux filesystem magic numbers.
var fsMagic = map[int64]string{
	0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
	0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// runtimeSampler polls runtime/metrics during a timed phase: the peak
// live heap and the peak goroutine count, plus an optional extra probe.
type runtimeSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	heap uint64
	gor  uint64
}

// Samples taken before from are ignored.
func startSampler(every time.Duration, from time.Time, probe func()) *runtimeSampler {
	s := &runtimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	ms := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/sched/goroutines:goroutines"}}
	read := func() {
		if time.Now().Before(from) {
			return
		}
		metrics.Read(ms)
		s.mu.Lock()
		s.heap = max(s.heap, ms[0].Value.Uint64())
		s.gor = max(s.gor, ms[1].Value.Uint64())
		s.mu.Unlock()
		if probe != nil {
			probe()
		}
	}
	read()
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak live heap in MiB and
// the peak goroutine count.
func (s *runtimeSampler) finish() (heapMiB float64, goroutines uint64) {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.heap) / (1 << 20), s.gor
}

// settledHeapMiB collects garbage and returns the live heap: the
// baseline heap_peak_mb is measured from, taken once the workload's
// inputs and record slices exist and before the timed phase starts.
func settledHeapMiB() float64 {
	runtime.GC()
	ms := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(ms)
	return float64(ms[0].Value.Uint64()) / (1 << 20)
}

// runtimeCounters is a point-in-time read of the cumulative runtime
// counters the traced profile differences.
type runtimeCounters struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

func readRuntime() runtimeCounters {
	ms := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ms)
	return runtimeCounters{ms[0].Value.Uint64(), ms[1].Value.Float64(), ms[2].Value.Float64()}
}
