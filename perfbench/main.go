// Command perfbench is the end-to-end benchmark of the respeedd daemon.
//
// It starts the daemons in-process, wired as cmd/respeedd wires them,
// each on a loopback listener, and drives them from a seeded load
// generator in the same process. Every answer is checked. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the named workload's end-to-end
// figures. With --trace 1 the run is the traced layer profile: every
// workload runs once untraced and once with the benchmark's timing
// wrappers and a trace ring sized to keep the whole run, and the metrics
// are the per-layer figures plus each workload's tracing overhead.
// --workload all runs every workload untraced in turn.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload plan-mix --seed 1 --seconds 10 --trace 0
//
// Workload parameters, latency limits and the traffic properties
// measured on each workload live in perfbench/workloads.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"respeed/internal/obs"
)

// workloadNames lists the workloads in run order.
var workloadNames = []string{"plan-mix", "scenario-sim", "campaign-fleet"}

// metricRow is one reported figure with its unit and sample count.
type metricRow struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
	// info rows are printed in the report but are not benchmark metrics.
	info bool
}

// outcome is what one workload run (or the traced profile) reports.
type outcome struct {
	attempted, failed int64
	problems          []string // correctness failures; any makes the run incorrect
	rows              []metricRow
}

func (o *outcome) add(name string, value float64, unit string, n int, note string) {
	o.rows = append(o.rows, metricRow{name, value, unit, n, note, false})
}

// info adds a row that is reported but is not one of the benchmark's
// metrics.
func (o *outcome) info(name string, value float64, unit string, n int, note string) {
	o.rows = append(o.rows, metricRow{name, value, unit, n, note, true})
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// run is the shared context of one benchmark invocation.
type run struct {
	cfg     config
	seed    uint64
	seconds float64
	workDir string // per-invocation scratch directory (journals)
	// log is every daemon's logger: info-level text lines, as respeedd
	// writes them by default, appended to a file in workDir.
	log *slog.Logger
	// warmed is every solver key warmed so far, per config (see
	// phaseOpts.warmMemo).
	warmed map[string]map[float64]bool
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer profile")
	flag.Parse()

	known := *workload == "all"
	for _, w := range workloadNames {
		known = known || w == *workload
	}
	if !known || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload one of "+strings.Join(workloadNames, ", ")+
			" or all, --seconds > 0 and --trace 0|1")
		return 2
	}
	cfg, err := loadConfig(filepath.Join("perfbench", "workloads.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Journals and other scratch live under the build directory of the
	// checkout, removed on exit.
	workDir, err := makeWorkDir(".bench_build")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	logFile, err := os.Create(filepath.Join(workDir, "respeedd.log"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer logFile.Close()
	r := &run{cfg: cfg, seed: *seed, seconds: *seconds, workDir: workDir,
		log: obs.NewLogger(logFile, "info", "text"), warmed: map[string]map[float64]bool{}}

	senders := map[string]int{"plan-mix": cfg.PlanMix.Senders, "scenario-sim": cfg.ScenarioSim.Clients, "campaign-fleet": 1}
	most := 0
	for _, n := range senders {
		most = max(most, n)
	}
	if n, ok := senders[*workload]; ok && *trace == 0 {
		most = n
	}
	hostLine, _ := json.Marshal(readHost(workDir, most))
	fmt.Printf("host %s\n", hostLine)

	var outs []outcome
	var names []string
	switch {
	case *trace == 1:
		names = []string{"traced"}
		outs = []outcome{r.traced()}
	case *workload == "all":
		names = workloadNames
		for _, w := range workloadNames {
			outs = append(outs, r.workload(w))
		}
	default:
		names = []string{*workload}
		outs = []outcome{r.workload(*workload)}
	}
	code := 0
	for i, o := range outs {
		report(os.Stdout, names[i], o)
		if len(o.problems) > 0 {
			code = 1
		}
		if err := printResult(os.Stdout, o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	return code
}

// workload runs one workload untraced.
func (r *run) workload(name string) outcome {
	switch name {
	case "plan-mix":
		return r.planMix(phaseOpts{seconds: r.seconds, timeSetup: true}).outcome
	case "scenario-sim":
		return r.scenarioSim(phaseOpts{seconds: r.seconds, timeSetup: true}).outcome
	default:
		return r.campaignFleet(phaseOpts{seconds: r.seconds, timeSetup: true}).outcome
	}
}

// report prints every row with its unit and sample count, the
// correctness problems, and the failure ratio.
func report(w io.Writer, name string, o outcome) {
	rows := append([]metricRow(nil), o.rows...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for _, m := range rows {
		line := fmt.Sprintf("%s %s = %.6g %s (n=%d)", name, m.name, m.value, m.unit, m.n)
		if m.info {
			m.note = strings.TrimSuffix("info, "+m.note, ", ")
		}
		if m.note != "" {
			line += " [" + m.note + "]"
		}
		fmt.Fprintln(w, line)
	}
	ratio := 0.0
	if o.attempted > 0 {
		ratio = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "%s fail_ratio = %.6g ratio (failed %d of %d attempted)\n", name, ratio, o.failed, o.attempted)
	const shown = 20
	for i, p := range o.problems {
		if i == shown {
			fmt.Fprintf(w, "%s INCORRECT: ... and %d more\n", name, len(o.problems)-shown)
			break
		}
		fmt.Fprintf(w, "%s INCORRECT: %s\n", name, p)
	}
}

// resultMetric is one entry of the result line's metrics object.
type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the machine-readable result line: every metric row
// with a finite value, none of the info rows.
func printResult(w io.Writer, o outcome) error {
	metrics := make(map[string]resultMetric, len(o.rows))
	for _, m := range o.rows {
		if m.info {
			continue
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			continue
		}
		metrics[m.name] = resultMetric{Value: m.value, Unit: m.unit}
	}
	attempted := o.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int64                   `json:"attempted"`
		Failed    int64                   `json:"failed"`
		Metrics   map[string]resultMetric `json:"metrics"`
	}{len(o.problems) == 0, attempted, o.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// phaseOpts selects how one workload phase runs.
type phaseOpts struct {
	seconds   float64
	timeSetup bool // build the stack setupRounds times and report setup_s
	// warmMemo solves every (config, ρ) key of the phase through the
	// façade before its stack is built, so the process-wide solver memo
	// holds all of them whatever ran before. The traced profile sets it
	// on both phases of a workload so that they start alike.
	warmMemo bool
	// Traced phases only: the shared wrappers, and a hook that reads the
	// daemons after the timed phase, before they stop.
	tr      *tracing
	collect func(stack)
}

// phaseResult is one workload phase: its outcome plus the figures the
// traced profile compares between untraced and traced phases.
type phaseResult struct {
	outcome
	latencyP50 float64 // ms
	// The executed ops and their records (request IDs when traced), and
	// the offset from which ops count toward the timed figures.
	ops       []op
	recs      []record
	ids       []string
	timedFrom time.Duration
	// runtime/metrics around the run loop.
	rt0, rt1   runtimeCounters
	goroutines uint64
}

// timed returns the phase length as a duration.
func (p phaseOpts) timed() time.Duration {
	return time.Duration(p.seconds * float64(time.Second))
}
