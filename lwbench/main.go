// Command lwbench is the repository's benchmark. One invocation runs one
// workload for a fixed number of seconds, checks the program's outputs, and
// prints one JSON result line:
//
//	go run ./lwbench --workload slice-churn --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//   - slice-churn: an in-process lwfleetd (4 pods x 64 cubes, a disk WAL,
//     the fleet ctlrpc server on loopback) under closed-loop slice
//     compose/teardown plus an open-loop fleet-status monitor;
//   - drain-churn: the same daemon over a standing slice population, under
//     closed-loop OCS drain/undrain plus the same monitor (not declared in
//     BENCHMARK.json: its spread follows the disk, see README.md);
//   - repro-te, repro-util, repro-mc: one reproduction experiment each,
//     repeated (§4.2 topology engineering, the §4.2.4 utilization gap, the
//     Fig 11b/13/15b Monte Carlo set), with no control plane and no disk.
//
// The program runs on one core (GOMAXPROCS 1), and end-to-end times are
// converted to a reference host's time by a speed probe that runs beside
// the workload (calib.go). With --trace 0 the result carries the end-to-end
// metrics; with --trace 1 the benchmark wraps the program's own seams
// (fleet.Journal, fleet.Backend, sched.Placer) and times direct
// dcn/dsp/avail calls, and the result carries the per-layer metrics
// instead. README.md lists every metric, the layer it
// belongs to and the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	// One core: on a host of a few shared cores, parallel work measures
	// which core another tenant holds at the moment, not the program. The
	// program's fan-out still runs every shard, on one worker.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// dir holds the control-plane workloads' state directories.
	dir string
	// allowTmpfs lets tests run on a tmpfs temporary directory; the
	// command line cannot set it.
	allowTmpfs bool
	// realizeTimeout bounds the wait for a mutation to show on the watch.
	realizeTimeout time.Duration
	// watchFilter, when set, drops matching watch events before the
	// benchmark sees them (tests use it to withhold an event).
	watchFilter func(eventType, slice string) bool
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload hands back: operation counts, the reasons for
// any failure, and both metric sets.
type report struct {
	attempted int
	failures  []string
	endToEnd  map[string]float64
	perLayer  map[string]float64
	// raw holds the end-to-end times as measured, before conversion to
	// reference time at the window's host speed (calib.go).
	raw           map[string]float64
	speed, stolen float64
	host          fingerprint
}

func newReport() *report {
	return &report{endToEnd: map[string]float64{}, perLayer: map[string]float64{}, raw: map[string]float64{}}
}

// fail records one failed, timed-out or incorrect operation.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// check counts one correctness check as an attempted operation and records
// a failure when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// maxFailureLines caps how many failures are listed on stderr.
const maxFailureLines = 20

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*report, error){
	"slice-churn": runSliceChurn,
	"drain-churn": runDrainChurn,
	"repro-te":    reproRunner("dcn_te"),
	"repro-util":  reproRunner("superpod_util"),
	"repro-mc":    reproRunner("montecarlo"),
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lwbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{realizeTimeout: 10 * time.Second}
	fs.StringVar(&cfg.workload, "workload", "", "workload: slice-churn, drain-churn, repro-te, repro-util or repro-mc")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; every random stream derives from it")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "measurement window in seconds")
	traceFlag := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	fs.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "lwbench-state"), "directory for the control plane's WAL (must not be tmpfs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "lwbench: unknown workload %q (want %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "lwbench: --trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "lwbench: --seconds must be positive, got %g\n", cfg.seconds)
		return 2
	}
	cfg.trace = *traceFlag == 1

	rep, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "lwbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	rep.host.Speed, rep.host.Stolen, rep.host.Raw = rep.speed, rep.stolen, rep.raw
	for i, f := range rep.failures {
		if i == maxFailureLines {
			fmt.Fprintf(stderr, "lwbench: ... and %d more failures\n", len(rep.failures)-i)
			break
		}
		fmt.Fprintf(stderr, "lwbench: FAIL %s\n", f)
	}
	host, err := json.Marshal(map[string]fingerprint{"fingerprint": rep.host})
	if err != nil {
		fmt.Fprintf(stderr, "lwbench: encoding fingerprint: %v\n", err)
		return 1
	}
	line, err := json.Marshal(buildResult(rep, cfg.trace))
	if err != nil {
		fmt.Fprintf(stderr, "lwbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", host, line)
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// buildResult selects the metric set for the trace mode and attaches units
// from the catalog. Every catalog metric of the set is present.
func buildResult(rep *report, trace bool) result {
	set, values := endToEndMetrics, rep.endToEnd
	if trace {
		set, values = perLayerMetrics, rep.perLayer
	}
	res := result{
		Correct:   len(rep.failures) == 0,
		Attempted: max(rep.attempted, 1),
		Failed:    len(rep.failures),
		Metrics:   make(map[string]metric, len(set)),
	}
	for _, d := range set {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return res
}
