package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"lightwave/internal/fleet"
)

// benchmarkFile mirrors the fields of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesCatalog keeps BENCHMARK.json and the metric
// catalog the command prints in step.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json declares workload %q, which the command does not run", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, catalog %d", len(bf.EndToEnd), len(endToEndMetrics))
	}
	for i := range min(len(bf.EndToEnd), len(endToEndMetrics)) {
		if e, d := bf.EndToEnd[i], endToEndMetrics[i]; e.Name != d.name || e.Unit != d.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s (%s), catalog %s (%s)", i, e.Name, e.Unit, d.name, d.unit)
		}
	}
	if len(bf.PerLayer) != len(perLayerMetrics) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, catalog %d", len(bf.PerLayer), len(perLayerMetrics))
	}
	for i := range min(len(bf.PerLayer), len(perLayerMetrics)) {
		if e, d := bf.PerLayer[i], perLayerMetrics[i]; e.Name != d.name || e.Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), catalog %s (%s)", i, e.Name, e.Unit, d.name, d.unit)
		}
	}
}

// smokeConfig is a short run of one workload in a test directory.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload:       workload,
		seed:           1,
		seconds:        1,
		trace:          trace,
		dir:            t.TempDir(),
		allowTmpfs:     true,
		realizeTimeout: 10 * time.Second,
	}
}

// checkReport requires a clean run that carries every metric of the set.
func checkReport(t *testing.T, rep *report, trace bool) {
	t.Helper()
	for _, f := range rep.failures {
		t.Errorf("failure: %s", f)
	}
	res := buildResult(rep, trace)
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result correct=%t failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	set, values := endToEndMetrics, rep.endToEnd
	if trace {
		set, values = perLayerMetrics, rep.perLayer
	}
	for _, d := range set {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s missing or unit %q, want %q", d.name, m.Unit, d.unit)
		}
		if !trace {
			if v, ok := values[d.name]; !ok || v <= 0 {
				t.Errorf("end-to-end metric %s = %v, want a positive measurement", d.name, v)
			}
		}
	}
}

func TestSmokeControlPlane(t *testing.T) {
	for _, workload := range []string{"slice-churn", "drain-churn"} {
		for _, trace := range []bool{false, true} {
			name := workload
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				rep, err := workloads[workload](smokeConfig(t, workload, trace))
				if err != nil {
					t.Fatal(err)
				}
				checkReport(t, rep, trace)
				if trace {
					for _, k := range []string{"wal.journal_p50_us", "ctlrpc.ack_p50_us", "ctlrpc.probe_rtt_p50_us", "core.ensure_per_s", "wal.reopen_s"} {
						if rep.perLayer[k] <= 0 {
							t.Errorf("%s = %v, want a positive measurement", k, rep.perLayer[k])
						}
					}
				}
			})
		}
	}
}

// TestSmokeRepro makes one traced run of each reproduction workload, which
// has an untraced operation and a traced one, and checks both metric sets
// and the layer each workload exists to measure.
func TestSmokeRepro(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every reproduction experiment twice")
	}
	layer := map[string]string{
		"repro-te":   "dcn.flows_per_s",
		"repro-util": "sched.place_calls",
		"repro-mc":   "dsp.mc_ber_s",
	}
	for workload, key := range layer {
		t.Run(workload, func(t *testing.T) {
			cfg := smokeConfig(t, workload, true)
			cfg.seconds = 0.01
			rep, err := workloads[workload](cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, false)
			checkReport(t, rep, true)
			if rep.perLayer[key] <= 0 {
				t.Errorf("%s = %v, want a positive measurement", key, rep.perLayer[key])
			}
		})
	}
}

// TestCommandLine checks the printed form: a fingerprint line, then the
// result as the last line, and a non-zero exit for bad arguments.
func TestCommandLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	out.Reset()
	dir := t.TempDir()
	fs, durable, err := filesystem(dir)
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"--workload", "slice-churn", "--seed", "3", "--seconds", "0.5", "--trace", "0", "--dir", dir}
	code := run(args, &out, &errOut)
	if !durable {
		if code == 0 {
			t.Errorf("a WAL directory on %s must be refused", fs)
		}
		return
	}
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
		t.Errorf("result keys %s", got)
	}
	if !strings.Contains(lines[0], `"fingerprint"`) {
		t.Errorf("first line %q is not the host fingerprint", lines[0])
	}
}

// TestPerturbedPinFails: a result that differs from its pin is a failure.
func TestPerturbedPinFails(t *testing.T) {
	in, err := newReproInputs()
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string]string{}
	for k, v := range reproPins {
		pins[k] = v
	}
	var mc experiment
	for _, e := range experiments {
		if e.name == "montecarlo" {
			mc = e
		}
	}
	if _, err := runExperiment(mc, in, nil, &reproLayers{}, pins); err != nil {
		t.Fatalf("pinned montecarlo result: %v", err)
	}
	perturbed := []byte(pins["montecarlo"])
	perturbed[0] ^= 1
	pins["montecarlo"] = string(perturbed)
	if _, err := runExperiment(mc, in, nil, &reproLayers{}, pins); err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Errorf("perturbed pin: err = %v, want a digest mismatch", err)
	}
}

// TestWithheldEventFails: a slice-ready event the watcher never sees is
// reported as a failed mutation and as a watch gap.
func TestWithheldEventFails(t *testing.T) {
	cfg := smokeConfig(t, "slice-churn", false)
	cfg.seconds = 0.5
	cfg.realizeTimeout = 300 * time.Millisecond
	withheld := false
	cfg.watchFilter = func(eventType, slice string) bool {
		if !withheld && eventType == string(fleet.EventSliceReady) && strings.HasPrefix(slice, "pod1.") {
			withheld = true
			return true
		}
		return false
	}
	rep, err := runSliceChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var timedOut, gap bool
	for _, f := range rep.failures {
		timedOut = timedOut || strings.Contains(f, "no slice-ready event")
		gap = gap || strings.Contains(f, "Seq gaps")
	}
	if !timedOut || !gap {
		t.Errorf("failures %q: want a realization timeout and a watch gap", rep.failures)
	}
}

// TestReferenceTime: on a host that runs the kernel in 1.25 ms and steals
// a fifth of the busy time, speed is 0.8 × 0.8, and every end-to-end time
// and rate converts by it, each operation at the speed of its own moment.
func TestReferenceTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	p := &speedProbe{stolen: 0.2, pad: calibPad}
	for i := 0; i < 200; i++ {
		ns := 1.25e6
		if i >= 100 {
			ns = 2.5e6 // the host slows down by half after 10 s
		}
		p.samples = append(p.samples, probeSample{at: t0.Add(time.Duration(i) * 100 * time.Millisecond), ns: ns})
	}
	p.once.Do(func() {}) // stopped already
	rep := newReport()
	rep.endToEnd["setup_s"] = 2
	ops := []opSample{
		{at: t0.Add(2 * time.Second), d: 100 * time.Millisecond},
		{at: t0.Add(3 * time.Second), d: 100 * time.Millisecond},
		{at: t0.Add(15 * time.Second), d: 200 * time.Millisecond},
	}
	windowMetrics(rep, p, t0, t0.Add(20*time.Second), 40, ops)
	near := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("op_p50_ms", rep.endToEnd["op_p50_ms"], 64)          // each op is 80 ms at its own speed, × 0.8
	near("ops_per_s", rep.endToEnd["ops_per_s"], 40/(0.8*12)) // 10 s at 0.8 and 10 s at 0.4, × 0.8
	near("setup_s", rep.endToEnd["setup_s"], 1.6)
	near("raw op_p50_ms", rep.raw["op_p50_ms"], 100)
	near("raw ops_per_s", rep.raw["ops_per_s"], 2)
}
