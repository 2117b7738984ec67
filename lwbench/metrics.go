package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lightwave/internal/sim"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root declares the same names and units; the tests keep the
// two in step.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are reported by every workload with --trace 0. An
// "operation" is a durable control-plane mutation on slice-churn and
// drain-churn and one run of the workload's experiment on repro-te,
// repro-util and repro-mc (README.md). Times and rates are in reference
// time (calib.go).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"rss_p50_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
}

// perLayerMetrics are reported by every workload with --trace 1. A layer a
// workload does not exercise reports 0.
var perLayerMetrics = []metricDef{
	{"ctlrpc.ack_p50_us", "us"},
	{"ctlrpc.ack_p99_us", "us"},
	{"ctlrpc.probe_rtt_p50_us", "us"},
	{"ctlrpc.probe_rtt_p99_us", "us"},
	{"ctlrpc.id_mismatches", "count"},
	{"fleet.self_p50_us", "us"},
	{"fleet.passes_per_mutation", "ratio"},
	{"fleet.retry_ratio", "ratio"},
	{"fleet.watch_gaps", "count"},
	{"fleet.status_p50_us", "us"},
	{"fleet.status_p99_us", "us"},
	{"wal.journal_p50_us", "us"},
	{"wal.journal_p99_us", "us"},
	{"wal.records_per_fsync", "ratio"},
	{"wal.fsync_per_s", "1/s"},
	{"wal.bytes_per_record", "B"},
	{"wal.reopen_s", "s"},
	{"core.ensure_p50_us", "us"},
	{"core.ensure_p99_us", "us"},
	{"core.ensure_us_per_cube", "us"},
	{"core.ensure_per_s", "1/s"},
	{"core.destroy_p50_us", "us"},
	{"core.busy_cores", "cores"},
	{"core.info_p99_us", "us"},
	{"dcn.build_s", "s"},
	{"dcn.flowsim_s", "s"},
	{"dcn.fluid_s", "s"},
	{"dcn.flows_per_s", "1/s"},
	{"sched.place_p50_ns", "ns"},
	{"sched.place_calls", "count"},
	{"sched.place_fail_ratio", "ratio"},
	{"sched.sim_s.reconfigurable", "s"},
	{"sched.sim_s.contiguous", "s"},
	{"dsp.mc_ber_s", "s"},
	{"dsp.fleet_ber_s", "s"},
	{"avail.goodput_s", "s"},
	{"par.cpu_cores", "cores"},
	{"host.fsync_p50_us", "us"},
	{"proc.cpu_cores", "cores"},
	{"proc.cpu_ms_per_op", "ms"},
	{"host.speed", "ratio"},
	{"proc.peak_rss_mb", "MB"},
	{"loadgen.status_lag_p99_us", "us"},
	{"op_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// pct returns the p-th percentile of xs, or 0 for no samples.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sim.Percentile(xs, p)
}

// us and ms convert a duration to float microseconds and milliseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler records the resident set size every rssPeriod until stopped.
// The median of the samples is the memory metric: the process's
// high-water mark (VmHWM), and even the samples' 95th percentile, catch
// brief heap spikes of the garbage collector's pacing that come in some
// runs of the same program and not in others.
type rssSampler struct {
	stopc chan struct{}
	done  chan struct{}
	mb    []float64
}

const rssPeriod = 50 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{}), mb: []float64{rssMB()}}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-t.C:
				s.mb = append(s.mb, rssMB())
			}
		}
	}()
	return s
}

// stop ends sampling and returns the median in MB.
func (s *rssSampler) stop() float64 {
	close(s.stopc)
	<-s.done
	return pct(s.mb, 50)
}

// rssMB reads the current resident set size.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// cpuMeter measures process CPU cores busy over a wall-clock interval.
type cpuMeter struct {
	wall time.Time
	cpu  time.Duration
}

func startCPU() cpuMeter { return cpuMeter{wall: time.Now(), cpu: cpuTime()} }

// cores is CPU time over wall time since the meter started.
func (m cpuMeter) cores() float64 {
	return ratio(float64(cpuTime()-m.cpu), float64(time.Since(m.wall)))
}

// used is the CPU time spent since the meter started. Unlike wall time it
// leaves out the time a virtual machine's vCPUs are stolen by the host.
func (m cpuMeter) used() time.Duration { return cpuTime() - m.cpu }
