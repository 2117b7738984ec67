package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on shared hosts whose per-core speed moves by tens of
// percent from one minute to the next as other tenants come and go, with the
// program unchanged. To report the program's speed rather than the host's,
// a speed probe runs beside every workload: periodically it runs a fixed
// kernel owned by the benchmark (so no change to the program can change
// it) with its data in the caches and times it in thread CPU time, which
// does not count the time the probe waits for a core. Beside a
// single-threaded experiment it runs every calibPeriod; the control plane
// keeps both virtual CPUs busy (loopback networking, fsync, the runtime's
// threads), which would slow the kernel with the program's own work, so
// there it pauses the load every calibQuietPeriod and times the kernel in
// the quiet. The host speed at a moment is calibRefNs over the median
// kernel time of the samples around it, and every end-to-end time is
// converted to reference time with
// the speed of its own moment: an operation's time × the speed while it
// ran, a rate over the window's reference seconds. Thread CPU time does not
// count the time the hypervisor steals from the virtual CPU either, while
// the program's wall times do, so every speed is also multiplied by the
// share of the virtual CPUs' busy time that was not stolen during the
// window. On a host that runs the kernel in calibRefNs and steals nothing,
// the reported and the raw values are equal.

const (
	// calibPeriod is how often the probe runs the kernel, twice, beside
	// an experiment; one kernel takes about 1 ms, so the probe uses about
	// 4% of a core.
	calibPeriod = 50 * time.Millisecond
	// calibQuietPeriod is how often the probe pauses the control-plane
	// load; each pause waits for the operations in flight and then times
	// calibQuietRuns kernels.
	calibQuietPeriod = time.Second
	calibQuietRuns   = 3
	// calibRefNs defines the reference host: one that runs the kernel in
	// 1 ms. The 2-vCPU Intel Xeon VM of README.md's baseline took
	// 0.9–1.2 ms.
	calibRefNs = 1.0e6
	// calibPad and calibQuietPad widen the span an operation's speed is
	// taken over, so that a short operation still has a median of several
	// samples.
	calibPad      = 500 * time.Millisecond
	calibQuietPad = 1500 * time.Millisecond
	// calibBin is the step of the integral of speed over a window.
	calibBin = time.Second
	// calibRounds, calibKeys and calibFloats size the kernel.
	calibRounds = 4
	calibKeys   = 1 << 13
	calibFloats = 1 << 11
)

// calibKernel is the probe's fixed work: hashing, a float sort and random
// map updates, the mix of the program's own inner loops. Its buffers are
// reused so it does not allocate and the garbage collector cannot charge
// it for the workload's garbage.
type calibKernel struct {
	m  map[uint64]uint64
	xs []float64
	h  uint64
}

func newCalibKernel() *calibKernel {
	k := &calibKernel{m: make(map[uint64]uint64, calibKeys), xs: make([]float64, calibFloats), h: 1469598103934665603}
	k.run() // fill the map
	return k
}

func (k *calibKernel) run() {
	h := k.h
	for r := 0; r < calibRounds; r++ {
		for i := range k.xs {
			h ^= uint64(i + r)
			h *= 1099511628211
			k.xs[i] = float64(h>>11) / (1 << 53)
		}
		sort.Float64s(k.xs)
		for i := 0; i < calibKeys/4; i++ {
			key := h + uint64(i)*0x9e3779b97f4a7c15
			k.m[key&(calibKeys-1)] += key
			h ^= k.m[(key>>7)&(calibKeys-1)]
		}
	}
	k.h = h
}

// timed runs the kernel twice and returns the thread CPU time of the
// second run. The first brings the kernel's data back into the caches,
// which the workload has used since, so the time does not depend on how
// much cache the program uses. The caller holds its OS thread.
func (k *calibKernel) timed() float64 {
	k.run()
	t0 := threadCPU()
	k.run()
	return float64(threadCPU() - t0)
}

// speedNow times the kernel three times on the calling goroutine's thread
// and returns calibRefNs over the median: the host speed at this moment.
func (k *calibKernel) speedNow() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ns := []float64{k.timed(), k.timed(), k.timed()}
	sort.Float64s(ns)
	return ratio(calibRefNs, ns[1])
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// timeSetups times a workload's set-up: groups times, it measures the host
// speed and then runs once per times; once returns the seconds it timed.
// Set-up takes a second or less before the window, so each group is
// converted to reference time with the speed measured just before it. It
// returns the median set-up time as measured and in reference time, before
// the stolen share is taken out.
func timeSetups(groups, per int, once func() (float64, error)) (raw, ref float64, err error) {
	k := newCalibKernel()
	var raws, refs []float64
	for g := 0; g < groups; g++ {
		speed := k.speedNow()
		for i := 0; i < per; i++ {
			d, err := once()
			if err != nil {
				return 0, 0, err
			}
			raws = append(raws, d)
			refs = append(refs, d*speed)
		}
	}
	return pct(raws, 50), pct(refs, 50), nil
}

// cpuStat is the system-wide CPU time split of /proc/stat, in clock ticks.
type cpuStat struct {
	busy, steal float64
}

// readCPUStat reads the "cpu" line of /proc/stat: user, nice, system,
// idle, iowait, irq, softirq, steal. Busy is everything but idle and
// iowait, steal included. A host without it reads as zero.
func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var v [8]float64
	for i := range v {
		v[i], _ = strconv.ParseFloat(f[i+1], 64)
	}
	return cpuStat{busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7], steal: v[7]}
}

// probeSample is one timed kernel run.
type probeSample struct {
	at time.Time
	ns float64
}

// speedProbe times the kernel until stopped. Start it before the window
// and stop it after; its conversions are valid once it has stopped.
type speedProbe struct {
	stopc   chan struct{}
	done    chan struct{}
	pad     time.Duration
	mu      sync.Mutex
	samples []probeSample // in time order
	stat    cpuStat
	once    sync.Once
	// stolen is the share of busy CPU time stolen while the probe ran,
	// set by stop.
	stolen float64
}

// startSpeedProbe starts the probe. With a nil quiet it times one kernel
// every calibPeriod beside the load; otherwise every calibQuietPeriod it
// takes quiet's lock, which the load holds shared for each of its
// operations, and times calibQuietRuns kernels.
func startSpeedProbe(quiet sync.Locker) *speedProbe {
	p := &speedProbe{stopc: make(chan struct{}), done: make(chan struct{}), pad: calibPad, stat: readCPUStat()}
	period, runs := calibPeriod, 1
	if quiet != nil {
		p.pad, period, runs = calibQuietPad, calibQuietPeriod, calibQuietRuns
	}
	go func() {
		defer close(p.done)
		// The probe keeps one OS thread so its clock reads the kernel's
		// CPU time only.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		k := newCalibKernel()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			if quiet != nil {
				quiet.Lock()
			}
			for i := 0; i < runs; i++ {
				s := probeSample{ns: k.timed(), at: time.Now()}
				p.mu.Lock()
				p.samples = append(p.samples, s)
				p.mu.Unlock()
			}
			if quiet != nil {
				quiet.Unlock()
			}
			select {
			case <-p.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// stop ends probing, once, and records the share of busy CPU time stolen.
func (p *speedProbe) stop() {
	p.once.Do(func() {
		close(p.stopc)
		<-p.done
		end := readCPUStat()
		p.stolen = ratio(end.steal-p.stat.steal, end.busy-p.stat.busy)
	})
}

// speedOver is the host speed over [a, b]: calibRefNs over the median
// kernel time of the samples within the probe's pad of the span, times the
// share not stolen.
func (p *speedProbe) speedOver(a, b time.Time) float64 {
	lo := sort.Search(len(p.samples), func(i int) bool { return !p.samples[i].at.Before(a.Add(-p.pad)) })
	hi := sort.Search(len(p.samples), func(i int) bool { return p.samples[i].at.After(b.Add(p.pad)) })
	if lo >= hi {
		// No sample near the span: the nearest one.
		lo = min(lo, len(p.samples)-1)
		hi = lo + 1
	}
	ns := make([]float64, 0, hi-lo)
	for _, s := range p.samples[lo:hi] {
		ns = append(ns, s.ns)
	}
	return ratio(calibRefNs, pct(ns, 50)) * (1 - p.stolen)
}

// refSeconds is the reference time that passed over [a, b]: the integral
// of the host speed, in calibBin steps.
func (p *speedProbe) refSeconds(a, b time.Time) float64 {
	var s float64
	for t := a; t.Before(b); t = t.Add(calibBin) {
		e := t.Add(calibBin)
		if e.After(b) {
			e = b
		}
		s += e.Sub(t).Seconds() * p.speedOver(t, e)
	}
	return s
}

// opSample is one operation of the window: when it started and how long
// it took, as measured.
type opSample struct {
	at time.Time
	d  time.Duration
}

// windowMetrics stops the probe and sets the end-to-end metrics in
// reference time: ops_per_s, count operations over the window [start,
// stop]; op_p50_ms over ops; and setup_s, which timeSetups converted, less
// the stolen share. It keeps the values as measured in rep.raw.
func windowMetrics(rep *report, p *speedProbe, start, stop time.Time, count int, ops []opSample) {
	p.stop()
	raw := make([]float64, len(ops))
	ref := make([]float64, len(ops))
	for i, o := range ops {
		raw[i] = ms(o.d)
		ref[i] = raw[i] * p.speedOver(o.at, o.at.Add(o.d))
	}
	rep.raw["ops_per_s"] = float64(count) / stop.Sub(start).Seconds()
	rep.raw["op_p50_ms"] = pct(raw, 50)
	rep.endToEnd["ops_per_s"] = ratio(float64(count), p.refSeconds(start, stop))
	rep.endToEnd["op_p50_ms"] = pct(ref, 50)
	rep.endToEnd["setup_s"] *= 1 - p.stolen
	rep.speed, rep.stolen = p.speedOver(start, stop), p.stolen
	rep.perLayer["host.speed"] = rep.speed
}

// opP99 is the 99th percentile of the operations' times as measured.
func opP99(ops []opSample) float64 {
	v := make([]float64, len(ops))
	for i, o := range ops {
		v[i] = ms(o.d)
	}
	return pct(v, 99)
}
