package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"lightwave/internal/core"
	"lightwave/internal/ctlrpc"
	"lightwave/internal/fleet"
	"lightwave/internal/sched"
	"lightwave/internal/sim"
	"lightwave/internal/topo"
	"lightwave/internal/wal"
)

// Control-plane workload shape.
const (
	cpPods         = 4
	cpCubes        = 64
	mutatorsPerPod = 2
	// monitorRate is the open-loop fleet-status rate (requests/s). The
	// seed sustains it on both control-plane workloads without a growing
	// backlog; 200/s built seconds of backlog on slice-churn.
	monitorRate = 50
	// probeRate is the traced run's te-status probe rate: a no-work RPC
	// on the request connection that measures the wire round trip.
	probeRate = 20
	// cpSetups is how many times a run builds the daemon; setup_s is the
	// median.
	cpSetups = 21
	// cpWarmup is how long the load runs before the measured window, so
	// the window starts on warm caches, a grown heap and a busy WAL.
	cpWarmup = 2 * time.Second
	// dialTimeout bounds connecting to the in-process server.
	dialTimeout = 5 * time.Second
)

// rig is an in-process lwfleetd assembled from the program's public
// constructors the way cmd/lwfleetd does: core fabrics behind
// fleet.FabricBackend, a fleet.Manager journaling to a wal.Store, and the
// fleet ctlrpc server on loopback. The benchmark reaches it over two
// connections: one pipelined request connection shared by every mutator,
// the monitor and the probe, and one watch stream.
type rig struct {
	base   time.Time // mutation and event times are offsets from base
	dir    string
	store  *wal.Store
	mgr    *fleet.Manager
	cancel context.CancelFunc
	served chan error
	req    *ctlrpc.Client
	wc     *ctlrpc.Client
	w      *watcher
	pods   []string
	closed bool
	// quiet is held shared by every mutator for each of its operations
	// and exclusively by the speed probe while it times the host
	// (calib.go).
	quiet sync.RWMutex
}

// newRig builds the daemon over a fresh state directory. tr, when non-nil,
// wraps the journal, every backend and every backend's placer.
func newRig(dir string, tr *tracer, filter func(eventType, slice string) bool) (*rig, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	store, err := wal.OpenStore(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	r := &rig{base: time.Now(), dir: dir, store: store}
	// As lwfleetd does: suppress journaling while pods are registered and
	// recovered state is re-applied, then journal everything after.
	store.BeginRecovery()
	var journal fleet.Journal = store
	if tr != nil {
		journal = tracedJournal{inner: store, t: tr}
	}
	r.mgr = fleet.NewManager(fleet.Options{Journal: journal})
	for i := 0; i < cpPods; i++ {
		f, err := core.New(core.DefaultConfig(cpCubes))
		if err != nil {
			r.close()
			return nil, fmt.Errorf("building pod%d fabric: %w", i, err)
		}
		var placer sched.Placer
		if tr != nil {
			placer = tracedPlacer{inner: sched.Reconfigurable{}, t: tr}
		}
		var b fleet.Backend = fleet.NewFabricBackend(f, placer)
		if tr != nil {
			b = tracedBackend{inner: b, t: tr}
		}
		name := fmt.Sprintf("pod%d", i)
		if err := r.mgr.AddPod(name, b); err != nil {
			r.close()
			return nil, err
		}
		r.pods = append(r.pods, name)
	}
	if err := store.RecoverFleet(r.mgr); err != nil {
		r.close()
		return nil, err
	}
	store.EndRecovery()

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	srv := ctlrpc.NewFleetServer(r.mgr)
	srv.SetWAL(ctlrpc.StoreWALProvider{Store: store})
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	r.served = make(chan error, 1)
	go func() { r.served <- srv.Serve(ctx, lis) }()

	addr := lis.Addr().String()
	if r.req, err = ctlrpc.Dial(addr, dialTimeout); err != nil {
		r.close()
		return nil, err
	}
	if r.wc, err = ctlrpc.Dial(addr, dialTimeout); err != nil {
		r.close()
		return nil, err
	}
	ws, err := r.wc.Watch()
	if err != nil {
		r.close()
		return nil, err
	}
	r.w = newWatcher(ws, filter, r.base)
	return r, nil
}

// close tears the daemon down: both connections, then the server (waiting
// for the watcher and serve goroutines), the manager and the store. Safe
// to call more than once.
func (r *rig) close() {
	if r.closed {
		return
	}
	r.closed = true
	if r.req != nil {
		r.req.Close()
	}
	if r.wc != nil {
		r.wc.Close()
	}
	if r.w != nil {
		<-r.w.done
	}
	if r.cancel != nil {
		r.cancel()
		<-r.served
	}
	if r.mgr != nil {
		r.mgr.Close()
	}
	if err := r.store.Close(); err != nil && !errors.Is(err, wal.ErrClosed) {
		fmt.Fprintf(os.Stderr, "lwbench: closing store: %v\n", err)
	}
}

// mutation is one durable control-plane mutation as the client saw it.
// Times are offsets from the rig's base.
type mutation struct {
	sent, acked time.Duration
	realized    time.Duration // 0 unless realized before the call returned
	journal     time.Duration
	journaled   bool // the journal span was recorded
	err         error
}

// mutStats accumulates one mutator's mutations. A drain-churn run issues
// hundreds of thousands, so only float32 samples are kept, not records.
type mutStats struct {
	traced    bool          // a traced run
	from      time.Duration // mutations sent earlier are warm-up: checked, not measured
	traceFrom time.Duration // spans are recorded for mutations sent from here
	warm      int           // warm-up mutations acknowledged
	acked     int
	realized  []realizedOp // slice mutations
	errs      []error
	// Traced runs only: acked mutations in each half, and per traced
	// mutation the ack latency and the ack latency less its own journal
	// span (µs).
	untracedAcked, tracedAcked int
	ack, ackLessJournal        []float32
}

func (s *mutStats) add(m mutation) {
	if m.err != nil {
		s.errs = append(s.errs, m.err)
		return
	}
	if m.sent < s.from {
		s.warm++
		return
	}
	s.acked++
	if m.realized > 0 {
		s.realized = append(s.realized, realizedOp{sent: float32(m.sent.Seconds()), ms: float32(ms(m.realized - m.sent))})
	}
	if !s.traced {
		return
	}
	if m.sent < s.traceFrom {
		if m.acked <= s.traceFrom {
			s.untracedAcked++
		}
		return
	}
	s.tracedAcked++
	a := us(m.acked - m.sent)
	s.ack = append(s.ack, float32(a))
	if m.journaled {
		s.ackLessJournal = append(s.ackLessJournal, float32(a-us(m.journal)))
	}
}

// merge folds o into s.
func (s *mutStats) merge(o *mutStats) {
	s.warm += o.warm
	s.acked += o.acked
	s.realized = append(s.realized, o.realized...)
	s.errs = append(s.errs, o.errs...)
	s.untracedAcked += o.untracedAcked
	s.tracedAcked += o.tracedAcked
	s.ack = append(s.ack, o.ack...)
	s.ackLessJournal = append(s.ackLessJournal, o.ackLessJournal...)
}

// realizedOp is one mutation realized on the watch: when it was sent, in
// seconds from the rig's base, and the milliseconds from send to realized.
type realizedOp struct {
	sent, ms float32
}

// opSamples converts realized mutations to window operations.
func (r *rig) opSamples(ops []realizedOp) []opSample {
	out := make([]opSample, len(ops))
	for i, o := range ops {
		out[i] = opSample{
			at: r.base.Add(time.Duration(float64(o.sent) * float64(time.Second))),
			d:  time.Duration(float64(o.ms) * float64(time.Millisecond)),
		}
	}
	return out
}

// float64s widens samples for the percentile helper.
func float64s(xs []float32) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// now is the time since the rig's base.
func (r *rig) now() time.Duration { return time.Since(r.base) }

// applySlice sends one set or remove intent for a slice, then waits for the
// watch to show it realized.
func (r *rig) applySlice(tr *tracer, pod, name string, shape topo.Shape, remove bool, timeout time.Duration) mutation {
	op, ev := fleet.OpSetSlice, fleet.EventSliceReady
	if remove {
		op, ev = fleet.OpRemoveSlice, fleet.EventSliceRemoved
	}
	var m mutation
	ch := r.w.expectSlice(ev, name)
	spec := ctlrpc.SliceIntentSpec{Name: name, Shape: shape.Dims(), Remove: remove}
	m.sent = r.now()
	_, err := r.req.ApplyIntent(ctlrpc.ApplyIntentParams{Pod: pod, Slices: []ctlrpc.SliceIntentSpec{spec}})
	m.acked = r.now()
	if err != nil {
		r.w.forgetSlice(ev, name)
		m.err = fmt.Errorf("%s %s/%s: %w", op, pod, name, err)
		return m
	}
	m.journal, m.journaled = takeJournal(tr, journalKey(op, pod, name, 0))
	select {
	case t := <-ch:
		m.realized = t
	case <-time.After(timeout):
		r.w.forgetSlice(ev, name)
		m.err = fmt.Errorf("%s %s/%s: no %s event within %s", op, pod, name, ev, timeout)
	}
	return m
}

// drainOCS sends one OCS drain or undrain. The watcher records its
// realization.
func (r *rig) drainOCS(tr *tracer, pod string, ocs int, undrain bool) mutation {
	op := fleet.OpDrainOCS
	if undrain {
		op = fleet.OpUndrainOCS
	}
	key := journalKey(op, pod, "", ocs)
	var m mutation
	m.sent = r.now()
	d := r.w.expectDrain(key, m.sent)
	var err error
	if undrain {
		err = r.req.Undrain(pod, &ocs)
	} else {
		err = r.req.Drain(pod, &ocs)
	}
	m.acked = r.now()
	if err != nil {
		r.w.forgetDrain(key, d)
		m.err = fmt.Errorf("%s %s/%d: %w", op, pod, ocs, err)
		return m
	}
	m.journal, m.journaled = takeJournal(tr, key)
	return m
}

// takeJournal pops the mutation's journal span when tracing.
func takeJournal(tr *tracer, key string) (time.Duration, bool) {
	if tr == nil {
		return 0, false
	}
	return tr.takeJournal(key)
}

// awaitConverged polls fleet-status until every pod is converged and none
// is quarantined, or the timeout passes.
func (r *rig) awaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st, err := r.req.FleetStatus()
		if err != nil {
			return err
		}
		var bad []string
		for _, p := range st.Pods {
			if !p.Converged || p.Quarantined {
				bad = append(bad, fmt.Sprintf("%s converged=%t quarantined=%t %s", p.Name, p.Converged, p.Quarantined, p.LastError))
			}
		}
		if len(st.Pods) != cpPods {
			bad = append(bad, fmt.Sprintf("%d pods in status, want %d", len(st.Pods), cpPods))
		}
		if len(bad) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not converged after %s: %v", timeout, bad)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// monitor is the open-loop fleet-status read; a response must list every
// pod.
func (r *rig) monitor() error {
	st, err := r.req.FleetStatus()
	if err != nil {
		return err
	}
	if len(st.Pods) != cpPods {
		return fmt.Errorf("fleet-status listed %d pods, want %d", len(st.Pods), cpPods)
	}
	return nil
}

// sizeDeck deals slice sizes from sched.ProductionMix (1-32 cubes). The
// deck holds every size in exact mix proportion and is reshuffled from the
// mutator's seed each time it runs out, so every seed offers the same mix
// over a run and only the order differs.
type sizeDeck struct {
	rng   *sim.Rand
	cards []int
	next  int
}

// deckSize is the number of cards per deck; the mix's weights are whole
// percentages.
const deckSize = 100

func newSizeDeck(rng *sim.Rand) *sizeDeck {
	mix := sched.ProductionMix()
	d := &sizeDeck{rng: rng}
	for i, size := range mix.Sizes {
		for n := int(mix.Weights[i]*deckSize + 0.5); n > 0; n-- {
			d.cards = append(d.cards, size)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *sizeDeck) draw() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// sliceShape is the torus shape a slice of n cubes asks for: the
// highest-bisection shape, the paper's static baseline.
func sliceShape(n int) topo.Shape { return topo.MaxBisectionShape(n) }

// cpWorkload describes one control-plane workload: how to populate the
// daemon during set-up and what each mutator does.
type cpWorkload struct {
	// populate runs during set-up, after the daemon is built.
	populate func(r *rig, rng *sim.Rand, timeout time.Duration) error
	// mutate runs one mutator until the deadline, adding every mutation
	// to st.
	mutate func(r *rig, tr *tracer, st *mutStats, pod, id int, rng *sim.Rand, until time.Time, timeout time.Duration)
}

// runSliceChurn: two mutators per pod each repeat a job's lifecycle —
// set a slice, wait for slice-ready, remove it, wait for slice-removed —
// with sizes from sched.ProductionMix.
func runSliceChurn(cfg config) (*report, error) {
	return runControlPlane(cfg, cpWorkload{
		mutate: func(r *rig, tr *tracer, st *mutStats, pod, id int, rng *sim.Rand, until time.Time, timeout time.Duration) {
			podName := r.pods[pod]
			sizes := newSizeDeck(rng)
			for i := 0; time.Now().Before(until); i++ {
				shape := sliceShape(sizes.draw())
				name := fmt.Sprintf("%s.m%d.j%d", podName, id, i)
				r.quiet.RLock()
				st.add(r.applySlice(tr, podName, name, shape, false, timeout))
				st.add(r.applySlice(tr, podName, name, shape, true, timeout))
				r.quiet.RUnlock()
			}
		},
	})
}

// standingCubes is how many cubes of each pod drain-churn fills with
// standing slices during set-up.
const standingCubes = cpCubes / 2

// runDrainChurn: over a standing slice population, two mutators per pod
// alternate drain and undrain of the OCSes they own — the calls
// te.FleetApplier issues per reconfiguration stage.
func runDrainChurn(cfg config) (*report, error) {
	return runControlPlane(cfg, cpWorkload{
		populate: func(r *rig, rng *sim.Rand, timeout time.Duration) error {
			sizes := newSizeDeck(rng)
			for _, pod := range r.pods {
				var specs []ctlrpc.SliceIntentSpec
				var ready []chan time.Duration
				for used := 0; used < standingCubes; {
					n := sizes.draw()
					if used+n > standingCubes {
						continue
					}
					name := fmt.Sprintf("%s.standing%d", pod, len(specs))
					specs = append(specs, ctlrpc.SliceIntentSpec{Name: name, Shape: sliceShape(n).Dims()})
					ready = append(ready, r.w.expectSlice(fleet.EventSliceReady, name))
					used += n
				}
				if _, err := r.req.ApplyIntent(ctlrpc.ApplyIntentParams{Pod: pod, Slices: specs}); err != nil {
					return fmt.Errorf("standing slices on %s: %w", pod, err)
				}
				for i, ch := range ready {
					select {
					case <-ch:
					case <-time.After(timeout):
						return fmt.Errorf("standing slice %s never became ready", specs[i].Name)
					}
				}
			}
			return r.awaitConverged(timeout)
		},
		mutate: func(r *rig, tr *tracer, st *mutStats, pod, id int, rng *sim.Rand, until time.Time, _ time.Duration) {
			var owned []int
			for o := id; o < topo.NumOCS; o += mutatorsPerPod {
				owned = append(owned, o)
			}
			podName := r.pods[pod]
			for time.Now().Before(until) {
				o := owned[rng.Intn(len(owned))]
				r.quiet.RLock()
				st.add(r.drainOCS(tr, podName, o, false))
				st.add(r.drainOCS(tr, podName, o, true))
				r.quiet.RUnlock()
			}
		},
	})
}

// runControlPlane runs one control-plane workload: fingerprint and fsync
// calibration, cpSetups timed set-ups, the measured window, the
// end-of-run checks and the durability check.
func runControlPlane(cfg config, wl cpWorkload) (*report, error) {
	rep := newReport()
	root := filepath.Join(cfg.dir, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	host := hostFingerprint()
	fsName, durable, err := filesystem(root)
	if err != nil {
		return nil, err
	}
	host.WALFS = fsName
	if !durable && !cfg.allowTmpfs {
		return nil, fmt.Errorf("WAL directory %s is on %s, where fsync is free; run from a disk-backed checkout", root, fsName)
	}
	if host.FsyncP50us, err = fsyncCalibration(root, 64); err != nil {
		return nil, fmt.Errorf("fsync calibration: %w", err)
	}
	rep.host = host
	rep.perLayer["host.fsync_p50_us"] = host.FsyncP50us

	rng := sim.NewRand(cfg.seed)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Set-up, cpSetups times; the last rig is the one measured.
	var r *rig
	setup := 0
	rep.raw["setup_s"], rep.endToEnd["setup_s"], err = timeSetups(cpSetups, 1, func() (float64, error) {
		if r != nil {
			r.close()
		}
		// Every set-up starts from a collected heap, not from the last
		// one's garbage.
		runtime.GC()
		t0 := time.Now()
		var err error
		r, err = newRig(filepath.Join(root, fmt.Sprintf("state%d", setup)), tr, cfg.watchFilter)
		setup++
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		if wl.populate != nil {
			// Every set-up draws the same population.
			if err := wl.populate(r, rng.Substream(0), cfg.realizeTimeout); err != nil {
				r.close()
				r = nil
				return 0, fmt.Errorf("set-up: %w", err)
			}
		}
		return time.Since(t0).Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	defer r.close()
	speed := startSpeedProbe(&r.quiet)
	defer speed.stop()

	window := time.Duration(cfg.seconds * float64(time.Second))
	warmT := time.Now()
	startT := warmT.Add(cpWarmup)
	endT := startT.Add(window)
	// A traced run records spans only in its second half; the first half
	// runs with the wrappers idle and gives the overhead baseline.
	traceFromT := startT
	if tr != nil {
		traceFromT = startT.Add(window / 2)
	}
	start, traceFrom := startT.Sub(r.base), traceFromT.Sub(r.base)
	r.w.mu.Lock()
	r.w.measureFrom = start
	r.w.mu.Unlock()
	walBefore := make(chan wal.Status, 1)
	retriesBefore := make(chan int64, 1)
	retries := r.mgr.Metrics().Counter("fleet.retries_total")
	// The process meters start with the measured window.
	var (
		phase sync.WaitGroup
		cpu   cpuMeter
		rss   *rssSampler
	)
	phase.Add(1)
	go func() {
		defer phase.Done()
		time.Sleep(time.Until(startT))
		cpu, rss = startCPU(), startRSS()
		time.Sleep(time.Until(traceFromT))
		walBefore <- r.store.Status().Log
		retriesBefore <- retries.Value()
		if tr != nil {
			tr.start()
		}
	}()

	var wg sync.WaitGroup
	perMutator := make([]mutStats, cpPods*mutatorsPerPod)
	for pod := 0; pod < cpPods; pod++ {
		for id := 0; id < mutatorsPerPod; id++ {
			idx := pod*mutatorsPerPod + id
			mrng := rng.Substream(uint64(1 + idx))
			st := &perMutator[idx]
			st.traced, st.from, st.traceFrom = tr != nil, start, traceFrom
			wg.Add(1)
			go func() {
				defer wg.Done()
				wl.mutate(r, tr, st, pod, id, mrng, endT, cfg.realizeTimeout)
			}()
		}
	}
	var mon, probe openLoopResult
	wg.Add(1)
	go func() {
		defer wg.Done()
		mon = openLoop(warmT, endT, monitorRate, r.monitor)
	}()
	if tr != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probe = openLoop(traceFromT, endT, probeRate, func() error {
				_, err := r.req.TEStatus()
				return err
			})
		}()
	}
	wg.Wait()
	phase.Wait()
	stop := r.now()
	procCores, procCPU := cpu.cores(), cpu.used()
	rep.endToEnd["rss_p50_mb"] = rss.stop()
	walAfter := r.store.Status().Log
	walStart := <-walBefore
	passRetries := retries.Value() - <-retriesBefore

	// End-of-run checks: every drain realized, the fleet converged with
	// nothing quarantined, no dropped events and no misrouted responses.
	unrealized := r.w.awaitDrains(cfg.realizeTimeout)
	convErr := r.awaitConverged(cfg.realizeTimeout)
	rep.check(convErr == nil, "end of run: %v", convErr)
	gaps, quarantines := r.w.counts()
	rep.check(gaps == 0, "watch stream skipped %d events (Seq gaps)", gaps)
	rep.check(quarantines == 0, "%d pods were quarantined", quarantines)
	mismatches := r.req.UnknownResponses() + r.wc.UnknownResponses()
	rep.check(mismatches == 0, "%d responses carried an unknown request ID", mismatches)

	var all mutStats
	for i := range perMutator {
		all.merge(&perMutator[i])
	}
	rep.attempted += all.warm + all.acked + len(all.errs)
	for _, err := range all.errs {
		rep.fail("%v", err)
	}
	for i := 0; i < unrealized; i++ {
		rep.fail("an acknowledged OCS drain was not realized on the watch within %s of the run's end", cfg.realizeTimeout)
	}
	realized := r.opSamples(append(all.realized, r.w.drainRealized()...))
	rep.attempted += mon.attempted()
	for i := 0; i < mon.failed(); i++ {
		rep.fail("fleet-status monitor: request failed or backlog exceeded %d in flight", maxInFlight)
	}

	windowMetrics(rep, speed, startT, r.base.Add(stop), all.acked, realized)
	rep.perLayer["op_p99_ms"] = opP99(realized)
	rep.perLayer["fleet.status_p50_us"] = pct(mon.fromDue, 50)
	rep.perLayer["fleet.status_p99_us"] = pct(mon.fromDue, 99)

	if tr != nil {
		tracedLayers(rep, tr, &all, probe, start, traceFrom, stop)
		rep.perLayer["fleet.retry_ratio"] = ratio(float64(passRetries), float64(tr.slices))
		rep.perLayer["wal.records_per_fsync"] = ratio(float64(walAfter.Appends-walStart.Appends), float64(walAfter.Fsyncs-walStart.Fsyncs))
		rep.perLayer["wal.fsync_per_s"] = float64(walAfter.Fsyncs-walStart.Fsyncs) / (stop - traceFrom).Seconds()
		rep.perLayer["wal.bytes_per_record"] = ratio(float64(walAfter.AppendBytes-walStart.AppendBytes), float64(walAfter.Appends-walStart.Appends))
	}
	rep.perLayer["ctlrpc.id_mismatches"] = float64(mismatches)
	rep.perLayer["fleet.watch_gaps"] = float64(gaps)
	rep.perLayer["proc.cpu_cores"] = procCores
	rep.perLayer["proc.cpu_ms_per_op"] = ratio(ms(procCPU), float64(all.acked))
	rep.perLayer["loadgen.status_lag_p99_us"] = pct(mon.lag, 99)

	// Durability: the reopened log must fold to the live intent store.
	live, err := r.store.FleetDigest()
	if err != nil {
		return nil, err
	}
	r.close()
	t0 := time.Now()
	reopened, err := wal.OpenStore(r.dir, wal.Options{})
	rep.perLayer["wal.reopen_s"] = time.Since(t0).Seconds()
	if err != nil {
		rep.check(false, "reopening the WAL: %v", err)
	} else {
		got, derr := reopened.FleetDigest()
		rep.check(derr == nil && got == live, "reopened WAL digest %s (err %v), live digest %s", got, derr, live)
		if err := reopened.Close(); err != nil {
			rep.fail("closing the reopened WAL: %v", err)
		}
	}
	rep.perLayer["proc.peak_rss_mb"] = peakRSSMB()
	return rep, nil
}

// tracedLayers derives the span-based per-layer metrics of a traced
// control-plane run. Times are offsets from the rig's base.
func tracedLayers(rep *report, tr *tracer, all *mutStats, probe openLoopResult, start, traceFrom, stop time.Duration) {
	probeP50 := pct(probe.fromSend, 50)
	ack := float64s(all.ack)
	self := float64s(all.ackLessJournal)
	for i := range self {
		self[i] -= probeP50
	}
	traced := all.tracedAcked
	half, tracedSpan := traceFrom-start, stop-traceFrom
	rep.perLayer["ctlrpc.ack_p50_us"] = pct(ack, 50)
	rep.perLayer["ctlrpc.ack_p99_us"] = pct(ack, 99)
	rep.perLayer["ctlrpc.probe_rtt_p50_us"] = probeP50
	rep.perLayer["ctlrpc.probe_rtt_p99_us"] = pct(probe.fromSend, 99)
	rep.perLayer["fleet.self_p50_us"] = pct(self, 50)
	// Overhead: untraced-half throughput over traced-half throughput.
	rep.perLayer["trace.overhead_ratio"] = ratio(float64(all.untracedAcked)/half.Seconds(), float64(traced)/tracedSpan.Seconds())
	for i := 0; i < probe.failed(); i++ {
		rep.fail("te-status probe failed")
	}
	rep.attempted += probe.attempted()

	tr.mu.Lock()
	defer tr.mu.Unlock()
	rep.perLayer["fleet.passes_per_mutation"] = ratio(float64(tr.slices), float64(traced))
	rep.perLayer["wal.journal_p50_us"] = pct(tr.journalAll, 50)
	rep.perLayer["wal.journal_p99_us"] = pct(tr.journalAll, 99)
	rep.perLayer["core.ensure_p50_us"] = pct(tr.ensure, 50)
	rep.perLayer["core.ensure_p99_us"] = pct(tr.ensure, 99)
	rep.perLayer["core.ensure_us_per_cube"] = ratio(tr.ensureUs, float64(tr.ensureCube))
	rep.perLayer["core.ensure_per_s"] = float64(len(tr.ensure)) / tracedSpan.Seconds()
	rep.perLayer["core.destroy_p50_us"] = pct(tr.destroy, 50)
	rep.perLayer["core.busy_cores"] = float64(tr.busy) / float64(tracedSpan)
	rep.perLayer["core.info_p99_us"] = pct(tr.info, 99)
	rep.perLayer["sched.place_p50_ns"] = pct(tr.place, 50)
	rep.perLayer["sched.place_calls"] = float64(len(tr.place))
	rep.perLayer["sched.place_fail_ratio"] = ratio(float64(tr.placeFails), float64(len(tr.place)))
}
