package main

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lightwave/internal/fleet"
	"lightwave/internal/sched"
	"lightwave/internal/topo"
)

// tracer collects spans at the program's public seams. The benchmark wraps
// fleet.Journal (the wal layer), fleet.Backend (core and everything under
// it) and sched.Placer (sched) with the types below; spans are kept in
// memory and summarized when the run ends. Recording is off until start is
// called, so a traced run can measure a stretch with the wrappers idle and
// report the tracing overhead.
type tracer struct {
	on atomic.Bool

	mu sync.Mutex
	// journal holds JournalFleet durations in call order per content key
	// (see journalKey), so a mutation finds its own journal span.
	journal    map[string][]time.Duration
	journalAll []float64
	ensure     []float64 // µs
	ensureUs   float64   // total Ensure µs
	ensureCube int       // cubes asked for across Ensure calls
	destroy    []float64 // µs
	info       []float64 // µs
	place      []float64 // ns
	placeFails int
	slices     int   // Backend.Slices calls: one per reconcile pass
	busy       int64 // ns inside Ensure, Destroy and Slices
}

func newTracer() *tracer {
	return &tracer{journal: make(map[string][]time.Duration)}
}

// start begins recording.
func (t *tracer) start() { t.on.Store(true) }

// journalKey links a journal entry to the mutation that caused it: unique
// slice names for slice intents, (pod, op, ocs) for OCS drains, which one
// mutator owns and issues in order.
func journalKey(op fleet.JournalOp, pod, name string, ocs int) string {
	switch op {
	case fleet.OpDrainOCS, fleet.OpUndrainOCS:
		return string(op) + "/" + pod + "/" + strconv.Itoa(ocs)
	}
	return string(op) + "/" + pod + "/" + name
}

// takeJournal pops the oldest journal span recorded under key.
func (t *tracer) takeJournal(key string) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.journal[key]
	if len(q) == 0 {
		return 0, false
	}
	d := q[0]
	if len(q) == 1 {
		delete(t.journal, key)
	} else {
		t.journal[key] = q[1:]
	}
	return d, true
}

// tracedJournal times fleet.Journal calls: the wal layer as the manager
// sees it, including the wait for fsync.
type tracedJournal struct {
	inner fleet.Journal
	t     *tracer
}

// JournalFleet implements fleet.Journal.
func (j tracedJournal) JournalFleet(e fleet.JournalEntry) error {
	if !j.t.on.Load() {
		return j.inner.JournalFleet(e)
	}
	t0 := time.Now()
	err := j.inner.JournalFleet(e)
	d := time.Since(t0)
	name := e.Name
	if e.Slice != nil {
		name = e.Slice.Name
	}
	key := journalKey(e.Op, e.Pod, name, e.OCS)
	j.t.mu.Lock()
	j.t.journal[key] = append(j.t.journal[key], d)
	j.t.journalAll = append(j.t.journalAll, us(d))
	j.t.mu.Unlock()
	return err
}

// tracedBackend times fleet.Backend calls: slice composition and teardown
// in core, with ocs, optics, dsp and fec under it.
type tracedBackend struct {
	inner fleet.Backend
	t     *tracer
}

// record adds one reconcile-side Backend call of duration d to the busy
// total and, when dst is non-nil, to that sample list.
func (b tracedBackend) record(d time.Duration, dst *[]float64) {
	b.t.mu.Lock()
	b.t.busy += int64(d)
	if dst != nil {
		*dst = append(*dst, us(d))
	}
	b.t.mu.Unlock()
}

// Ensure implements fleet.Backend.
func (b tracedBackend) Ensure(name string, shape topo.Shape, cubes []int) (bool, error) {
	if !b.t.on.Load() {
		return b.inner.Ensure(name, shape, cubes)
	}
	t0 := time.Now()
	changed, err := b.inner.Ensure(name, shape, cubes)
	d := time.Since(t0)
	b.t.mu.Lock()
	b.t.ensureUs += us(d)
	b.t.ensureCube += shape.Cubes()
	b.t.mu.Unlock()
	b.record(d, &b.t.ensure)
	return changed, err
}

// Destroy implements fleet.Backend.
func (b tracedBackend) Destroy(name string) error {
	if !b.t.on.Load() {
		return b.inner.Destroy(name)
	}
	t0 := time.Now()
	err := b.inner.Destroy(name)
	b.record(time.Since(t0), &b.t.destroy)
	return err
}

// Slices implements fleet.Backend. The reconciler calls it once per pass.
func (b tracedBackend) Slices() []string {
	if !b.t.on.Load() {
		return b.inner.Slices()
	}
	t0 := time.Now()
	s := b.inner.Slices()
	b.record(time.Since(t0), nil)
	b.t.mu.Lock()
	b.t.slices++
	b.t.mu.Unlock()
	return s
}

// Info implements fleet.Backend. fleet-status calls it once per pod; its
// time is mostly the wait for the backend lock behind Ensure, so it is not
// counted as busy.
func (b tracedBackend) Info() fleet.PodInfo {
	if !b.t.on.Load() {
		return b.inner.Info()
	}
	t0 := time.Now()
	info := b.inner.Info()
	d := time.Since(t0)
	b.t.mu.Lock()
	b.t.info = append(b.t.info, us(d))
	b.t.mu.Unlock()
	return info
}

// tracedPlacer times sched.Placer calls. fleet.FabricBackend uses its
// placer only through the interface, so any policy may be wrapped there.
// sched.Simulate is different: it type-asserts sched.Reconfigurable to
// decide whether a failed cube is swapped, so a wrapped Reconfigurable
// would change the simulation's results and must not be passed to it.
type tracedPlacer struct {
	inner sched.Placer
	t     *tracer
}

// Name implements sched.Placer.
func (p tracedPlacer) Name() string { return p.inner.Name() }

// Place implements sched.Placer.
func (p tracedPlacer) Place(pod *sched.Pod, job, cubes int) ([]int, error) {
	if !p.t.on.Load() {
		return p.inner.Place(pod, job, cubes)
	}
	t0 := time.Now()
	out, err := p.inner.Place(pod, job, cubes)
	d := time.Since(t0)
	p.t.mu.Lock()
	p.t.place = append(p.t.place, float64(d))
	if err != nil {
		p.t.placeFails++
	}
	p.t.mu.Unlock()
	return out, err
}
