package main

import (
	"strconv"
	"strings"
	"sync"
	"time"

	"lightwave/internal/ctlrpc"
	"lightwave/internal/fleet"
)

// watcher consumes the fleet watch stream and tells mutators when their
// mutation is realized: slice-ready or slice-removed for a named slice, or
// for an OCS drain or undrain the pod's next converged event after the
// mutation's own drained/undrained event. It also counts Seq gaps (events
// the server dropped) and quarantines.
type watcher struct {
	ws     *ctlrpc.WatchStream
	filter func(eventType, slice string) bool
	base   time.Time // event times are offsets from base
	done   chan struct{}

	mu          sync.Mutex
	lastSeq     uint64
	gaps        int
	quarantines int
	slices      map[string]chan time.Duration // eventType + "/" + slice
	drains      map[string][]*drainWait       // journalKey → issued, event not yet seen
	converging  map[string][]*drainWait       // pod → event seen, awaiting converged
	outstanding int                           // drain waits not yet realized
	realized    []realizedOp                  // drains sent from measureFrom
	measureFrom time.Duration                 // drains sent earlier are warm-up
}

// drainWait tracks one OCS drain or undrain until it is realized.
type drainWait struct {
	sent time.Duration
}

func newWatcher(ws *ctlrpc.WatchStream, filter func(eventType, slice string) bool, base time.Time) *watcher {
	w := &watcher{
		ws:         ws,
		filter:     filter,
		base:       base,
		done:       make(chan struct{}),
		slices:     make(map[string]chan time.Duration),
		drains:     make(map[string][]*drainWait),
		converging: make(map[string][]*drainWait),
	}
	go w.loop()
	return w
}

// loop reads events until the stream closes.
func (w *watcher) loop() {
	defer close(w.done)
	for {
		ev, err := w.ws.Next()
		if err != nil {
			return
		}
		now := time.Since(w.base)
		if w.filter != nil && w.filter(ev.Type, ev.Slice) {
			continue
		}
		w.mu.Lock()
		w.handleLocked(ev, now)
		w.mu.Unlock()
	}
}

func (w *watcher) handleLocked(ev ctlrpc.WatchEvent, now time.Duration) {
	if w.lastSeq != 0 && ev.Seq != w.lastSeq+1 {
		w.gaps += int(ev.Seq - w.lastSeq - 1)
	}
	w.lastSeq = ev.Seq
	switch fleet.EventType(ev.Type) {
	case fleet.EventSliceReady, fleet.EventSliceRemoved:
		key := ev.Type + "/" + ev.Slice
		if ch, ok := w.slices[key]; ok {
			delete(w.slices, key)
			ch <- now // buffered: one send per registration
		}
	case fleet.EventDrained, fleet.EventUndrained:
		ocs, ok := strings.CutPrefix(ev.Detail, "ocs ")
		if !ok {
			return
		}
		id, err := strconv.Atoi(ocs)
		if err != nil {
			return
		}
		op := fleet.OpDrainOCS
		if fleet.EventType(ev.Type) == fleet.EventUndrained {
			op = fleet.OpUndrainOCS
		}
		key := journalKey(op, ev.Pod, "", id)
		if q := w.drains[key]; len(q) > 0 {
			w.drains[key] = q[1:]
			w.converging[ev.Pod] = append(w.converging[ev.Pod], q[0])
		}
	case fleet.EventConverged:
		for _, d := range w.converging[ev.Pod] {
			if d.sent >= w.measureFrom {
				w.realized = append(w.realized, realizedOp{sent: float32(d.sent.Seconds()), ms: float32(ms(now - d.sent))})
			}
			w.outstanding--
		}
		delete(w.converging, ev.Pod)
	case fleet.EventQuarantined:
		w.quarantines++
	}
}

// expectSlice registers interest in the next eventType event for slice and
// returns the channel that receives its arrival time. Register before
// sending the mutation: the event can arrive before the ack.
func (w *watcher) expectSlice(eventType fleet.EventType, slice string) chan time.Duration {
	ch := make(chan time.Duration, 1)
	w.mu.Lock()
	w.slices[string(eventType)+"/"+slice] = ch
	w.mu.Unlock()
	return ch
}

// forgetSlice drops a registration whose mutation failed or timed out.
func (w *watcher) forgetSlice(eventType fleet.EventType, slice string) {
	w.mu.Lock()
	delete(w.slices, string(eventType)+"/"+slice)
	w.mu.Unlock()
}

// expectDrain registers an OCS drain or undrain sent at sent.
func (w *watcher) expectDrain(key string, sent time.Duration) *drainWait {
	d := &drainWait{sent: sent}
	w.mu.Lock()
	w.drains[key] = append(w.drains[key], d)
	w.outstanding++
	w.mu.Unlock()
	return d
}

// forgetDrain drops the registration of a drain whose call failed. The
// caller owns the OCS and issues its mutations in order, so the failed one
// is the newest registration under its key.
func (w *watcher) forgetDrain(key string, d *drainWait) {
	w.mu.Lock()
	defer w.mu.Unlock()
	q := w.drains[key]
	if n := len(q); n > 0 && q[n-1] == d {
		w.drains[key] = q[:n-1]
		w.outstanding--
	}
}

// drainRealized returns the realization latencies of drains so far.
func (w *watcher) drainRealized() []realizedOp {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]realizedOp(nil), w.realized...)
}

// awaitDrains waits until every registered drain is realized or the
// timeout passes, and returns how many are still unrealized.
func (w *watcher) awaitDrains(timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		w.mu.Lock()
		n := w.outstanding
		w.mu.Unlock()
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// counts returns the gap and quarantine totals.
func (w *watcher) counts() (gaps, quarantines int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gaps, w.quarantines
}
