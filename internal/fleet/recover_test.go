package fleet

import (
	"errors"
	"testing"

	"lightwave/internal/telemetry"
	"lightwave/internal/topo"
)

// A quarantined pod whose backend heals must emit EventRecovered exactly
// once when it converges after UndrainPod — the fault-closure edge the
// chaos evaluator's MTTR accounting keys on — and an ordinary convergence
// must never emit it.
func TestQuarantineRecoveryEmitsRecovered(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewManager(fastOptions(reg))
	defer m.Close()
	b := newFakeBackend()
	if err := m.AddPod("pod0", b); err != nil {
		t.Fatal(err)
	}
	col := newCollector(t, m, 256)

	// Healthy convergence first: no recovery event may appear.
	in := SliceIntent{Name: "s0", Shape: topo.Shape{X: 4, Y: 4, Z: 4}}
	if err := m.SetSliceIntent("pod0", in); err != nil {
		t.Fatal(err)
	}
	col.idle(t, func(evs []Event) bool {
		return countEvents(evs, "pod0", EventConverged) >= 1
	})
	if n := countEvents(col.seen, "pod0", EventRecovered); n != 0 {
		t.Fatalf("healthy convergence emitted %d recovered events", n)
	}

	// Break the backend and push it into quarantine.
	b.setFail(errors.New("backend down"))
	if err := m.SetSliceIntent("pod0", SliceIntent{Name: "s1", Shape: topo.Shape{X: 4, Y: 4, Z: 4}}); err != nil {
		t.Fatal(err)
	}
	col.idle(t, func(evs []Event) bool {
		return countEvents(evs, "pod0", EventQuarantined) >= 1
	})

	// Heal and release: the pod must converge and publish the distinct
	// recovery edge, before the convergence event.
	b.setFail(nil)
	if err := m.UndrainPod("pod0"); err != nil {
		t.Fatal(err)
	}
	evs := col.idle(t, func(evs []Event) bool {
		return countEvents(evs, "pod0", EventRecovered) >= 1 &&
			countEvents(evs, "pod0", EventConverged) >= 2
	})
	if n := countEvents(evs, "pod0", EventRecovered); n != 1 {
		t.Fatalf("recovery emitted %d recovered events, want 1", n)
	}
	ri, ci := -1, -1
	for i, ev := range evs {
		if ev.Pod != "pod0" {
			continue
		}
		if ev.Type == EventRecovered {
			ri = i
		}
		if ev.Type == EventConverged && i > ri && ri >= 0 && ci < 0 {
			ci = i
		}
	}
	if ri < 0 || ci < 0 {
		t.Fatalf("recovered event not followed by converged: %+v", evs)
	}

	// Further healthy convergences must stay recovery-free.
	if err := m.SetSliceIntent("pod0", SliceIntent{Name: "s2", Shape: topo.Shape{X: 4, Y: 4, Z: 4}}); err != nil {
		t.Fatal(err)
	}
	col.idle(t, func(evs []Event) bool {
		return countEvents(evs, "pod0", EventSliceReady) >= 3
	})
	if n := countEvents(col.seen, "pod0", EventRecovered); n != 1 {
		t.Fatalf("recovered events after later convergence: %d, want still 1", n)
	}
}

// UndrainPod on a pod that was never quarantined must not fabricate a
// recovery event.
func TestUndrainWithoutQuarantineNoRecovered(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewManager(fastOptions(reg))
	defer m.Close()
	if err := m.AddPod("pod0", newFakeBackend()); err != nil {
		t.Fatal(err)
	}
	col := newCollector(t, m, 256)
	if err := m.DrainPod("pod0"); err != nil {
		t.Fatal(err)
	}
	if err := m.UndrainPod("pod0"); err != nil {
		t.Fatal(err)
	}
	col.idle(t, func(evs []Event) bool {
		return countEvents(evs, "pod0", EventUndrained) >= 1 &&
			countEvents(evs, "pod0", EventConverged) >= 1
	})
	if n := countEvents(col.seen, "pod0", EventRecovered); n != 0 {
		t.Fatalf("plain undrain emitted %d recovered events", n)
	}
}
