package fleet

import (
	"errors"
	"testing"
	"time"

	"lightwave/internal/topo"
)

// stuckManager returns a manager whose pod p0 failed once and now sits in
// an hour-long retry backoff, so WaitIdle cannot return on its own.
func stuckManager(t *testing.T) *Manager {
	t.Helper()
	m := NewManager(Options{BaseBackoff: time.Hour, MaxBackoff: time.Hour, QuarantineAfter: 5})
	b := newFakeBackend()
	b.setFail(errors.New("backend down"))
	if err := m.AddPod("p0", b); err != nil {
		t.Fatal(err)
	}
	if err := m.AddPod("p1", newFakeBackend()); err != nil {
		t.Fatal(err)
	}
	sub := m.Subscribe(16)
	defer sub.Close()
	if err := m.SetSliceIntent("p0", SliceIntent{Name: "a", Shape: topo.Shape{X: 4, Y: 4, Z: 4}}); err != nil {
		t.Fatal(err)
	}
	for ev := range sub.Events() {
		if ev.Type == EventReconcileError {
			break
		}
	}
	return m
}

// waitIdleAsync runs WaitIdle in the background and reports its result.
// It gives the call a moment to block first, so the caller's next step
// exercises the wake-up path; a slow start only weakens the check.
func waitIdleAsync(t *testing.T, m *Manager) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- m.WaitIdle() }()
	select {
	case err := <-done:
		t.Fatalf("WaitIdle returned %v while a pod sat in backoff", err)
	case <-time.After(20 * time.Millisecond):
	}
	return done
}

func awaitResult(t *testing.T, done <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("WaitIdle still blocked after %s", what)
		return nil
	}
}

func TestWaitIdleSurvivesConcurrentRemovePod(t *testing.T) {
	m := stuckManager(t)
	defer m.Close()
	done := waitIdleAsync(t, m)
	if err := m.RemovePod("p0"); err != nil {
		t.Fatal(err)
	}
	if err := awaitResult(t, done, "RemovePod"); err != nil {
		t.Fatalf("WaitIdle after RemovePod = %v", err)
	}
}

func TestWaitIdleAfterClose(t *testing.T) {
	m := stuckManager(t)
	done := waitIdleAsync(t, m)
	m.Close()
	if err := awaitResult(t, done, "Close"); !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked WaitIdle across Close = %v, want ErrClosed", err)
	}
	if err := m.WaitIdle(); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitIdle after Close = %v, want ErrClosed", err)
	}
}
