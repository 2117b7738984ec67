package ctlrpc

import (
	"testing"

	"lightwave/internal/fleet"
	"lightwave/internal/topo"
)

// waitConverged waits for the reconciler to go idle and asserts every
// named pod converged.
func waitConverged(t *testing.T, m *fleet.Manager, pods ...string) {
	t.Helper()
	if err := m.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	for _, name := range pods {
		ps, err := m.PodStatus(name)
		if err != nil {
			t.Fatal(err)
		}
		if !ps.Converged || ps.Quarantined {
			t.Errorf("pod %s not converged: %+v", name, ps)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// TestRemoteBackendFleetReconcile reconciles a multi-pod fleet.Manager
// against ONE remote fabric daemon through ONE shared pipelined client:
// each pod is a prefix-scoped RemoteBackend, and the per-pod reconcile
// workers issue their ensure/destroy/status calls concurrently over the
// single connection.
func TestRemoteBackendFleetReconcile(t *testing.T) {
	c := startServer(t, 16)

	m := fleet.NewManager(fleet.Options{})
	defer m.Close()
	pods := []string{"podA", "podB"}
	for _, name := range pods {
		if err := m.AddPod(name, NewRemoteBackend(c, name)); err != nil {
			t.Fatal(err)
		}
	}

	// Remote intents must pin cubes: the daemon does not place slices.
	shape := topo.Shape{X: 4, Y: 4, Z: 8}
	if err := m.SetSliceIntent("podA", fleet.SliceIntent{Name: "a0", Shape: shape, Cubes: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetSliceIntent("podA", fleet.SliceIntent{Name: "a1", Shape: shape, Cubes: []int{2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetSliceIntent("podB", fleet.SliceIntent{Name: "b0", Shape: shape, Cubes: []int{4, 5}}); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, m, pods...)

	// Pod views are scoped by prefix; the daemon sees the scoped names.
	psA, err := m.PodStatus("podA")
	if err != nil {
		t.Fatal(err)
	}
	if len(psA.ActualSlices) != 2 || psA.ActualSlices[0] != "a0" || psA.ActualSlices[1] != "a1" {
		t.Fatalf("podA slices = %v", psA.ActualSlices)
	}
	psB, _ := m.PodStatus("podB")
	if len(psB.ActualSlices) != 1 || psB.ActualSlices[0] != "b0" {
		t.Fatalf("podB slices = %v", psB.ActualSlices)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Slices) != 3 {
		t.Fatalf("daemon slices = %v", st.Slices)
	}
	for _, want := range []string{"podA/a0", "podA/a1", "podB/b0"} {
		found := false
		for _, s := range st.Slices {
			if s == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("daemon slices = %v, missing %s", st.Slices, want)
		}
	}

	// Removing an intent destroys only that pod's slice; re-removal (absent
	// slice) stays converged because Destroy is idempotent over the wire.
	if err := m.RemoveSliceIntent("podA", "a1"); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, m, pods...)
	psA, _ = m.PodStatus("podA")
	if len(psA.ActualSlices) != 1 || psA.ActualSlices[0] != "a0" {
		t.Fatalf("podA slices after remove = %v", psA.ActualSlices)
	}
	psB, _ = m.PodStatus("podB")
	if len(psB.ActualSlices) != 1 {
		t.Fatalf("podB slices disturbed: %v", psB.ActualSlices)
	}
	if n := c.UnknownResponses(); n != 0 {
		t.Fatalf("id mismatches on shared reconcile client: %d", n)
	}
}

// TestRemoteBackendDestroyAbsentIsNoOp pins the DestroyIfPresent contract
// RemoteBackend relies on.
func TestRemoteBackendDestroyAbsentIsNoOp(t *testing.T) {
	c := startServer(t, 4)
	b := NewRemoteBackend(c, "pod0")
	if err := b.Destroy("never-existed"); err != nil {
		t.Fatalf("destroying an absent slice: %v", err)
	}
	// Plain Destroy still errors, so operator tooling keeps its feedback.
	if err := c.Destroy("never-existed"); err == nil {
		t.Fatal("non-idempotent destroy of an absent slice succeeded")
	}
}
