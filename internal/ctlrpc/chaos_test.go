package ctlrpc

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"lightwave/internal/chaos"
	"lightwave/internal/fleet"
	"lightwave/internal/topo"
)

// startChaosFleetServer brings up a one-pod manager whose backend is
// wrapped in a chaos.FaultyBackend, with fault injection enabled on the
// server, and returns a dialer plus the manager for idle waits.
func startChaosFleetServer(t *testing.T) (dial func() *Client, m *fleet.Manager) {
	t.Helper()
	m = fleet.NewManager(fleet.Options{
		BaseBackoff:     time.Millisecond,
		MaxBackoff:      8 * time.Millisecond,
		QuarantineAfter: 3,
		Seed:            42,
	})
	t.Cleanup(m.Close)
	fb := chaos.NewFaultyBackend(newMemBackend())
	if err := m.AddPod("p0", fb); err != nil {
		t.Fatal(err)
	}
	if err := m.SetSliceIntent("p0", fleet.SliceIntent{
		Name:  "job",
		Shape: topo.Shape{X: 4, Y: 4, Z: 4},
	}); err != nil {
		t.Fatal(err)
	}
	inj, err := chaos.NewInjector(chaos.Targets{
		Fleet:    m,
		Backends: map[string]*chaos.FaultyBackend{"p0": fb},
	})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewFleetServer(m)
	srv.SetChaos(InjectorProvider{In: inj})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, lis)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return func() *Client {
		c, err := Dial(lis.Addr().String(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}, m
}

func TestChaosDisabledOverWire(t *testing.T) {
	dial, _ := startFleetServer(t, map[string]fleet.Backend{"p0": newMemBackend()})
	c := dial()

	st, err := c.ChaosStatus()
	if err != nil {
		t.Fatal(err)
	}
	if st.Enabled {
		t.Fatalf("chaos reported enabled on a plain server: %+v", st)
	}
	if _, err := c.ChaosInject(ChaosInjectParams{Kind: "pod-loss", Pod: "p0"}); err == nil ||
		!strings.Contains(err.Error(), "chaos injection disabled") {
		t.Fatalf("inject on disabled server: %v", err)
	}
}

func TestChaosInjectOverWire(t *testing.T) {
	dial, m := startChaosFleetServer(t)
	c := dial()
	waitPod(t, m, "p0", func(ps fleet.PodStatus) bool { return ps.Converged })

	// A bad event is rejected by scenario validation before it touches
	// anything.
	if _, err := c.ChaosInject(ChaosInjectParams{Kind: "warp-core-breach"}); err == nil ||
		!strings.Contains(err.Error(), "chaos") {
		t.Fatalf("bad kind: %v", err)
	}

	res, err := c.ChaosInject(ChaosInjectParams{Kind: "pod-loss", Pod: "p0"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Applied, "pod-loss") {
		t.Fatalf("applied = %q", res.Applied)
	}
	waitPod(t, m, "p0", func(ps fleet.PodStatus) bool { return ps.Quarantined })

	st, err := c.ChaosStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.InjectedTotal != 1 || st.LastFault == "" {
		t.Fatalf("status = %+v", st)
	}

	if _, err := c.ChaosInject(ChaosInjectParams{Kind: "pod-restore", Pod: "p0"}); err != nil {
		t.Fatal(err)
	}
	waitPod(t, m, "p0", func(ps fleet.PodStatus) bool { return !ps.Quarantined && ps.Converged })

	st, err = c.ChaosStatus()
	if err != nil {
		t.Fatal(err)
	}
	if st.InjectedTotal != 2 {
		t.Fatalf("status after restore = %+v", st)
	}
}
