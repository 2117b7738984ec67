package wal

import (
	"bytes"
	"testing"

	"lightwave/internal/core"
	"lightwave/internal/fleet"
	"lightwave/internal/topo"
)

func slice(name string, cubes ...int) fleet.SliceIntent {
	return fleet.SliceIntent{Name: name, Shape: topo.Shape{X: 4, Y: 4, Z: 16}, Cubes: cubes}
}

func TestFleetStateFold(t *testing.T) {
	fs := NewFleetState()
	fs.Apply(fleet.JournalEntry{Op: fleet.OpAddPod, Pod: "pod0"})
	s := slice("train", 0, 1, 2, 3)
	fs.Apply(fleet.JournalEntry{Op: fleet.OpSetSlice, Pod: "pod0", Slice: &s})
	s2 := slice("infer", 4)
	fs.Apply(fleet.JournalEntry{Op: fleet.OpSetSlice, Pod: "pod0", Slice: &s2})
	fs.Apply(fleet.JournalEntry{Op: fleet.OpRemoveSlice, Pod: "pod0", Name: "infer"})

	p := fs.Pods["pod0"]
	if p == nil || len(p.Slices) != 1 {
		t.Fatalf("pod0 state = %+v", p)
	}
	if got := p.Slices["train"]; got.Name != "train" || len(got.Cubes) != 4 {
		t.Fatalf("train slice = %+v", got)
	}

	// Drain edges, including OCS drain dedup + sorted order.
	fs.Apply(fleet.JournalEntry{Op: fleet.OpDrainOCS, Pod: "pod0", OCS: 9})
	fs.Apply(fleet.JournalEntry{Op: fleet.OpDrainOCS, Pod: "pod0", OCS: 3})
	fs.Apply(fleet.JournalEntry{Op: fleet.OpDrainOCS, Pod: "pod0", OCS: 9})
	if got := p.DrainedOCS; len(got) != 2 || got[0] != 3 || got[1] != 9 {
		t.Fatalf("drained ocs = %v", got)
	}
	fs.Apply(fleet.JournalEntry{Op: fleet.OpUndrainOCS, Pod: "pod0", OCS: 3})
	if got := p.DrainedOCS; len(got) != 1 || got[0] != 9 {
		t.Fatalf("drained ocs after undrain = %v", got)
	}
	fs.Apply(fleet.JournalEntry{Op: fleet.OpUndrainOCS, Pod: "pod0", OCS: 9})
	if p.DrainedOCS != nil {
		t.Fatalf("drained ocs not cleared: %v", p.DrainedOCS)
	}

	// Quarantine is informational but folded; undrain clears it.
	fs.Apply(fleet.JournalEntry{Op: fleet.OpQuarantine, Pod: "pod0", Detail: "probe failed"})
	fs.Apply(fleet.JournalEntry{Op: fleet.OpDrainPod, Pod: "pod0"})
	if !p.Quarantined || !p.Drained {
		t.Fatalf("pod0 = %+v", p)
	}
	fs.Apply(fleet.JournalEntry{Op: fleet.OpUndrainPod, Pod: "pod0"})
	if p.Quarantined || p.Drained {
		t.Fatalf("undrain left %+v", p)
	}

	// Replace swaps the whole slice set atomically.
	fs.Apply(fleet.JournalEntry{Op: fleet.OpReplace, Pod: "pod0", Slices: []fleet.SliceIntent{slice("a"), slice("b")}})
	if len(p.Slices) != 2 || p.Slices["train"].Name != "" {
		t.Fatalf("replace left %+v", p.Slices)
	}

	fs.Apply(fleet.JournalEntry{Op: fleet.OpRemovePod, Pod: "pod0"})
	if fs.Pods["pod0"] != nil {
		t.Fatal("pod0 survived remove")
	}

	// Unknown ops are ignored for forward compatibility.
	fs.Apply(fleet.JournalEntry{Op: "future-op", Pod: "podX"})
	if fs.Pods["podX"] != nil {
		t.Fatal("unknown op mutated state")
	}
}

// TestFleetStateEncodeDeterministic: equal states built in different orders
// must encode to equal bytes — the digest the crash-restart evaluator
// compares depends on it.
func TestFleetStateEncodeDeterministic(t *testing.T) {
	build := func(order []string) *FleetState {
		fs := NewFleetState()
		for _, pod := range order {
			fs.Apply(fleet.JournalEntry{Op: fleet.OpAddPod, Pod: pod})
		}
		for _, pod := range order {
			for _, name := range []string{"z-slice", "a-slice", "m-slice"} {
				s := slice(pod + "-" + name)
				fs.Apply(fleet.JournalEntry{Op: fleet.OpSetSlice, Pod: pod, Slice: &s})
			}
			fs.Apply(fleet.JournalEntry{Op: fleet.OpDrainOCS, Pod: pod, OCS: 7})
		}
		return fs
	}
	a := build([]string{"pod0", "pod1", "pod2"})
	b := build([]string{"pod2", "pod0", "pod1"})

	ea, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatalf("encodings diverge:\n%s\n%s", ea, eb)
	}
	da, err := a.Digest()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatal("digests diverge for equal states")
	}

	// Round trip preserves the canonical bytes.
	dec, err := DecodeFleetState(ea)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := dec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, e2) {
		t.Fatalf("decode/encode round trip diverged:\n%s\n%s", ea, e2)
	}
}

// TestFleetStateApplyTo restores a recovered intent store into a live
// manager and watches the reconciler converge the real fabric onto it.
func TestFleetStateApplyTo(t *testing.T) {
	fs := NewFleetState()
	fs.Apply(fleet.JournalEntry{Op: fleet.OpAddPod, Pod: "pod0"})
	s := slice("train", 0, 1, 2, 3)
	fs.Apply(fleet.JournalEntry{Op: fleet.OpSetSlice, Pod: "pod0", Slice: &s})
	fs.Apply(fleet.JournalEntry{Op: fleet.OpDrainOCS, Pod: "pod0", OCS: 11})
	// A pod on disk but absent from the running config is skipped.
	fs.Apply(fleet.JournalEntry{Op: fleet.OpAddPod, Pod: "ghost"})

	m := fleet.NewManager(fleet.Options{})
	defer m.Close()
	f, err := core.New(core.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddPod("pod0", fleet.NewFabricBackend(f, nil)); err != nil {
		t.Fatal(err)
	}

	if err := fs.ApplyTo(m); err != nil {
		t.Fatal(err)
	}
	// The restored OCS drain must also be restored in behavior: new slice
	// application is deferred while it holds, exactly as before the crash.
	ps, err := m.PodStatus("pod0")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.DrainedOCS) != 1 || ps.DrainedOCS[0] != 11 {
		t.Fatalf("ocs drain not restored: %+v", ps)
	}
	if len(ps.DesiredSlices) != 1 || ps.DesiredSlices[0] != "train" {
		t.Fatalf("intent not restored: %+v", ps)
	}
	// Lifting the drain lets the reconciler converge the restored intent.
	if err := m.UndrainOCS("pod0", 11); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if ps, err := m.PodStatus("pod0"); err != nil || !ps.Converged || len(ps.ActualSlices) != 1 {
		t.Fatalf("pod0 never converged on recovered intent: %+v (%v)", ps, err)
	}
}
