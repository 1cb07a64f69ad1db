package replay_test

import (
	"context"
	"testing"

	"doubleplay/internal/dplog"
	"doubleplay/internal/replay"
)

// TestReaderReplayMatchesRecording pins that the Reader-backed replay
// paths agree with the decoded-recording paths on the same log bytes.
func TestReaderReplayMatchesRecording(t *testing.T) {
	prog, res := recordWorkload(t, "kvdb", 2)
	data := dplog.MarshalBytes(res.Recording)
	rd, err := dplog.OpenReaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := replay.Run(context.Background(), prog, replay.FromRecording(res.Recording), replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	viaReader, err := replay.SequentialReader(context.Background(), prog, rd, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if viaReader.FinalHash != seq.FinalHash || viaReader.Cycles != seq.Cycles || viaReader.Epochs != seq.Epochs {
		t.Fatalf("reader replay diverged: %+v vs %+v", viaReader, seq)
	}

	bounds, err := replay.CheckpointsFrom(context.Background(), prog, replay.FromReader(rd), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != len(res.Recording.Epochs)+1 {
		t.Fatalf("CheckpointsFrom returned %d boundaries for %d epochs", len(bounds), len(res.Recording.Epochs))
	}
	sparse := replay.Thin(bounds[:len(bounds)-1], 2)
	par, err := replay.Run(context.Background(), prog, replay.FromReader(rd), replay.Options{Boundaries: sparse, CPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.FinalHash != seq.FinalHash {
		t.Fatal("sparse reader replay disagrees with sequential")
	}
}

// TestOneEpochReplaysSingleSection is the acceptance path for random
// access: seek one epoch's section out of the log, replay just that
// epoch from its boundary checkpoint, and verify it reaches the next
// boundary's state.
func TestOneEpochReplaysSingleSection(t *testing.T) {
	prog, res := recordWorkload(t, "radix", 4)
	data := dplog.MarshalBytes(res.Recording)
	rd, err := dplog.OpenReaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if rd.NumSections() < 2 {
		t.Skip("workload produced fewer than 2 epochs")
	}
	n := rd.NumSections() - 1 // last epoch: sequential decode would pay for all the others
	ep, err := rd.Seek(n)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Boundaries[n].CP.Restore(prog, nil, nil)
	if _, err := replay.RunOneEpoch(m, ep, res.Recording.Quantum, nil); err != nil {
		t.Fatal(err)
	}
	if h := m.StateHash(); h != ep.EndHash {
		t.Fatalf("RunOneEpoch: end hash %016x, want %016x", h, ep.EndHash)
	}
	// A wrong boundary is rejected.
	m0 := res.Boundaries[0].CP.Restore(prog, nil, nil)
	if _, err := replay.RunOneEpoch(m0, ep, res.Recording.Quantum, nil); err == nil {
		t.Fatal("RunOneEpoch accepted a mismatched boundary")
	}
}
