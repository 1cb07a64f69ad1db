package replay_test

import (
	"context"
	"strings"
	"testing"

	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/replay"
	"doubleplay/internal/simos"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// recordWorkload produces a recording of a builtin workload.
func recordWorkload(t *testing.T, name string, workers int) (*vm.Program, *core.Result) {
	t.Helper()
	wl := workloads.Get(name)
	if wl == nil {
		t.Fatalf("no workload %s", name)
	}
	bt := wl.Build(workloads.Params{Workers: workers, Seed: 17})
	res, err := core.Record(bt.Prog, bt.World, core.Options{
		Workers: workers, SpareCPUs: workers, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return bt.Prog, res
}

func TestSequentialVerifiesEveryBoundary(t *testing.T) {
	prog, res := recordWorkload(t, "kvdb", 2)
	rep, err := replay.Run(context.Background(), prog, replay.FromRecording(res.Recording), replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epochs != len(res.Recording.Epochs) {
		t.Fatalf("replayed %d of %d epochs", rep.Epochs, len(res.Recording.Epochs))
	}
	if rep.FinalHash != res.FinalHash {
		t.Fatal("final hash mismatch")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	prog, res := recordWorkload(t, "radix", 4)
	seq, err := replay.Run(context.Background(), prog, replay.FromRecording(res.Recording), replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := replay.Parallel(prog, res.Recording, res.Boundaries, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if par.FinalHash != seq.FinalHash {
		t.Fatal("parallel and sequential replay disagree")
	}
	if par.Cycles >= seq.Cycles {
		t.Fatalf("parallel replay not faster: %d vs %d", par.Cycles, seq.Cycles)
	}
}

func TestCorruptedScheduleRejected(t *testing.T) {
	prog, res := recordWorkload(t, "kvdb", 2)
	rec := res.Recording
	// Find an epoch with a schedule and perturb one slice.
	for _, ep := range rec.Epochs {
		if len(ep.Schedule) > 1 {
			ep.Schedule[0].N += 2
			break
		}
	}
	if _, err := replay.Run(context.Background(), prog, replay.FromRecording(rec), replay.Options{}); err == nil {
		t.Fatal("corrupted schedule replayed cleanly")
	}
}

func TestCorruptedSyscallResultRejected(t *testing.T) {
	// pfscan counts words equal to 42; toggling one input word across that
	// boundary changes the match count, so the replayed state must differ.
	prog, res := recordWorkload(t, "pfscan", 2)
	rec := res.Recording
	found := false
	for _, ep := range rec.Epochs {
		for i := range ep.Syscalls {
			if len(ep.Syscalls[i].Writes) > 0 && len(ep.Syscalls[i].Writes[0].Data) > 0 {
				d := ep.Syscalls[i].Writes[0].Data
				if d[0] == 42 {
					d[0] = 0
				} else {
					d[0] = 42
				}
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("no syscall input data recorded")
	}
	if _, err := replay.Run(context.Background(), prog, replay.FromRecording(rec), replay.Options{}); err == nil {
		t.Fatal("corrupted input data replayed cleanly")
	}
}

// TestCorruptedFinalHashRejected tampers with the recorded final hash and
// checks that every segment shape rejects it, over both sources: one
// segment from reset, one per epoch, and a thinned set.
func TestCorruptedFinalHashRejected(t *testing.T) {
	prog, res := recordWorkload(t, "kvdb", 2)
	res.Recording.FinalHash ^= 1
	rd, err := dplog.OpenReaderBytes(dplog.MarshalBytes(res.Recording))
	if err != nil {
		t.Fatal(err)
	}
	sources := []struct {
		name string
		src  replay.Source
	}{{"recording", replay.FromRecording(res.Recording)}, {"reader", replay.FromReader(rd)}}
	sets := []struct {
		name string
		bs   []*epoch.Boundary
	}{{"sequential", nil}, {"parallel", res.Boundaries}, {"sparse", res.ThinBoundaries(2)}}
	for _, set := range sets {
		for _, s := range sources {
			t.Run(set.name+"/"+s.name, func(t *testing.T) {
				_, err := replay.Run(context.Background(), prog, s.src, replay.Options{Boundaries: set.bs, CPUs: 2})
				if err == nil || !strings.Contains(err.Error(), "final hash") {
					t.Fatalf("err = %v", err)
				}
			})
		}
	}
}

func TestParallelBoundaryCountMismatch(t *testing.T) {
	prog, res := recordWorkload(t, "kvdb", 2)
	_, err := replay.Parallel(prog, res.Recording, res.Boundaries[:1], 2, nil, nil)
	if err == nil {
		t.Fatal("boundary count mismatch accepted")
	}
}

func TestReplayRoundTripsThroughCodec(t *testing.T) {
	prog, res := recordWorkload(t, "webserve", 2)
	data := dplog.MarshalBytes(res.Recording)
	rec, err := dplog.UnmarshalBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replay.Run(context.Background(), prog, replay.FromRecording(rec), replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalHash != res.FinalHash {
		t.Fatal("decoded recording replays differently")
	}
}

func TestWrongProgramRejected(t *testing.T) {
	_, res := recordWorkload(t, "kvdb", 2)
	other := workloads.Get("fft").Build(workloads.Params{Workers: 2, Seed: 17})
	if _, err := replay.Run(context.Background(), other.Prog, replay.FromRecording(res.Recording), replay.Options{}); err == nil {
		t.Fatal("recording replayed against the wrong program")
	}
	_ = simos.NewWorld // keep import for symmetry with other tests
}
