package replay_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/replay"
	"doubleplay/internal/workloads"
)

// mutate applies one random perturbation to a recording and reports what it
// changed (for diagnostics). It returns false if it found nothing to change.
func mutate(rng *rand.Rand, rec *dplog.Recording) (string, bool) {
	if len(rec.Epochs) == 0 {
		return "", false
	}
	ep := rec.Epochs[rng.Intn(len(rec.Epochs))]
	switch rng.Intn(6) {
	case 0: // perturb a slice length
		if len(ep.Schedule) == 0 {
			return "", false
		}
		i := rng.Intn(len(ep.Schedule))
		ep.Schedule[i].N += uint64(1 + rng.Intn(3))
		return "slice-length", true
	case 1: // retarget a slice to another thread
		if len(ep.Schedule) < 2 || len(ep.Targets) < 2 {
			return "", false
		}
		i := rng.Intn(len(ep.Schedule))
		ep.Schedule[i].Tid = (ep.Schedule[i].Tid + 1) % len(ep.Targets)
		return "slice-tid", true
	case 2: // corrupt a syscall result value
		if len(ep.Syscalls) == 0 {
			return "", false
		}
		ep.Syscalls[rng.Intn(len(ep.Syscalls))].Ret += 1
		return "syscall-ret", true
	case 3: // drop a syscall record
		if len(ep.Syscalls) == 0 {
			return "", false
		}
		i := rng.Intn(len(ep.Syscalls))
		ep.Syscalls = append(ep.Syscalls[:i], ep.Syscalls[i+1:]...)
		return "syscall-drop", true
	case 4: // shift a thread's epoch target
		if len(ep.Targets) == 0 {
			return "", false
		}
		i := rng.Intn(len(ep.Targets))
		ep.Targets[i] += uint64(1 + rng.Intn(2))
		return "target", true
	case 5: // shift a signal's delivery point
		if len(ep.Signals) == 0 {
			return "", false
		}
		ep.Signals[rng.Intn(len(ep.Signals))].Retired += 1
		return "signal-point", true
	}
	return "", false
}

// TestQuickMutatedLogsNeverReplayWrong is the failure-injection property:
// after a random corruption, sequential replay must either reject the log
// or — when the mutation happens to be behaviourally neutral — reproduce
// the recorded final hash. It must never silently produce a different
// execution that passes verification (verification includes per-epoch and
// final hashes, so this is really testing that those checks are airtight).
func TestQuickMutatedLogsNeverReplayWrong(t *testing.T) {
	workloadNames := []string{"kvdb", "sigping", "pfscan"}
	base := make(map[string]struct {
		prog *dplogProg
		data []byte
	})
	for _, name := range workloadNames {
		wl := workloads.Get(name)
		bt := wl.Build(workloads.Params{Workers: 3, Seed: 29})
		res, err := core.Record(bt.Prog, bt.World, core.Options{
			Workers: 3, SpareCPUs: 3, Seed: 29,
		})
		if err != nil {
			t.Fatal(err)
		}
		base[name] = struct {
			prog *dplogProg
			data []byte
		}{&dplogProg{prog: bt}, dplog.MarshalBytes(res.Recording)}
	}

	f := func(seed int64, pick uint8) bool {
		name := workloadNames[int(pick)%len(workloadNames)]
		b := base[name]
		rec, err := dplog.UnmarshalBytes(b.data)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		kind, ok := mutate(rng, rec)
		if !ok {
			return true // nothing mutated; vacuous
		}
		rep, err := replay.Run(context.Background(), b.prog.prog.Prog, replay.FromRecording(rec), replay.Options{})
		if err != nil {
			return true // corruption detected: the desired common case
		}
		if rep.FinalHash != rec.FinalHash {
			t.Logf("%s mutation %q: replay 'succeeded' with a different hash", name, kind)
			return false
		}
		return true // behaviourally neutral mutation
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// dplogProg pairs a built workload for reuse across mutations.
type dplogProg struct{ prog *workloads.Built }
