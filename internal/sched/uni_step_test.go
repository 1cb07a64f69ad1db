package sched_test

import (
	"reflect"
	"testing"

	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/sched"
	"doubleplay/internal/vm"
)

// epochCut runs prog from reset to a mid-run point under a logging
// scheduler and returns what a recorded epoch ending there holds: each
// thread's retired count, the timeslice schedule, and the gated sync
// order.
func epochCut(t *testing.T, prog *vm.Program) (targets []uint64, schedule []dplog.Slice, order []dplog.SyncRecord) {
	t.Helper()
	m := vm.NewMachine(prog, nil, nil)
	m.Hooks.OnSync = func(ev vm.SyncEvent) {
		if ev.Gated() {
			order = append(order, dplog.SyncRecord{Tid: ev.Tid, Kind: ev.Obj.Kind, ID: ev.Obj.ID})
		}
	}
	u := sched.NewUni(m)
	u.Quantum = 150
	u.TotalBudget = 3000
	u.LogSchedule = true
	if err := u.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Done() {
		t.Fatal("budget run finished; enlarge the program")
	}
	for _, th := range m.Threads {
		targets = append(targets, th.Retired)
	}
	return targets, u.Log, order
}

// TestUniAdvanceByOneMatchesRun runs the same epoch once with Run and once
// one retirement at a time, and checks the two runs are indistinguishable.
func TestUniAdvanceByOneMatchesRun(t *testing.T) {
	prog := counterProg(3, 400, true)
	targets, schedule, order := epochCut(t, prog)
	cases := []struct {
		name  string
		setup func(m *vm.Machine) *sched.Uni
	}{
		{"follow", func(m *vm.Machine) *sched.Uni {
			u := sched.NewUni(m)
			u.Follow = schedule
			u.Targets = targets
			return u
		}},
		{"free-logged", func(m *vm.Machine) *sched.Uni {
			u := sched.NewUni(m)
			u.Quantum = 70
			u.Targets = targets
			u.LogSchedule = true
			return u
		}},
		{"free-gated", func(m *vm.Machine) *sched.Uni {
			g := epoch.NewGate(order)
			m.Hooks.MayAcquire = g.MayAcquire
			m.Hooks.OnSync = g.OnSync
			u := sched.NewUni(m)
			u.Quantum = 40
			u.Targets = targets
			return u
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m1 := vm.NewMachine(prog, nil, nil)
			whole := c.setup(m1)
			if err := whole.Run(); err != nil {
				t.Fatal(err)
			}

			m2 := vm.NewMachine(prog, nil, nil)
			stepped := c.setup(m2)
			retired := func() (n uint64) {
				for _, th := range m2.Threads {
					n += th.Retired
				}
				return n
			}
			for {
				before := retired()
				done, err := stepped.Advance(1)
				if err != nil {
					t.Fatal(err)
				}
				if got := retired() - before; got != 1 {
					t.Fatalf("Advance(1) retired %d instructions", got)
				}
				if done {
					break
				}
			}

			if stepped.Cycles != whole.Cycles || stepped.Switches != whole.Switches {
				t.Fatalf("stepped: %d cycles, %d switches; Run: %d cycles, %d switches",
					stepped.Cycles, stepped.Switches, whole.Cycles, whole.Switches)
			}
			if !reflect.DeepEqual(stepped.Log, whole.Log) {
				t.Fatalf("stepped log %v != Run log %v", stepped.Log, whole.Log)
			}
			if m2.StateHash() != m1.StateHash() {
				t.Fatal("stepped run reached a different state")
			}
			for i, th := range m2.Threads {
				if th.Retired != targets[i] {
					t.Fatalf("thread %d retired %d, target %d", i, th.Retired, targets[i])
				}
			}
		})
	}
}
