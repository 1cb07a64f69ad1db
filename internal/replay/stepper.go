// Resumable single-epoch execution: the Stepper replays one epoch one
// retired guest instruction at a time, pausing between instructions with
// the machine in a fully inspectable state. It drives the same
// epoch.Exec as runEpoch — same injectors, same sched.Uni, same
// end-of-epoch checks — advancing it one retirement per Step instead of
// to completion, so a fully stepped epoch lands on exactly the state and
// cost runEpoch computes. The debug session (internal/debug) is built on
// it: every stop point a debugger can reach is "boundary checkpoint +
// k Stepper.Step calls", which is what makes positions comparable across
// replay strategies.

package replay

import (
	"fmt"

	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/vm"
)

// StepEvent describes one retired guest instruction.
type StepEvent struct {
	Tid int
	// PC is the program counter the instruction retired at; for an
	// asynchronous signal delivery, the pc it interrupted.
	PC int
	// Signal marks the event as a signal delivery rather than the
	// instruction at PC executing.
	Signal bool
}

// Stepper executes one epoch instruction by instruction. The epoch's
// end-state verification runs inside the Step call that retires the
// final instruction, so a Stepper that reports Done has proved the epoch
// reproduced the recording.
type Stepper struct {
	x     *epoch.Exec
	marks []threadMark // per-thread state before the current Step
	steps uint64
	done  bool
	err   error
}

// threadMark is a thread's state before a Step, enough to describe the
// retirement the Step makes on it.
type threadMark struct {
	t            *vm.Thread
	pc           int
	retired, sig uint64
}

// NewStepper prepares m — which must hold ep's start state — for stepped
// execution of ep, wiring the epoch's injectors (and, for certified
// epochs, the sync-order gate) into the machine. quantum is the
// recording's scheduling quantum (zero = default), used only by
// certified epochs. An epoch that is already complete (all targets met
// at entry) is verified immediately; the error is that verification's
// outcome.
func NewStepper(m *vm.Machine, ep *dplog.EpochLog, quantum int64, costs *vm.CostModel) (*Stepper, error) {
	if costs == nil {
		costs = vm.DefaultCosts()
	}
	s := &Stepper{x: epoch.NewExec(m, ep, epoch.Replay, quantum, costs, nil)}
	if err := s.advance(0); err != nil {
		return nil, err
	}
	return s, nil
}

// Done reports whether the epoch has fully (and verifiably) replayed.
func (s *Stepper) Done() bool { return s.done }

// Err returns the sticky failure, if any.
func (s *Stepper) Err() error { return s.err }

// Steps returns the number of instructions retired so far. Signal
// deliveries count: they retire, exactly as in the recorded schedule.
func (s *Stepper) Steps() uint64 { return s.steps }

// Epoch returns the epoch log being stepped.
func (s *Stepper) Epoch() *dplog.EpochLog { return s.x.Epoch }

// Cycles returns the epoch cost consumed so far, on the same scale as
// runEpoch's return. When Done, this equals what runEpoch would have
// returned for the whole epoch.
func (s *Stepper) Cycles() int64 { return s.x.Cost() }

// NextTid reports which thread the scheduler will run next, when known.
func (s *Stepper) NextTid() (int, bool) {
	if s.done || s.err != nil {
		return 0, false
	}
	return s.x.NextTid()
}

// Step retires exactly one guest instruction and returns what retired.
// Calling Step on a Done or failed Stepper returns an error.
func (s *Stepper) Step() (StepEvent, error) {
	if s.err != nil {
		return StepEvent{}, s.err
	}
	if s.done {
		return StepEvent{}, fmt.Errorf("replay: epoch %d already complete", s.x.Epoch.Index)
	}
	// Note the threads that may retire: in a follow run exactly the
	// scheduled one; in a free run an attempt that blocks hands the CPU to
	// the next thread, so any of them.
	may := s.x.M.Threads
	if tid, ok := s.x.NextTid(); ok && s.x.Uni.Follow != nil && tid >= 0 && tid < len(may) {
		may = may[tid : tid+1]
	}
	s.marks = s.marks[:0]
	for _, t := range may {
		s.marks = append(s.marks, threadMark{t: t, pc: t.PC, retired: t.Retired, sig: t.SigRetired})
	}
	err := s.advance(1)
	var ev StepEvent
	for _, mk := range s.marks {
		if mk.t.Retired != mk.retired {
			ev = StepEvent{Tid: mk.t.ID, PC: mk.pc, Signal: mk.t.SigRetired != mk.sig}
			s.steps++
		}
	}
	return ev, err
}

// advance runs the epoch for up to n retirements and, when it completes
// or fails, records the verdict.
func (s *Stepper) advance(n uint64) error {
	done, err := s.x.Advance(n)
	if done || err != nil {
		err = finish(s.x, err)
		s.done, s.err = err == nil, err
	}
	return err
}
