package sched

import (
	"errors"
	"fmt"

	"doubleplay/internal/dplog"
	"doubleplay/internal/trace"
	"doubleplay/internal/vm"
)

// ErrDiverged reports that an epoch-parallel or replay execution departed
// from the recorded execution (sync-order deadlock, syscall mismatch, or a
// thread overshooting/undershooting its epoch target).
var ErrDiverged = errors.New("sched: execution diverged from recording")

// ErrLogExhausted reports a replay that consumed the schedule log without
// reaching the recorded end state.
var ErrLogExhausted = errors.New("sched: schedule log exhausted before targets met")

// Uni timeslices all live threads of a machine on a single simulated CPU.
//
// In logging mode (Follow == nil) it round-robins runnable threads with a
// fixed quantum and appends every timeslice to Log — this is the entire
// shared-memory ordering record DoublePlay needs, the paper's key saving.
// In replay mode (Follow != nil) it reproduces a logged schedule exactly.
//
// Targets, when set, give each thread's retired-instruction count at the
// epoch boundary; threads stop there and the run ends when all reach them.
//
// A run is resumable: [Uni.Advance] stops after a given number of
// retirements and the next call picks up exactly where it stopped, so a
// run advanced one retirement at a time makes the same scheduling
// decisions, charges and log as one [Uni.Run].
type Uni struct {
	M       *vm.Machine
	Quantum int64

	// Targets[tid] is the epoch-end retired count; nil means run to
	// completion.
	Targets []uint64

	// Follow, when non-nil, is a recorded schedule to reproduce.
	Follow []dplog.Slice

	// TotalBudget, when positive, ends a free run once the machine as a
	// whole has retired this many further instructions; used by forward
	// recovery to re-execute roughly one epoch's worth of work.
	TotalBudget uint64

	// LogSchedule enables appending timeslices to Log.
	LogSchedule bool
	Log         []dplog.Slice

	// Trace, when set, receives one span per executed timeslice (named
	// TraceSpan, default "slice"), stamped with this scheduler's local
	// Cycles clock and homed on (TracePid, TraceTid). Callers that know
	// the run's global position splice a buffer instead (see
	// trace.Sink.Splice). Tracing never alters Cycles.
	Trace     trace.Recorder
	TracePid  int64
	TraceTid  int64
	TraceSpan string

	// Cycles is the simulated time consumed on this CPU, including
	// context-switch and schedule-logging charges.
	Cycles int64

	// Switches counts context switches (slices executed).
	Switches int64

	// Where a paused run resumes.
	cursor     int        // round-robin position for free runs
	slice      int        // replay mode: index of the current Follow slice
	cur        *vm.Thread // free run: thread of the open slice, nil between slices
	sliceN     uint64     // retirements so far in the current slice
	sliceStart int64      // Cycles when the current slice began
	started    bool       // a free run has recorded budgetBase
	budgetBase uint64     // totalRetired when the free run started
}

// NewUni builds a uniprocessor scheduler over m.
func NewUni(m *vm.Machine) *Uni {
	return &Uni{M: m, Quantum: DefaultQuantum}
}

// sliceSpan returns the trace span name for one timeslice.
func (u *Uni) sliceSpan() string {
	if u.TraceSpan != "" {
		return u.TraceSpan
	}
	return "slice"
}

// belowTarget reports whether t still has instructions to retire this run.
func (u *Uni) belowTarget(t *vm.Thread) bool {
	if !t.Status.Live() {
		return false
	}
	if u.Targets == nil {
		return true
	}
	if t.ID >= len(u.Targets) {
		// A thread the recording never saw: the execution has diverged.
		return false
	}
	return t.Retired < u.Targets[t.ID]
}

// targetsMet reports whether the run is complete.
func (u *Uni) targetsMet() (bool, error) {
	if u.Targets == nil {
		return u.M.Done(), nil
	}
	for _, t := range u.M.Threads {
		if t.ID >= len(u.Targets) {
			return false, fmt.Errorf("%w: thread %d not present in recording", ErrDiverged, t.ID)
		}
		want := u.Targets[t.ID]
		switch {
		case t.Retired == want:
		case t.Retired < want:
			if !t.Status.Live() {
				return false, fmt.Errorf("%w: thread %d died at %d retired, target %d",
					ErrDiverged, t.ID, t.Retired, want)
			}
			return false, nil
		default:
			return false, fmt.Errorf("%w: thread %d overshot target %d (retired %d)",
				ErrDiverged, t.ID, want, t.Retired)
		}
	}
	return true, nil
}

// Run executes until targets are met (or the machine terminates, when
// Targets is nil).
func (u *Uni) Run() error {
	_, err := u.Advance(^uint64(0))
	return err
}

// Advance continues the run until it completes or n more instructions
// have retired inside timeslices, whichever comes first, and reports
// whether the run is complete. A retirement that finishes the run is
// recognised in the same call, and a call that exhausts n never starts
// the next timeslice, so stopping between calls changes no charge.
// Advance(0) only detects a run that is already complete.
func (u *Uni) Advance(n uint64) (bool, error) {
	if u.Follow != nil {
		return u.follow(n)
	}
	return u.free(n)
}

// NextTid reports which thread the next retirement is expected on, when
// known. In a free run an attempt that blocks ends its slice, so the
// round-robin successor may retire instead.
func (u *Uni) NextTid() (int, bool) {
	if u.Follow != nil {
		if u.slice >= len(u.Follow) {
			return 0, false
		}
		return u.Follow[u.slice].Tid, true
	}
	t := u.cur
	if t == nil {
		t = u.peekNext()
	}
	if t == nil {
		return 0, false
	}
	return t.ID, true
}

// totalRetired sums retired instructions across all threads.
func (u *Uni) totalRetired() uint64 {
	var n uint64
	for _, t := range u.M.Threads {
		n += t.Retired
	}
	return n
}

// free is logging mode: round-robin with quantum, appending slices.
func (u *Uni) free(left uint64) (bool, error) {
	if !u.started {
		u.started = true
		u.budgetBase = u.totalRetired()
	}
	for {
		if u.cur == nil {
			if u.TotalBudget > 0 && u.totalRetired()-u.budgetBase >= u.TotalBudget {
				return true, nil
			}
			done, err := u.targetsMet()
			if err != nil || done {
				return done, err
			}
			if left == 0 {
				return false, nil
			}
			t := u.pickNext()
			if t == nil {
				if u.pollBlockedSys() {
					continue
				}
				return false, fmt.Errorf("%w\n%s", u.stuckErr(), u.M.DescribeState())
			}
			u.cur, u.sliceN = t, 0
			u.Switches++
			u.Cycles += u.M.Cost.TimesliceSwitch
			u.sliceStart = u.Cycles
		}
		var err error
		if left, err = u.runSlice(left); err != nil {
			return false, err
		}
		if u.cur != nil {
			return false, nil // the budget ran out inside the slice
		}
	}
}

// stuckErr classifies a no-runnable-thread state: under enforcement or
// targets it is a divergence; otherwise a guest deadlock.
func (u *Uni) stuckErr() error {
	if u.Targets != nil || u.M.Hooks.MayAcquire != nil {
		return fmt.Errorf("%w: no runnable thread before targets met", ErrDiverged)
	}
	return ErrDeadlock
}

// peekNext returns the thread pickNext would choose, without moving the
// round-robin cursor.
func (u *Uni) peekNext() *vm.Thread {
	threads := u.M.Threads
	n := len(threads)
	for k := 0; k < n; k++ {
		t := threads[(u.cursor+k)%n]
		if t.Status == vm.Runnable && u.belowTarget(t) {
			return t
		}
	}
	return nil
}

// pickNext scans round-robin for a runnable thread below target.
func (u *Uni) pickNext() *vm.Thread {
	t := u.peekNext()
	if t != nil {
		u.cursor = (t.ID + 1) % len(u.M.Threads)
	}
	return t
}

// pollBlockedSys advances time and re-attempts syscall-blocked threads; it
// returns true if any thread became runnable or retired. This path is used
// by the uniprocessor baseline, where the real simulated OS can block; in
// epoch-parallel and replay modes injected syscalls never block.
func (u *Uni) pollBlockedSys() bool {
	any := false
	for _, t := range u.M.Threads {
		if t.Status == vm.BlockedSys && u.belowTarget(t) {
			any = true
		}
	}
	if !any {
		return false
	}
	u.Cycles += sysPollInterval
	u.M.Now = u.Cycles
	for _, t := range u.M.Threads {
		if t.Status != vm.BlockedSys || !u.belowTarget(t) {
			continue
		}
		if res := u.M.Step(t); res.Retired {
			u.Cycles += res.Cost
		}
	}
	// Even with no retirement, time moved forward; the caller loops and the
	// livelock guard is the simulated clock itself (world events are finite).
	return true
}

// runSlice continues the open slice of u.cur until quantum retirements, a
// block, its target, machine/thread termination, or the budget left runs
// out. A slice that ends is traced, logged and closed (u.cur = nil); one
// stopped by the budget stays open. It returns the budget remaining.
func (u *Uni) runSlice(left uint64) (uint64, error) {
	t, retired := u.cur, u.sliceN
	for int64(retired) < u.Quantum {
		if !t.Status.Live() || t.Status.Blocked() {
			break
		}
		if u.Targets != nil && !u.belowTarget(t) {
			break
		}
		if left == 0 {
			u.sliceN = retired
			return 0, nil
		}
		u.M.Now = u.Cycles
		res := u.M.Step(t)
		if u.M.Diverged != "" {
			return left, fmt.Errorf("%w: %s", ErrDiverged, u.M.Diverged)
		}
		if !res.Retired {
			break
		}
		u.Cycles += res.Cost
		retired++
		left--
	}
	u.cur = nil
	if trace.Enabled(u.Trace) && retired > 0 {
		u.Trace.Span(u.sliceSpan(), u.sliceStart, u.Cycles-u.sliceStart, u.TracePid, u.TraceTid,
			map[string]any{"tid": t.ID, "retired": retired})
	}
	// A guest fault ends the thread like an exit; whether that is a guest
	// bug (native/baseline runs) or a divergence (target runs, where the
	// dead thread stops short of its target) is the caller's judgement.
	if retired > 0 {
		u.appendSlice(t.ID, retired)
	}
	return left, nil
}

// appendSlice records a timeslice, merging with the previous entry when the
// same thread continues (quantum expiry without an intervening switch).
func (u *Uni) appendSlice(tid int, n uint64) {
	if !u.LogSchedule {
		return
	}
	if k := len(u.Log); k > 0 && u.Log[k-1].Tid == tid {
		u.Log[k-1].N += n
		return
	}
	u.Log = append(u.Log, dplog.Slice{Tid: tid, N: n})
	u.Cycles += u.M.Cost.SchedLogEvent
}

// follow is replay mode: reproduce the logged schedule exactly.
func (u *Uni) follow(left uint64) (bool, error) {
	for ; u.slice < len(u.Follow); u.slice++ {
		i, s := u.slice, u.Follow[u.slice]
		if s.Tid < 0 || s.Tid >= len(u.M.Threads) {
			return false, fmt.Errorf("%w: slice %d names unknown thread %d", ErrDiverged, i, s.Tid)
		}
		t := u.M.Threads[s.Tid]
		retired := u.sliceN
		if retired == 0 {
			u.sliceStart = u.Cycles
		}
		for retired < s.N {
			if left == 0 {
				u.sliceN = retired
				return false, nil
			}
			if !t.Status.Live() {
				return false, fmt.Errorf("%w: slice %d: thread %d dead after %d/%d",
					ErrDiverged, i, s.Tid, retired, s.N)
			}
			if t.Status.Blocked() {
				return false, fmt.Errorf("%w: slice %d: thread %d blocked (%s) after %d/%d",
					ErrDiverged, i, s.Tid, t.Status, retired, s.N)
			}
			before := t.Retired
			u.M.Now = u.Cycles
			res := u.M.Step(t)
			if u.M.Diverged != "" {
				return false, fmt.Errorf("%w: %s", ErrDiverged, u.M.Diverged)
			}
			if !res.Retired {
				continue // re-attempt resolved by barrier/lock side effects
			}
			u.Cycles += res.Cost
			retired += t.Retired - before
			left--
		}
		if retired != s.N {
			return false, fmt.Errorf("%w: slice %d: thread %d retired %d, slice says %d",
				ErrDiverged, i, s.Tid, retired, s.N)
		}
		if trace.Enabled(u.Trace) {
			u.Trace.Span(u.sliceSpan(), u.sliceStart, u.Cycles-u.sliceStart, u.TracePid, u.TraceTid,
				map[string]any{"tid": s.Tid, "retired": retired})
		}
		u.Switches++
		u.Cycles += u.M.Cost.TimesliceSwitch
		u.sliceN = 0
	}
	done, err := u.targetsMet()
	if err != nil {
		return false, err
	}
	if !done {
		return false, ErrLogExhausted
	}
	return true, nil
}
