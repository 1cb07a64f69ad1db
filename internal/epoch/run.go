package epoch

import (
	"errors"
	"fmt"

	"doubleplay/internal/dplog"
	"doubleplay/internal/profile"
	"doubleplay/internal/sched"
	"doubleplay/internal/simos"
	"doubleplay/internal/trace"
	"doubleplay/internal/vm"
)

// ErrDiverged wraps sched.ErrDiverged for callers of this package.
var ErrDiverged = sched.ErrDiverged

// Boundary is one epoch boundary captured from the thread-parallel run: an
// architectural checkpoint, a frozen snapshot of the simulated world, and
// the simulated time at which the checkpoint was taken.
type Boundary struct {
	Index int
	Cycle int64
	CP    *vm.Checkpoint
	World *simos.World
	Hash  uint64

	// MappedPages is the checkpoint's memory footprint, used by the cost
	// model to price taking the checkpoint.
	MappedPages int
}

// Targets returns the per-thread retired-instruction counts at this
// boundary, which define where the preceding epoch ends.
func (b *Boundary) Targets() []uint64 {
	out := make([]uint64, len(b.CP.Threads))
	for i, t := range b.CP.Threads {
		out[i] = t.Retired
	}
	return out
}

// Capture snapshots a running machine and its world into a boundary.
func Capture(index int, cycle int64, m *vm.Machine, w *simos.World) *Boundary {
	cp := m.Checkpoint()
	return &Boundary{
		Index:       index,
		Cycle:       cycle,
		CP:          cp,
		World:       w.Clone(),
		Hash:        cp.Hash(),
		MappedPages: m.Mem.PageCount(),
	}
}

// Mode selects how an [Exec] schedules and constrains its epoch.
type Mode uint8

const (
	// Replay reproduces the epoch's recorded schedule. A certified epoch
	// carries none: it free-runs to its targets under the enforcing gate,
	// exactly like the epoch-parallel run the recorder skipped.
	Replay Mode = iota
	// Record free-runs to the epoch's targets under the enforcing gate and
	// logs the schedule it takes: the recorder's epoch-parallel run.
	Record
	// RecordUnenforced is Record with a gate that checks the sync order
	// but never holds a thread back (the enforcement ablation), so
	// lock-order races surface as divergences.
	RecordUnenforced
)

// Exec is one epoch's uniprocessor execution: the execution DoublePlay
// logs, and the one replay reproduces. It wires the epoch's recorded
// inputs into a machine holding the epoch's start state — syscall results
// through an InjectOS, signal deliveries through InjectSignals and, unless
// it follows a recorded schedule, the sync order through a Gate — and runs
// the threads timesliced on one CPU with a sched.Uni. The run is
// resumable: Advance stops after any number of retirements, and a run
// advanced in steps reaches the state and cost of one Run.
type Exec struct {
	M     *vm.Machine
	Epoch *dplog.EpochLog
	Uni   *sched.Uni
	// EndHash is the machine's state hash once the run has completed and
	// passed the end-of-epoch checks.
	EndHash uint64

	costs *vm.CostModel
	inj   *InjectOS
	sigs  *InjectSignals
	gate  *Gate // nil when following a recorded schedule
}

// NewExec prepares m, which must hold ep's start state, to run ep in the
// given mode. quantum is the scheduling quantum of a free run (zero =
// default), and a non-nil tr receives the timeslices with epoch-local
// timestamps.
func NewExec(m *vm.Machine, ep *dplog.EpochLog, mode Mode, quantum int64, costs *vm.CostModel, tr trace.Recorder) *Exec {
	x := &Exec{M: m, Epoch: ep, Uni: sched.NewUni(m), costs: costs}
	x.inj = NewInjectOS(ep.Syscalls)
	m.OS = x.inj
	x.sigs = NewInjectSignals(ep.Signals)
	m.Hooks.PendingSignal = x.sigs.Pending
	x.Uni.Targets = ep.Targets
	x.Uni.Trace = tr
	if mode == Replay && !ep.Certified {
		// Follow mode even for an empty schedule: the targets must then
		// already be met.
		x.Uni.Follow = ep.Schedule
		if x.Uni.Follow == nil {
			x.Uni.Follow = []dplog.Slice{}
		}
		return x
	}
	x.gate = NewGate(ep.SyncOrder)
	if mode != RecordUnenforced {
		m.Hooks.MayAcquire = x.gate.MayAcquire
	}
	m.Hooks.OnSync = x.gate.OnSync
	if quantum > 0 {
		x.Uni.Quantum = quantum
	}
	x.Uni.LogSchedule = mode != Replay
	return x
}

// Advance runs the epoch for up to n more retirements and reports whether
// it is complete. A completed run is checked: it must have consumed every
// recorded sync op, syscall and signal and have the recorded thread
// count, and then EndHash is set. Once the run completes or fails, the
// gate is detached so the machine can go on to the next epoch.
func (x *Exec) Advance(n uint64) (bool, error) {
	done, err := x.Uni.Advance(n)
	if !done && err == nil {
		return false, nil
	}
	if x.gate != nil {
		x.M.Hooks.MayAcquire = nil
		x.M.Hooks.OnSync = nil
	}
	if err == nil {
		err = x.check()
	}
	return err == nil, err
}

// Run runs the epoch to completion; see Advance.
func (x *Exec) Run() error {
	_, err := x.Advance(^uint64(0))
	return err
}

// NextTid reports which thread the next retirement is expected on, when
// known.
func (x *Exec) NextTid() (int, bool) { return x.Uni.NextTid() }

// Cost returns the modelled cost consumed so far: scheduler cycles plus
// the per-injection and per-gate-op surcharges.
func (x *Exec) Cost() int64 {
	c := x.Uni.Cycles + int64(x.inj.Injected)*x.costs.InjectSysEvent
	if x.gate != nil {
		c += int64(x.gate.Used()) * x.costs.EnforceSyncEvent
	}
	return c
}

// check makes the end-of-epoch checks of a run that reached its targets.
// Leftover inputs mean the execution took a different path even though
// per-thread retirement counts lined up.
func (x *Exec) check() error {
	if x.gate != nil {
		if r := x.gate.Remaining(); r != 0 {
			return fmt.Errorf("%w: %d recorded sync ops never performed", ErrDiverged, r)
		}
		if e := x.gate.Err(); e != "" {
			return fmt.Errorf("%w: %s", ErrDiverged, e)
		}
	}
	if r := x.inj.Remaining(); r != 0 {
		return fmt.Errorf("%w: %d recorded syscalls never issued", ErrDiverged, r)
	}
	if r := x.sigs.Remaining(); r != 0 {
		return fmt.Errorf("%w: %d recorded signals never delivered", ErrDiverged, r)
	}
	if len(x.M.Threads) != len(x.Uni.Targets) {
		return fmt.Errorf("%w: thread count %d differs from recorded %d",
			ErrDiverged, len(x.M.Threads), len(x.Uni.Targets))
	}
	x.EndHash = x.M.StateHash()
	return nil
}

// RunSpec describes one epoch-parallel execution: start from Start, run all
// threads timesliced on one CPU to the per-thread targets of Epoch,
// constrained by its recorded sync order and fed its recorded syscall
// results and signals.
type RunSpec struct {
	Prog    *vm.Program
	Start   *Boundary
	Epoch   *dplog.EpochLog
	Quantum int64
	Costs   *vm.CostModel

	// DisableEnforcement turns off the sync-order gate (the ablation
	// configuration): lock-order differences then surface as divergences.
	DisableEnforcement bool

	// Observers, if set, are chained after the gate's own hooks; the race
	// detector attaches here.
	OnSync      func(vm.SyncEvent)
	OnMemAccess func(tid int, addr vm.Word, write bool)

	// Trace, when set, receives one "slice" span per executed timeslice
	// with epoch-local timestamps (cycle 0 = epoch start on the virtual
	// CPU). Callers splice the buffer to the epoch's pipeline-assigned
	// position; see trace.Sink.Splice.
	Trace trace.Recorder

	// Profile, when set, is attached to the epoch's machine and observes
	// every retired instruction; callers snapshot it after the run.
	Profile *profile.Profiler
}

// RunResult is the outcome of an epoch-parallel execution.
type RunResult struct {
	M        *vm.Machine   // final machine state
	Schedule []dplog.Slice // the uniprocessor timeslice log — the replay log
	Cycles   int64         // serialized execution time on the single CPU
	Injected int           // syscalls injected
	Enforced int           // gated sync ops consumed
	EndHash  uint64
}

// Run executes one epoch in Record mode from a restored Start. A nil
// error means the epoch ran to its targets under the recorded
// constraints; the caller still must compare EndHash against the next
// boundary to detect data-race divergence.
func Run(spec RunSpec) (*RunResult, error) {
	mode := Record
	if spec.DisableEnforcement {
		mode = RecordUnenforced
	}
	m := spec.Start.CP.Restore(spec.Prog, nil, spec.Costs)
	x := NewExec(m, spec.Epoch, mode, spec.Quantum, spec.Costs, spec.Trace)
	if spec.OnSync != nil {
		gate := m.Hooks.OnSync
		m.Hooks.OnSync = func(ev vm.SyncEvent) {
			gate(ev)
			spec.OnSync(ev)
		}
	}
	m.Hooks.OnMemAccess = spec.OnMemAccess
	if spec.Profile != nil {
		spec.Profile.Attach(m)
	}
	err := x.Run()
	return &RunResult{
		M:        m,
		Schedule: x.Uni.Log,
		Cycles:   x.Cost(),
		Injected: x.inj.Injected,
		Enforced: x.gate.Used(),
		EndHash:  x.EndHash,
	}, err
}

// IsDivergence reports whether err indicates the execution departed from
// the recording (as opposed to an internal failure).
func IsDivergence(err error) bool {
	return errors.Is(err, sched.ErrDiverged)
}
