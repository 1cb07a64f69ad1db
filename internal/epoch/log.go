package epoch

import (
	"doubleplay/internal/dplog"
	"doubleplay/internal/simos"
	"doubleplay/internal/trace"
	"doubleplay/internal/vm"
)

// Logger is the recording side of the injectors. It feeds a machine the
// inputs of a live simulated world — syscall results from its OS, signal
// deliveries from its script — and logs each one in the form InjectOS and
// InjectSignals deliver it again. OnSync logs the gated sync order a Gate
// enforces. With a trace recorder attached, every append also emits a
// "syscall", "signal" or "sync" instant on the logged thread's track.
type Logger struct {
	os  *simos.OS
	m   *vm.Machine
	tr  trace.Recorder
	pid int64
	ep  dplog.EpochLog // the inputs logged since the last Take
}

// NewLogger returns a logger of w's inputs that traces into tr under pid.
// As a machine's OS it logs syscalls only; Attach adds signal deliveries.
func NewLogger(w *simos.World, tr trace.Recorder, pid int64) *Logger {
	return &Logger{os: simos.NewOS(w), tr: tr, pid: pid}
}

// World returns the live world the logger draws inputs from.
func (l *Logger) World() *simos.World { return l.os.W }

// Attach makes l m's OS and the source of its signal deliveries.
func (l *Logger) Attach(m *vm.Machine) {
	l.m = m
	m.OS = l
	m.Hooks.PendingSignal = l.pendingSignal
}

// Syscall implements vm.SyscallHandler, logging every call that completes.
func (l *Logger) Syscall(m *vm.Machine, t *vm.Thread, num vm.Word, args [6]vm.Word) vm.SysResult {
	res := l.os.Syscall(m, t, num, args)
	if !res.Block && res.Fault == "" {
		l.ep.Syscalls = append(l.ep.Syscalls, dplog.SyscallRecord{
			Tid: t.ID, Num: num, Args: args, Ret: res.Ret, Writes: res.Writes,
		})
		if trace.Enabled(l.tr) {
			l.tr.Instant("syscall", m.Now, l.pid, int64(t.ID), map[string]any{"num": num})
		}
	}
	return res
}

// pendingSignal delivers the world's scripted signals, logging each with
// the exact retired-instruction position it interrupted.
func (l *Logger) pendingSignal(t *vm.Thread) (vm.Word, bool) {
	sig, ok := l.os.W.NextSignal(t.ID, l.m.Now)
	if ok {
		l.ep.Signals = append(l.ep.Signals, dplog.SignalRecord{Tid: t.ID, Retired: t.Retired, Sig: sig})
		if trace.Enabled(l.tr) {
			l.tr.Instant("signal", l.m.Now, l.pid, int64(t.ID),
				map[string]any{"sig": sig, "retired": t.Retired})
		}
	}
	return sig, ok
}

// OnSync logs a gated sync operation; install it as the machine's OnSync
// hook after Attach.
func (l *Logger) OnSync(ev vm.SyncEvent) {
	if !ev.Gated() {
		return
	}
	l.ep.SyncOrder = append(l.ep.SyncOrder, dplog.SyncRecord{Tid: ev.Tid, Kind: ev.Obj.Kind, ID: ev.Obj.ID})
	if trace.Enabled(l.tr) {
		l.tr.Instant("sync", l.m.Now, l.pid, int64(ev.Tid),
			map[string]any{"kind": ev.Obj.Kind.String(), "id": ev.Obj.ID})
	}
}

// Cost prices logging the inputs since the last Take: a flat append per
// record plus a fraction of each syscall's input data copied into the log
// buffer.
func (l *Logger) Cost(c *vm.CostModel) int64 {
	cost := int64(len(l.ep.SyncOrder)+len(l.ep.Signals)) * c.SyncLogEvent
	for i := range l.ep.Syscalls {
		cost += c.SysLogEvent
		for _, w := range l.ep.Syscalls[i].Writes {
			cost += int64(len(w.Data)) / 8
		}
	}
	return cost
}

// Take returns an epoch log holding the inputs logged since the last Take
// and starts a new one.
func (l *Logger) Take() *dplog.EpochLog {
	ep := l.ep
	l.ep = dplog.EpochLog{}
	return &ep
}
