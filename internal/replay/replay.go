// Package replay reproduces recorded executions. Because every epoch of
// the logged execution ran on a single simulated CPU, replaying it needs
// only the timeslice schedule and the recorded syscall results — and
// because epochs start from retained checkpoints, they can be replayed
// concurrently on real host cores (epoch-parallel replay), which is how
// DoublePlay makes replay as scalable as recording.
//
// There is one replay procedure, [Run]: a uniprocessor replay of each
// epoch, grouped into segments that each start from a state — program
// reset or a retained checkpoint — and run their epochs in order.
// Sequential, epoch-parallel and sparse replay differ only in the
// checkpoints they start from (Options.Boundaries). The package also
// owns the greedy makespan model that prices concurrent segments, and
// the boundary-hash checks that prove a replay reproduced the
// recording. A traced replay narrates each segment as a
// "replay.segment" span with its "replay.epoch" spans and per-timeslice
// detail nested inside (see docs/OBSERVABILITY.md).
package replay

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/profile"
	"doubleplay/internal/trace"
	"doubleplay/internal/vm"
)

// ErrCertViolated reports a certified epoch that failed to reproduce its
// recorded end state. Certified epochs were committed without the
// epoch-parallel verification pass on the strength of a race-free static
// certificate, so any failure here is not an ordinary replay divergence —
// it is a soundness bug in the certificate and must be treated as fatal.
var ErrCertViolated = errors.New("replay: certified epoch violated its race-freedom certificate")

// Result reports a completed replay.
type Result struct {
	// Cycles is the modelled completion time: the makespan of packing the
	// segments onto the modelled cores, which for a single segment is its
	// total serialized cycles.
	Cycles    int64
	FinalHash uint64
	Epochs    int
}

// Options configure [Run].
type Options struct {
	// Boundaries are retained epoch-start checkpoints, ordered by
	// Boundary.Index and starting at epoch 0; each starts a segment that
	// runs up to the next boundary's epoch. Nil means one segment from
	// program reset (sequential replay); one boundary per epoch is
	// epoch-parallel replay; a set thinned with [Thin] is sparse replay.
	// A trailing boundary at the end of the recording is ignored.
	Boundaries []*epoch.Boundary
	// CPUs is the number of modelled cores, and host workers, the
	// segments are packed onto; below 1 means 1.
	CPUs int
	// Costs is the cost model; nil means vm.DefaultCosts.
	Costs *vm.CostModel
	// Sink, when enabled, receives the replay's timeline.
	Sink trace.Recorder
	// Profile, when non-nil, accumulates the guest profile of the
	// replayed execution. Per-segment profiles merge over canonical stack
	// keys, so it is byte-identical to the record-time profile whatever
	// the segments are.
	Profile *profile.Profile
}

// Run replays src. Every epoch's start hash, end hash and injection
// counts are checked, and so is the recorded final hash. Segments run
// concurrently on host goroutines — their machines share pages
// copy-on-write — and a canceled ctx stops each of them at its next
// epoch. A nil ctx never cancels.
func Run(ctx context.Context, prog *vm.Program, src Source, opt Options) (*Result, error) {
	return run(ctx, prog, src, opt, nil)
}

// visitFunc observes a segment's machine before each of its epochs and
// once at its end: index is the epoch about to start (the segment's end
// index last), cycles the segment's cost so far, and hash the machine's
// verified state hash.
type visitFunc func(m *vm.Machine, index int, cycles int64, hash uint64)

// segment is a run of consecutive epochs [lo, hi) replayed in order from
// one starting state: a retained checkpoint, or program reset when start
// is nil.
type segment struct {
	start  *epoch.Boundary
	lo, hi int
}

// segments splits n epochs at the boundaries.
func segments(n int, bs []*epoch.Boundary) ([]segment, error) {
	if len(bs) == 0 || n == 0 {
		return []segment{{hi: n}}, nil
	}
	if bs[0].Index != 0 {
		return nil, fmt.Errorf("replay: boundaries must start at epoch 0")
	}
	var segs []segment
	for k, b := range bs {
		end := n
		if k+1 < len(bs) {
			end = bs[k+1].Index
		}
		if b.Index > end || end > n {
			return nil, fmt.Errorf("replay: boundary %d covers invalid range [%d,%d)", k, b.Index, end)
		}
		if b.Index < end {
			segs = append(segs, segment{start: b, lo: b.Index, hi: end})
		}
	}
	return segs, nil
}

// run is Run with an optional visitor (see visitFunc), which requires a
// single segment because segments run concurrently.
func run(ctx context.Context, prog *vm.Program, src Source, opt Options, visit visitFunc) (*Result, error) {
	if opt.Costs == nil {
		opt.Costs = vm.DefaultCosts()
	}
	cpus := max(opt.CPUs, 1)
	n := src.NumEpochs()
	segs, err := segments(n, opt.Boundaries)
	if err != nil {
		return nil, err
	}

	durs := make([]int64, len(segs))
	ends := make([]uint64, len(segs))
	errs := make([]error, len(segs))
	bufs := make([]*trace.Sink, len(segs))
	profs := make([]*profile.Profile, len(segs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, cpus)
	for i, sg := range segs {
		if trace.Enabled(opt.Sink) {
			bufs[i] = trace.NewSink()
		}
		wg.Add(1)
		go func(i int, sg segment) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// The dp.phase label attributes host CPU profiles of a
			// replaying process to the replay phase.
			profile.WithPhase(ctx, "replay", func() {
				durs[i], ends[i], profs[i], errs[i] = runSegment(ctx, prog, src, sg, opt, bufs[i], visit)
			})
		}(i, sg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	final := ends[len(ends)-1]
	if want := src.FinalHash(); final != want {
		return nil, fmt.Errorf("replay: final hash %016x != recorded %016x", final, want)
	}
	if opt.Profile != nil {
		for _, p := range profs {
			opt.Profile.Merge(p)
		}
	}

	slots, wall := pack(durs, cpus)
	if trace.Enabled(opt.Sink) {
		pid := opt.Sink.AllocPid(fmt.Sprintf("replay %s (%d segments)", src.Program(), len(segs)))
		for c := 0; c < min(cpus, len(segs)); c++ {
			opt.Sink.NameThread(pid, int64(c), fmt.Sprintf("core %d", c))
		}
		for i, sg := range segs {
			s := slots[i]
			opt.Sink.Span("replay.segment", s.start, s.fin-s.start, pid, int64(s.core),
				map[string]any{"start_epoch": sg.lo, "epochs": sg.hi - sg.lo})
			opt.Sink.Splice(bufs[i], s.start, pid, int64(s.core))
		}
	}
	return &Result{Cycles: wall, FinalHash: final, Epochs: n}, nil
}

// runSegment replays one segment's epochs in order, checking each
// epoch's start hash before it runs. It returns the segment's modelled
// cost, its verified end state hash, and its guest profile when
// opt.Profile asks for one. A non-nil buf receives the segment's
// "replay.epoch" spans in segment-local time.
func runSegment(ctx context.Context, prog *vm.Program, src Source, sg segment, opt Options, buf *trace.Sink, visit visitFunc) (int64, uint64, *profile.Profile, error) {
	var m *vm.Machine
	var h uint64
	if sg.start == nil {
		m = vm.NewMachine(prog, nil, opt.Costs)
		h = m.StateHash()
	} else {
		m = sg.start.CP.Restore(prog, nil, opt.Costs)
		h = sg.start.Hash
	}
	var gp *profile.Profiler
	if opt.Profile != nil {
		gp = profile.New(prog)
		gp.Attach(m)
	}
	var cycles int64
	for pos := sg.lo; pos < sg.hi; pos++ {
		ep, err := src.EpochAt(pos)
		if err != nil {
			return 0, 0, nil, err
		}
		if err := ctxErr(ctx, ep.Index); err != nil {
			return 0, 0, nil, err
		}
		if h != ep.StartHash {
			return 0, 0, nil, fmt.Errorf("replay: epoch %d: start state hash %016x != recorded %016x",
				ep.Index, h, ep.StartHash)
		}
		if visit != nil {
			visit(m, ep.Index, cycles, h)
		}
		var epb *trace.Sink
		if buf.Enabled() {
			epb = trace.NewSink()
		}
		c, err := runEpoch(m, ep, opt.Costs, src.Quantum(), epb)
		if err != nil {
			return 0, 0, nil, err
		}
		if buf.Enabled() {
			buf.Span("replay.epoch", cycles, c, 0, 0, map[string]any{
				"epoch": ep.Index, "slices": len(ep.Schedule), "syscalls": len(ep.Syscalls),
			})
			buf.Splice(epb, cycles, 0, 0)
		}
		cycles += c
		h = ep.EndHash // runEpoch verified the machine reached it
	}
	if visit != nil {
		visit(m, sg.hi, cycles, h)
	}
	var p *profile.Profile
	if gp != nil {
		p = gp.Snapshot()
	}
	return cycles, h, p, nil
}

// packSlot is one duration's placement in the greedy packing.
type packSlot struct {
	core       int
	start, fin int64
}

// pack places durations greedily onto cpus cores in index order, returning
// each placement and the makespan.
func pack(durs []int64, cpus int) ([]packSlot, int64) {
	free := make([]int64, cpus)
	slots := make([]packSlot, len(durs))
	var wall int64
	for i, d := range durs {
		c := 0
		for j := 1; j < cpus; j++ {
			if free[j] < free[c] {
				c = j
			}
		}
		slots[i] = packSlot{core: c, start: free[c], fin: free[c] + d}
		free[c] += d
		if free[c] > wall {
			wall = free[c]
		}
	}
	return slots, wall
}

// runEpoch replays one epoch on m, which holds the epoch's start state,
// verifies it, and returns its modelled cost.
func runEpoch(m *vm.Machine, ep *dplog.EpochLog, costs *vm.CostModel, quantum int64, buf *trace.Sink) (int64, error) {
	x := epoch.NewExec(m, ep, epoch.Replay, quantum, costs, buf)
	if err := finish(x, x.Run()); err != nil {
		return 0, err
	}
	return x.Cost(), nil
}

// finish turns the outcome err of x into the epoch's replay verdict: a
// completed run must also have reached the recorded end hash. The
// certificate of a certified epoch asserts that any sync-order-respecting
// execution reaches the recorded end state, so its failures wrap
// ErrCertViolated rather than reporting a divergence.
func finish(x *epoch.Exec, err error) error {
	ep := x.Epoch
	if err == nil && x.EndHash != ep.EndHash {
		err = fmt.Errorf("end state hash %016x != recorded %016x", x.EndHash, ep.EndHash)
	}
	switch {
	case err == nil:
		return nil
	case ep.Certified:
		return fmt.Errorf("%w: epoch %d: %v", ErrCertViolated, ep.Index, err)
	default:
		return fmt.Errorf("replay: epoch %d: %w", ep.Index, err)
	}
}

// RunOneEpoch replays one epoch on m, which must hold the epoch's start
// state (for example a restored boundary checkpoint), verifies its
// recorded end hash, and returns its modelled cost. Combined with
// dplog.Reader.Seek this is O(epoch) work for O(epoch) data; the debug
// session uses it to run whole epochs at full speed and only falls back
// to instruction stepping (the Stepper) inside the epoch of interest.
func RunOneEpoch(m *vm.Machine, ep *dplog.EpochLog, quantum int64, costs *vm.CostModel) (int64, error) {
	if costs == nil {
		costs = vm.DefaultCosts()
	}
	return runEpoch(m, ep, costs, quantum, nil)
}

// ctxErr reports a context's error once it is done; a nil context never
// cancels. Replay checks it at epoch boundaries, mirroring the recorder's
// cancellation points (core.Options.Context).
func ctxErr(ctx context.Context, epoch int) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("replay: canceled at epoch %d: %w", epoch, err)
	}
	return nil
}

// SequentialReader is Run from program reset over a seekable log: each
// section is decoded right before it is replayed, so peak memory holds
// one epoch's log instead of the whole recording.
func SequentialReader(ctx context.Context, prog *vm.Program, rd *dplog.Reader, costs *vm.CostModel, sink trace.Recorder) (*Result, error) {
	return Run(ctx, prog, FromReader(rd), Options{Costs: costs, Sink: sink})
}

// Parallel is epoch-parallel Run: boundaries must hold one checkpoint per
// epoch plus the final state, as core.Result.Boundaries and
// [CheckpointsFrom] produce.
func Parallel(prog *vm.Program, rec *dplog.Recording, boundaries []*epoch.Boundary, cpus int, costs *vm.CostModel, sink trace.Recorder) (*Result, error) {
	if len(boundaries) != len(rec.Epochs)+1 {
		return nil, fmt.Errorf("replay: %d boundaries for %d epochs", len(boundaries), len(rec.Epochs))
	}
	return Run(context.TODO(), prog, FromRecording(rec), Options{Boundaries: boundaries, CPUs: cpus, Costs: costs, Sink: sink})
}

// CheckpointsFrom reconstructs the epoch-start boundaries of a recording
// with one sequential replay that captures a machine checkpoint at each
// epoch start. It returns NumEpochs()+1 boundaries (one per epoch start
// plus the final state), so the result is valid Options.Boundaries for
// epoch-parallel replay and, thinned with [Thin], sparse replay.
//
// This is what lets a recording artifact loaded from disk be replayed in
// parallel: the original recording process held the checkpoints in
// memory, but a stored dplog carries only the logs, and one sequential
// pass rebuilds the rest. The boundaries' World is nil — replay injects
// recorded syscall results and never consults a simulated OS.
func CheckpointsFrom(ctx context.Context, prog *vm.Program, src Source, costs *vm.CostModel) ([]*epoch.Boundary, error) {
	var out []*epoch.Boundary
	_, err := run(ctx, prog, src, Options{Costs: costs}, func(m *vm.Machine, index int, cycles int64, hash uint64) {
		out = append(out, &epoch.Boundary{
			Index: index, Cycle: cycles, CP: m.Checkpoint(), Hash: hash, MappedPages: m.Mem.PageCount(),
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Thin returns every stride-th boundary, always keeping the first and
// last — the same thinning core.Result.ThinBoundaries applies to live
// checkpoints, usable on the set [CheckpointsFrom] reconstructs.
func Thin(bs []*epoch.Boundary, stride int) []*epoch.Boundary {
	if stride <= 1 {
		return bs
	}
	var out []*epoch.Boundary
	for i, b := range bs {
		if i%stride == 0 || i == len(bs)-1 {
			out = append(out, b)
		}
	}
	return out
}
