// Package core implements DoublePlay's primary contribution: uniparallel
// recording. A thread-parallel execution of the guest runs across multiple
// simulated CPUs generating epoch checkpoints, while an epoch-parallel
// execution re-runs each epoch with all threads timesliced on one CPU,
// constrained by the recorded synchronisation order and fed the recorded
// syscall results. The epoch-parallel execution is the one that is logged
// — its log is just the timeslice schedule plus syscalls — and the one that
// replay reproduces. When a data race makes the two executions disagree at
// an epoch boundary, forward recovery adopts the epoch-parallel state as
// the truth and resumes the thread-parallel run from it.
//
// [Record] takes every epoch through three stages. produce runs the epoch
// thread-parallel, charges its logging and checkpoint costs, and captures
// its end boundary and input log. verify runs the epoch-parallel execution
// through internal/epoch's executor — the same one replay uses — or skips
// it under a race-free certificate (certify.go), and returns a verdict:
// verified, adopted state, re-run epoch, or skipped. Apart from feeding
// the race detector, it changes no recorder state. commit is the one path for every verdict: it logs the epoch,
// places its verification in the pipeline timing model ([Options.SpareCPUs],
// or the adaptive spare-core controller behind [Options.Adaptive] — see
// adaptive.go), grows or resets the epoch length, feeds the controller,
// and after a divergence resumes the thread-parallel run from the adopted
// boundary. When [Options.Trace] or [Options.Metrics] is set, the recorder
// additionally narrates the run — epoch/verify/commit spans, checkpoint
// and divergence events, log-append instants — without perturbing a single
// simulated cycle (see internal/trace and docs/OBSERVABILITY.md).
package core

import (
	"context"
	"errors"
	"fmt"

	"doubleplay/internal/analyze"
	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/profile"
	"doubleplay/internal/race"
	"doubleplay/internal/replay"
	"doubleplay/internal/sched"
	"doubleplay/internal/simos"
	"doubleplay/internal/trace"
	"doubleplay/internal/vm"
)

// DefaultEpochCycles is the default epoch length in simulated cycles,
// chosen so the evaluation workloads span tens of epochs — the regime the
// paper's steady-state pipeline numbers describe.
const DefaultEpochCycles = 25_000

// Options configure a recording run.
type Options struct {
	// RecordCPUs is the number of cores the thread-parallel execution uses;
	// it defaults to the guest's worker count + 1 when Workers is set, or 2.
	RecordCPUs int

	// SpareCPUs is the number of additional cores available to the
	// epoch-parallel pipeline. Zero selects the "utilized" configuration:
	// both executions time-share the record CPUs. With Adaptive set it is
	// the controller's starting point, clamped into
	// [AdaptiveMinSpares, AdaptiveMaxSpares].
	SpareCPUs int

	// Adaptive replaces the fixed SpareCPUs pipeline with a feedback
	// controller that grows and shrinks the active slot count at epoch
	// boundaries from the live commit-lag signal (see adaptive.go). The
	// controller only consumes simulated quantities and only acts at
	// epoch boundaries, so adaptive recordings stay deterministic and
	// replay bit-identically from the log alone.
	Adaptive bool

	// AdaptiveMinSpares and AdaptiveMaxSpares bound the controller.
	// Defaults: min 1; max SpareCPUs (or min, when larger).
	AdaptiveMinSpares int
	AdaptiveMaxSpares int

	// Workers documents the guest's worker thread count for reporting.
	Workers int

	// EpochCycles is the epoch length in simulated cycles.
	EpochCycles int64

	// EpochGrowth, when > 1, grows the epoch length geometrically after
	// every verified epoch, up to EpochCyclesMax. Short early epochs bound
	// divergence-detection latency while the program is young; long steady
	// -state epochs amortise checkpoint costs. A divergence resets the
	// length to EpochCycles.
	EpochGrowth    float64
	EpochCyclesMax int64

	// Quantum is the uniprocessor timeslice in retired instructions.
	Quantum int64

	// Seed drives all simulated timing nondeterminism.
	Seed int64

	// Costs overrides the cost model; nil selects vm.DefaultCosts.
	Costs *vm.CostModel

	// DisableSyncEnforcement turns off the sync-order gate during
	// epoch-parallel runs (ablation: every lock race becomes a divergence).
	DisableSyncEnforcement bool

	// DetectRaces attaches a happens-before detector to the epoch-parallel
	// executions. Races are reported in Result.Races. The detector observes
	// the verified (logged) execution stream; epochs replaced by re-run
	// recovery are not instrumented.
	DetectRaces bool

	// VerifyPolicy selects whether the epoch-parallel verification pass may
	// be skipped on the strength of a static race-freedom certificate. See
	// the VerifyCertified docs for the exact soundness and fallback rules.
	// The zero value, VerifyAlways, is the paper's behaviour.
	VerifyPolicy VerifyPolicy

	// MaxEpochs bounds the recording as a safety net.
	MaxEpochs int

	// Context, when non-nil, cancels the recording cooperatively: the
	// control loop checks it at every epoch boundary and returns
	// [ErrCanceled] (wrapping ctx.Err()) once it is done. Epoch
	// boundaries are the natural cancellation points — simulated state is
	// never left half-committed — so cancellation latency is bounded by
	// one epoch's host execution time.
	Context context.Context

	// Trace, when set, receives the recording's event timeline:
	// epoch/verify/commit spans, checkpoint create/restore, divergences and
	// recoveries, per-append syscall/sync/signal instants, and pipeline
	// slot occupancy. Both the buffered trace.Sink and the incremental
	// trace.StreamSink satisfy the interface. Tracing is observational
	// only — it never changes any simulated clock, so all Stats are
	// bit-identical with and without it. docs/OBSERVABILITY.md documents
	// every event.
	Trace trace.Recorder

	// Metrics, when non-nil, aggregates counters, gauges, and histograms
	// about the recording, labelled by workload (and epoch for per-epoch
	// series).
	Metrics *trace.Registry

	// Profile, when non-nil, accumulates a deterministic guest profile of
	// the logged execution: retired cycles attributed to guest call stacks,
	// derived purely from the retired-instruction streams the log captures.
	// Replaying the recording with any replay strategy regenerates the
	// exact same profile (see internal/profile). Like Trace, profiling is
	// observational only: no simulated quantity changes.
	Profile *profile.Profile
}

func (o Options) withDefaults() Options {
	if o.RecordCPUs <= 0 {
		if o.Workers > 0 {
			o.RecordCPUs = o.Workers + 1
		} else {
			o.RecordCPUs = 2
		}
	}
	if o.EpochCycles <= 0 {
		o.EpochCycles = DefaultEpochCycles
	}
	if o.EpochGrowth < 1 {
		o.EpochGrowth = 1
	}
	if o.EpochCyclesMax <= 0 {
		o.EpochCyclesMax = 16 * o.EpochCycles
	}
	if o.Quantum <= 0 {
		o.Quantum = sched.DefaultQuantum
	}
	if o.Costs == nil {
		o.Costs = vm.DefaultCosts()
	}
	if o.MaxEpochs <= 0 {
		o.MaxEpochs = 1 << 16
	}
	if o.Adaptive {
		if o.AdaptiveMinSpares <= 0 {
			o.AdaptiveMinSpares = 1
		}
		if o.AdaptiveMaxSpares <= 0 {
			o.AdaptiveMaxSpares = o.SpareCPUs
		}
		if o.AdaptiveMaxSpares < o.AdaptiveMinSpares {
			o.AdaptiveMaxSpares = o.AdaptiveMinSpares
		}
	}
	return o
}

// Stats aggregates everything the evaluation reports about one recording.
type Stats struct {
	Epochs      int
	Retired     int64 // guest instructions retired by the thread-parallel run
	SyncEvents  int   // gated sync operations logged
	Syscalls    int   // syscalls logged
	Signals     int   // asynchronous deliveries logged
	Slices      int   // timeslices in the replay schedule
	GuestFaults int

	Divergences     int // epochs whose executions disagreed
	HashRecoveries  int // recovered by adopting the epoch-parallel state
	RerunRecoveries int // recovered by re-running the epoch uniprocessor
	SquashedCycles  int64

	// SpareGrows and SpareShrinks count the adaptive controller's
	// decisions; ActiveSpares is the slot count at completion (equal to
	// SpareCPUs on fixed-spares runs, 0 in the utilized configuration).
	SpareGrows   int
	SpareShrinks int
	ActiveSpares int

	CheckpointPages int64 // Σ mapped pages over all checkpoints
	CowPages        int64 // pages copied by checkpoint copy-on-write

	// ThreadParallelCycles is when the thread-parallel run finished;
	// CompletionCycles is when the last epoch was verified and logged —
	// the time at which recording is complete and output commits.
	ThreadParallelCycles int64
	CompletionCycles     int64
	EpochSerialCycles    int64 // Σ epoch-parallel execution durations

	ReplayBytes int // encoded size of the replay log
	FullBytes   int // including the transient sync-order log
	FileBytes   int // actual on-disk dplog v6 size (sectioned, compressed)

	// VerifySkipped counts epochs committed directly from the logged
	// thread-parallel execution under VerifyCertified. Either zero or
	// equal to Epochs: the skip decision is made once, before recording.
	VerifySkipped int

	// CertStatus is the static certificate's classification when
	// VerifyCertified was requested ("race-free", "possibly-racy",
	// "incomplete"); empty under VerifyAlways.
	CertStatus string

	// VerifyFallback explains why a VerifyCertified run verified every
	// epoch anyway; empty when the skip was taken or never requested.
	VerifyFallback string
}

// Result is a completed recording.
type Result struct {
	Recording  *dplog.Recording
	Boundaries []*epoch.Boundary // epoch-start checkpoints, for parallel replay
	Stats      Stats
	FinalHash  uint64
	OutputHash uint64

	// Races holds the happens-before reports when Options.DetectRaces was
	// set.
	Races []race.Report

	// Divergences details every epoch whose executions disagreed.
	Divergences []DivergenceInfo

	// Certificate is the static race-freedom certificate consulted when
	// Options.VerifyPolicy was VerifyCertified; nil under VerifyAlways.
	Certificate *analyze.Certificate
}

// DivergenceInfo is the forensic record of one divergence.
type DivergenceInfo struct {
	Epoch int
	// Kind is "state" (end hashes differed; epoch-parallel state adopted)
	// or "input" (syscall/sync mismatch; epoch re-executed).
	Kind string
	// Reason carries the detector's message for input divergences.
	Reason string
	// Pages lists the memory pages on which the two executions disagreed
	// (state divergences only) — the hint a developer chases with the race
	// detector.
	Pages []vm.Word
}

// ReleaseCheckpoints drops the retained epoch-start checkpoints' hold on
// shared memory pages. Call it when parallel replay is no longer needed;
// the Recording itself remains valid for sequential replay.
func (r *Result) ReleaseCheckpoints() {
	for _, b := range r.Boundaries {
		b.CP.Release()
	}
	r.Boundaries = nil
}

// ThinBoundaries returns every stride-th boundary (always including the
// first and last), for memory-bounded sparse replay (replay.Options
// Boundaries). The returned boundaries keep their epoch indices.
func (r *Result) ThinBoundaries(stride int) []*epoch.Boundary {
	return replay.Thin(r.Boundaries, stride)
}

// pipeline models when each epoch's epoch-parallel execution runs and
// finishes, given the spare cores available. With spare cores it is an
// event-driven machine: an epoch starts when its start checkpoint exists
// and a spare core frees up, and cannot commit before its end checkpoint
// exists. With no spare cores ("utilized"), epoch work displaces
// thread-parallel work on the same cores.
//
// Slots beyond active are parked: they take no new work, but work already
// scheduled on them still finishes. The adaptive controller parks and
// unparks slots at epoch boundaries via setActive; fixed-spares pipelines
// keep active == len(spares) for the whole run.
type pipeline struct {
	spares     []int64
	active     int
	recordCPUs int
	busy       int64
	lastFinish int64
}

func newPipeline(spare, recordCPUs int) *pipeline {
	p := &pipeline{recordCPUs: recordCPUs}
	if spare > 0 {
		p.spares = make([]int64, spare)
		p.active = spare
	}
	return p
}

// setActive parks or unparks slots at simulated cycle now. An unparked
// slot models a core acquired at the decision point: it cannot have been
// free before now, so its free-time is raised to now.
func (p *pipeline) setActive(n int, now int64) {
	if n < 1 {
		n = 1
	}
	if n > len(p.spares) {
		n = len(p.spares)
	}
	for i := p.active; i < n; i++ {
		if p.spares[i] < now {
			p.spares[i] = now
		}
	}
	p.active = n
}

// placement reports where the pipeline ran one epoch's verification: on
// which spare core (slot, -1 in the utilized configuration), over which
// simulated interval, and whether it had to wait for a core — the
// occupancy-saturation signal the adaptive controller consumes. finish is
// the epoch's commit point.
type placement struct {
	slot          int
	start, finish int64
	waited        bool
}

func (p *pipeline) schedule(startReady, checkReady, dur int64) placement {
	if p.active > 0 {
		c := 0
		for i := 1; i < p.active; i++ {
			if p.spares[i] < p.spares[c] {
				c = i
			}
		}
		start := p.spares[c]
		waited := start > startReady
		if start < startReady {
			start = startReady
		}
		fin := start + dur
		if fin < checkReady {
			fin = checkReady
		}
		p.spares[c] = fin
		if fin > p.lastFinish {
			p.lastFinish = fin
		}
		return placement{slot: c, start: start, finish: fin, waited: waited}
	}
	start := checkReady + p.busy/int64(p.recordCPUs)
	p.busy += dur
	fin := checkReady + p.busy/int64(p.recordCPUs)
	if fin > p.lastFinish {
		p.lastFinish = fin
	}
	return placement{slot: -1, start: start, finish: fin}
}

func (p *pipeline) completion(tpFinish int64) int64 {
	fin := tpFinish
	if len(p.spares) == 0 {
		fin += p.busy / int64(p.recordCPUs)
	}
	if p.lastFinish > fin {
		fin = p.lastFinish
	}
	return fin
}

// Record performs a uniparallel recording of prog against world. The world
// is mutated; pass a freshly built one.
//
// Every epoch passes through three stages: produce runs it thread-parallel
// and logs its inputs, verify decides its outcome without touching the
// recorder's state, and commit applies that outcome — the one path every
// epoch takes into the log, the pipeline model and the controller.
func Record(prog *vm.Program, world *simos.World, opt Options) (*Result, error) {
	r := newRecorder(prog, world, opt.withDefaults())
	for !r.m.Done() {
		if ctx := r.opt.Context; ctx != nil && ctx.Err() != nil {
			return nil, fmt.Errorf("%w after %d epochs: %w", ErrCanceled, len(r.rec.Epochs), ctx.Err())
		}
		if len(r.boundaries) > r.opt.MaxEpochs {
			return nil, fmt.Errorf("%w: exceeded %d; runaway guest?", ErrTooManyEpochs, r.opt.MaxEpochs)
		}
		p, err := r.produce()
		if err != nil {
			return nil, err
		}
		o, err := r.verify(p)
		if err != nil {
			return nil, err
		}
		r.commit(p, o)
	}
	return r.result(), nil
}

// recorder is the state of one Record call.
type recorder struct {
	prog *vm.Program
	opt  Options
	tr   trace.Recorder // never nil: a disabled sink stands in for none
	reg  *trace.Registry
	wl   string // workload label for metrics

	cert      *analyze.Certificate
	certified bool // every epoch commits without the epoch-parallel pass
	ctl       *Controller
	pl        *pipeline
	det       *race.Detector
	liveProf  *profile.Profiler // certified runs profile the thread-parallel run

	pidRec, pidGuest int64

	// The live thread-parallel execution and the logger of its inputs.
	m   *vm.Machine
	par *sched.Parallel
	lg  *epoch.Logger

	boundaries []*epoch.Boundary
	rec        *dplog.Recording
	stats      Stats
	divs       []DivergenceInfo
	epochLen   int64
}

func newRecorder(prog *vm.Program, world *simos.World, opt Options) *recorder {
	r := &recorder{
		prog: prog, opt: opt, tr: opt.Trace, reg: opt.Metrics, epochLen: opt.EpochCycles,
		rec: &dplog.Recording{Program: prog.Name, Workers: opt.Workers, Seed: opt.Seed, Quantum: opt.Quantum},
	}
	if r.tr == nil {
		r.tr = (*trace.Sink)(nil) // typed-nil: its methods are nil-safe no-ops
	}
	if r.reg != nil {
		r.wl = trace.Label("workload", prog.Name)
	}
	r.cert, r.certified, r.stats.VerifyFallback = certify(prog, opt)
	if r.cert != nil {
		r.stats.CertStatus = string(r.cert.Status)
	}
	// The adaptive controller replaces the fixed slot count: SpareCPUs
	// becomes the starting point, and the pipeline gets MaxSpares slots of
	// which only the controller's active count take work. A certified run
	// has no verification pipeline to pace, so the controller stays off.
	slots := opt.SpareCPUs
	if opt.Adaptive && !r.certified {
		r.ctl = NewController(opt.AdaptiveMinSpares, opt.AdaptiveMaxSpares, opt.SpareCPUs)
		slots = opt.AdaptiveMaxSpares
	}
	r.pl = newPipeline(slots, opt.RecordCPUs)
	if r.ctl != nil {
		r.pl.setActive(r.ctl.Active(), 0)
	}
	if opt.DetectRaces {
		r.det = race.NewDetector(0)
	}
	r.traceStart()

	m := vm.NewMachine(prog, nil, opt.Costs)
	// Certified recordings log the thread-parallel execution itself, so the
	// guest profile is gathered there; otherwise it comes from the
	// epoch-parallel runs — the execution the log actually describes and
	// replay reproduces.
	if opt.Profile != nil && r.certified {
		r.liveProf = profile.New(prog)
		r.liveProf.Attach(m)
	}
	r.run(m, world, opt.Seed, 0)
	r.boundaries = []*epoch.Boundary{epoch.Capture(0, 0, m, world)}
	if r.tr.Enabled() {
		r.tr.Instant("checkpoint.create", 0, r.pidRec, 0,
			map[string]any{"epoch": 0, "pages": r.boundaries[0].MappedPages})
	}
	return r
}

// traceStart names the record process's tracks and notes the run's
// configuration.
func (r *recorder) traceStart() {
	tr := r.tr
	if !tr.Enabled() {
		return
	}
	r.pidRec = tr.AllocPid("record " + r.prog.Name)
	r.pidGuest = tr.AllocPid("guest " + r.prog.Name + " (thread-parallel)")
	tr.NameThread(r.pidRec, 0, "epochs + recovery")
	if len(r.pl.spares) > 0 {
		for s := range r.pl.spares {
			tr.NameThread(r.pidRec, int64(1+s), fmt.Sprintf("pipeline slot %d", s))
		}
	} else {
		tr.NameThread(r.pidRec, 1, "epoch work (shared cores)")
	}
	if r.ctl != nil {
		tr.Instant("ctl.enable", 0, r.pidRec, 0, map[string]any{
			"min": r.ctl.Min, "max": r.ctl.Max, "active": r.ctl.Active(),
		})
		tr.Counter("ctl.active", 0, r.pidRec, int64(r.ctl.Active()))
	}
	if r.cert != nil {
		tr.Instant("certify", 0, r.pidRec, 0, map[string]any{
			"status": string(r.cert.Status), "skip": r.certified, "fallback": r.stats.VerifyFallback,
		})
	}
}

// run makes m, whose inputs come from world w, the live thread-parallel
// execution: scheduled on the record CPUs with the given seed, its clocks
// starting at clock.
func (r *recorder) run(m *vm.Machine, w *simos.World, seed, clock int64) {
	r.lg = epoch.NewLogger(w, r.tr, r.pidGuest)
	r.lg.Attach(m)
	m.Hooks.OnSync = r.lg.OnSync
	r.m = m
	r.par = sched.NewParallel(m, r.opt.RecordCPUs, seed)
	r.par.Trace = r.tr
	r.par.TracePid = r.pidGuest
	r.par.SetBaseClock(clock)
}

// produced is one epoch of the thread-parallel execution: its input log
// and the checkpoints that bound it.
type produced struct {
	ep          *dplog.EpochLog
	start, end  *epoch.Boundary
	mapped, cow int64 // the end checkpoint's pages, and pages copied on write this epoch
}

// produce runs the next epoch thread-parallel, charges what recording it
// cost, and captures its end boundary.
func (r *recorder) produce() (*produced, error) {
	costs := r.opt.Costs
	start := r.boundaries[len(r.boundaries)-1]
	var err error
	profile.WithPhase(r.opt.Context, "record", func() { err = r.par.RunUntil(start.Cycle + r.epochLen) })
	if err != nil {
		return nil, fmt.Errorf("core: thread-parallel run failed: %w", err)
	}

	// Charge the record-time costs this epoch accrued: log appends,
	// copy-on-write traffic behind the last checkpoint, and the checkpoint
	// we are about to take.
	p := &produced{start: start, cow: r.m.Mem.Stats().PagesCopied}
	r.m.Mem.ResetStats()
	p.mapped = int64(r.m.Mem.PageCount())
	r.par.AddCost(r.lg.Cost(costs) +
		costs.CheckpointBase + costs.CheckpointPage*p.mapped +
		p.cow*costs.CowCopyPage)
	r.stats.CheckpointPages += p.mapped
	r.stats.CowPages += p.cow

	p.end = epoch.Capture(len(r.boundaries), r.par.Now(), r.m, r.lg.World())
	p.ep = r.lg.Take()
	p.ep.Index, p.ep.Targets, p.ep.StartHash = start.Index, p.end.Targets(), start.Hash
	r.stats.SyncEvents += len(p.ep.SyncOrder)
	r.stats.Syscalls += len(p.ep.Syscalls)
	r.stats.Signals += len(p.ep.Signals)

	if tr := r.tr; tr.Enabled() {
		// The thread-parallel execution of the epoch, and the log-append
		// running totals at its boundary. The epoch span count always
		// equals Stats.Epochs: every epoch is produced once.
		tr.Span("epoch", start.Cycle, p.end.Cycle-start.Cycle, r.pidRec, 0, map[string]any{
			"epoch": p.ep.Index, "syscalls": len(p.ep.Syscalls), "syncops": len(p.ep.SyncOrder),
			"signals": len(p.ep.Signals),
		})
		tr.Instant("checkpoint.create", p.end.Cycle, r.pidRec, 0,
			map[string]any{"epoch": p.end.Index, "pages": p.mapped, "cow_pages": p.cow})
		tr.Counter("log.syscalls", p.end.Cycle, r.pidRec, int64(r.stats.Syscalls))
		tr.Counter("log.syncops", p.end.Cycle, r.pidRec, int64(r.stats.SyncEvents))
		tr.Counter("log.signals", p.end.Cycle, r.pidRec, int64(r.stats.Signals))
		tr.Counter("mem.pages", p.end.Cycle, r.pidRec, p.mapped)
	}
	return p, nil
}

// verdict is how verification settled an epoch.
type verdict uint8

const (
	verified verdict = iota // the epoch-parallel run reached the boundary state
	adopted                 // a data race: it reached another state, adopted as the truth
	rerun                   // it departed before the boundary; the epoch was re-executed
	skipped                 // certified: no epoch-parallel run at all
)

// outcome is verify's decision for one produced epoch.
type outcome struct {
	verdict
	ep   *dplog.EpochLog  // the epoch as logged
	end  *epoch.Boundary  // the boundary the log ends at; its Cycle is set at commit when it replaces the produced one
	dur  int64            // the epoch-parallel run plus the boundary comparison
	re   int64            // the re-execution's cycles, after an input divergence
	prof *profile.Profile // the guest profile of the logged execution
	div  *DivergenceInfo

	buf, reBuf *trace.Sink // epoch-local timeslices of the two runs
}

// verify runs the produced epoch's epoch-parallel execution and compares
// it with the thread-parallel one; after an input divergence it also
// re-executes the epoch (rerun). Under a race-free certificate it skips
// the run. It settles only the produced epoch and its outcome: apart from
// feeding the race detector, recorder state is commit's to change.
func (r *recorder) verify(p *produced) (*outcome, error) {
	o := &outcome{ep: p.ep, end: p.end}
	p.ep.CommitHash = p.end.World.OutputHash()
	if r.certified {
		// The certificate proves every sync-order-respecting execution
		// reaches this boundary state, so the logged thread-parallel
		// execution IS the verified execution: no epoch-parallel pass, no
		// comparison, no pipeline occupancy. Replay free-runs the epoch
		// under the SyncOrder gate, where any mismatch is a soundness bug
		// (replay.ErrCertViolated), never a divergence.
		o.verdict = skipped
		p.ep.EndHash = p.end.Hash
		p.ep.Certified = true
		return o, nil
	}

	// The epoch-parallel execution, constrained and injected. With
	// tracing on, its timeslices accumulate in a buffer with epoch-local
	// timestamps, spliced at commit once the pipeline places the epoch.
	if r.tr.Enabled() {
		o.buf = trace.NewSink()
	}
	spec := epoch.RunSpec{
		Prog:               r.prog,
		Start:              p.start,
		Epoch:              p.ep,
		Quantum:            r.opt.Quantum,
		Costs:              r.opt.Costs,
		DisableEnforcement: r.opt.DisableSyncEnforcement,
		Trace:              o.buf,
	}
	if r.det != nil {
		spec.OnSync = r.det.OnSync
		spec.OnMemAccess = r.det.OnMemAccess
	}
	var prof *profile.Profiler
	if r.opt.Profile != nil {
		prof = profile.New(r.prog)
		spec.Profile = prof
	}
	var res *epoch.RunResult
	var err error
	profile.WithPhase(r.opt.Context, "verify", func() { res, err = epoch.Run(spec) })
	o.dur = res.Cycles + r.opt.Costs.ComparePage*p.mapped

	switch {
	case err == nil && res.EndHash == p.end.Hash:
		o.verdict = verified
	case err == nil:
		// A data race made the epoch-parallel run reach a different — but
		// equally valid — state. Both runs consumed identical inputs
		// (injection verified that), so the world snapshot at the boundary
		// is still correct; only the architectural state is replaced.
		o.verdict = adopted
		o.div = &DivergenceInfo{Epoch: p.ep.Index, Kind: "state",
			Pages: res.M.Mem.DiffPages(p.end.CP.MemSnap.Restore())}
		o.end = &epoch.Boundary{
			Index:       p.end.Index,
			CP:          res.M.Checkpoint(),
			World:       p.end.World,
			Hash:        res.EndHash,
			MappedPages: res.M.Mem.PageCount(),
		}
	case epoch.IsDivergence(err):
		o.div = &DivergenceInfo{Epoch: p.ep.Index, Kind: "input", Reason: err.Error()}
		return o, r.rerun(p, o)
	default:
		return nil, fmt.Errorf("core: epoch %d verification failed: %w", p.ep.Index, err)
	}
	// The epoch-parallel run is the one the log describes, so its schedule
	// and profile stand even when it diverged from the thread-parallel
	// states.
	p.ep.EndHash = o.end.Hash
	p.ep.Schedule = res.Schedule
	if prof != nil {
		o.prof = prof.Snapshot()
	}
	return o, nil
}

// rerun settles an input divergence: the epoch-parallel run departed
// before the boundary (syscall or sync-order mismatch). Roll the world
// back to the epoch start — the simulator analogue of the paper's
// buffered-input redelivery — and re-execute about one epoch's worth of
// instructions uniprocessor against the real OS. That free run replaces
// the epoch in the log, its end state becomes the truth, and it is the
// run the guest profile describes.
func (r *recorder) rerun(p *produced, o *outcome) error {
	o.verdict = rerun
	if r.tr.Enabled() {
		o.reBuf = trace.NewSink()
	}
	w := p.start.World.Clone()
	lg := epoch.NewLogger(w, o.reBuf, 0)
	m := p.start.CP.Restore(r.prog, nil, r.opt.Costs)
	lg.Attach(m)
	var prof *profile.Profiler
	if r.opt.Profile != nil {
		prof = profile.New(r.prog)
		prof.Attach(m)
	}
	uni := sched.NewUni(m)
	uni.Quantum = r.opt.Quantum
	uni.LogSchedule = true
	uni.Trace = o.reBuf
	uni.TotalBudget = max(sumRetired(p.end.CP)-sumRetired(p.start.CP), 1)
	if err := uni.Run(); err != nil && !m.Done() {
		return fmt.Errorf("core: forward recovery of epoch %d failed: %w", p.ep.Index, err)
	}
	o.end = epoch.Capture(p.end.Index, 0, m, w)
	o.ep = lg.Take()
	o.ep.Index, o.ep.Targets, o.ep.Schedule = p.ep.Index, o.end.Targets(), uni.Log
	o.ep.StartHash, o.ep.EndHash, o.ep.CommitHash = p.ep.StartHash, o.end.Hash, o.end.World.OutputHash()
	o.re = uni.Cycles
	if prof != nil {
		o.prof = prof.Snapshot()
	}
	return nil
}

// commit applies an epoch's outcome: it logs the epoch, places its
// verification in the pipeline model, and, after a divergence, squashes
// the thread-parallel run and resumes it from the adopted boundary.
func (r *recorder) commit(p *produced, o *outcome) {
	r.rec.Epochs = append(r.rec.Epochs, o.ep)
	if o.prof != nil {
		r.opt.Profile.Merge(o.prof)
	}
	// The epoch commits once its verification, and any re-execution, is
	// done; a certified epoch at its own boundary.
	var pm placement
	at := p.end.Cycle
	if o.verdict == skipped {
		r.stats.VerifySkipped++
	} else {
		pm = r.pl.schedule(p.start.Cycle, p.end.Cycle, o.dur)
		at = pm.finish + o.re
		r.stats.EpochSerialCycles += o.dur + o.re
	}
	if o.div != nil {
		r.stats.Divergences++
		if o.verdict == adopted {
			r.stats.HashRecoveries++
		} else {
			r.stats.RerunRecoveries++
		}
		r.stats.SquashedCycles += max(0, at-p.end.Cycle)
		r.divs = append(r.divs, *o.div)
		o.end.Cycle = at
	}
	r.boundaries = append(r.boundaries, o.end)
	r.traceCommit(p, o, pm, at)

	if o.div != nil {
		// Forward recovery: the thread-parallel run resumes from the
		// adopted state, with a fresh scheduling seed, at short epochs.
		r.run(o.end.CP.Restore(r.prog, nil, r.opt.Costs), o.end.World.Clone(),
			r.opt.Seed+int64(len(r.boundaries))*7919, at)
		r.epochLen = r.opt.EpochCycles
	} else if r.opt.EpochGrowth > 1 {
		r.epochLen = min(int64(float64(r.epochLen)*r.opt.EpochGrowth), r.opt.EpochCyclesMax)
	}
	if r.ctl != nil {
		r.steer(p.ep.Index, at-p.end.Cycle, pm.waited, at)
	}
	if reg, wl := r.reg, r.wl; reg != nil {
		if o.verdict == skipped {
			reg.Add("record.verify_skipped", 1, wl)
		} else {
			reg.Observe("epoch.cycles", o.dur, wl)
			reg.Set("epoch.duration_cycles", float64(o.dur), wl, trace.Label("epoch", p.ep.Index))
		}
		reg.Observe("epoch.syscalls", int64(len(o.ep.Syscalls)), wl)
		reg.Observe("epoch.syncops", int64(len(o.ep.SyncOrder)), wl)
		reg.Observe("checkpoint.pages", p.mapped, wl)
		reg.Add("record.cow_pages", p.cow, wl)
	}
}

// traceCommit narrates an epoch's verification and commit at the
// simulated time the pipeline placed them: the epoch.verify span with the
// epoch-parallel timeslices, the divergence and recovery, and the commit.
func (r *recorder) traceCommit(p *produced, o *outcome, pm placement, at int64) {
	tr, pid, i := r.tr, r.pidRec, p.ep.Index
	if !tr.Enabled() {
		return
	}
	commit := map[string]any{"epoch": i, "lag": at - p.end.Cycle}
	// Within the record process, track 0 is epochs and recovery, spare
	// slot s is track 1+s, and the utilized configuration's epoch work
	// (slot -1) shares track 1.
	tid := int64(1 + max(pm.slot, 0))
	if o.verdict != skipped {
		// The pipeline span, with the epoch-parallel timeslices spliced at
		// its start — except in the utilized configuration, whose epoch
		// work is smeared across the record CPUs.
		tr.Span("epoch.verify", pm.start, pm.finish-pm.start, pid, tid, map[string]any{
			"epoch": i, "slot": pm.slot, "cycles": o.dur, "verified": o.verdict == verified,
		})
		if pm.slot >= 0 {
			tr.Splice(o.buf, pm.start, pid, tid)
		}
	}
	switch o.verdict {
	case skipped:
		tr.Instant("epoch.verify.skipped", at, pid, 0,
			map[string]any{"epoch": i, "cert": string(r.cert.Status)})
		tr.Instant("epoch.commit", at, pid, 0, commit)
	case verified:
		tr.Instant("epoch.commit", at, pid, tid, commit)
	case adopted:
		tr.Instant("divergence", at, pid, 0,
			map[string]any{"epoch": i, "kind": "state", "pages": len(o.div.Pages)})
		tr.Instant("recovery.adopt", at, pid, 0, map[string]any{"epoch": i})
		tr.Instant("epoch.commit", at, pid, tid, commit)
		tr.Instant("checkpoint.create", at, pid, 0,
			map[string]any{"epoch": o.end.Index, "pages": o.end.MappedPages, "reason": "recovery.adopt"})
		tr.Instant("checkpoint.restore", at, pid, 0,
			map[string]any{"epoch": o.end.Index, "reason": "recovery.adopt"})
	case rerun:
		tr.Instant("divergence", pm.finish, pid, 0,
			map[string]any{"epoch": i, "kind": "input", "reason": o.div.Reason})
		tr.Instant("checkpoint.restore", pm.finish, pid, 0,
			map[string]any{"epoch": i, "reason": "recovery.rerun"})
		tr.Span("recovery.rerun", pm.finish, o.re, pid, 0, map[string]any{"epoch": i})
		tr.Splice(o.reBuf, pm.finish, pid, 0)
		tr.Instant("checkpoint.create", at, pid, 0,
			map[string]any{"epoch": o.end.Index, "pages": o.end.MappedPages, "reason": "recovery.rerun"})
		tr.Instant("epoch.commit", at, pid, 0, commit)
		tr.Instant("checkpoint.restore", at, pid, 0,
			map[string]any{"epoch": o.end.Index, "reason": "resume"})
	}
}

// steer feeds the adaptive controller one sample per epoch boundary: the
// commit lag the pipeline model assigned the epoch, and whether it waited
// for a slot. A decision parks or unparks slots before the next epoch is
// scheduled; an unparked core is only available from the commit on.
func (r *recorder) steer(i int, lag int64, waited bool, at int64) {
	dec := r.ctl.Observe(i, lag, waited, r.opt.EpochCycles)
	if dec == 0 {
		return
	}
	r.pl.setActive(r.ctl.Active(), at)
	if r.tr.Enabled() {
		name := "ctl.grow"
		if dec < 0 {
			name = "ctl.shrink"
		}
		r.tr.Instant(name, at, r.pidRec, 0, map[string]any{
			"epoch": i, "active": r.ctl.Active(), "lag": lag,
		})
		r.tr.Counter("ctl.active", at, r.pidRec, int64(r.ctl.Active()))
	}
	if r.reg != nil {
		if dec > 0 {
			r.reg.Add("ctl.grows", 1, r.wl)
		} else {
			r.reg.Add("ctl.shrinks", 1, r.wl)
		}
		r.reg.Set("ctl.active_spares", float64(r.ctl.Active()), r.wl)
	}
}

// result closes the recording once the guest has finished.
func (r *recorder) result() *Result {
	if r.liveProf != nil {
		r.opt.Profile.Merge(r.liveProf.Snapshot())
	}
	rec, last, st := r.rec, r.boundaries[len(r.boundaries)-1], &r.stats
	rec.FinalHash = last.Hash
	rec.OutputHash = last.World.OutputHash()

	st.Epochs = len(rec.Epochs)
	st.Retired = int64(sumRetired(last.CP))
	st.Slices = rec.Slices()
	st.Syscalls = rec.SyscallCount()
	st.SyncEvents = rec.SyncOps()
	st.Signals = rec.SignalCount()
	st.GuestFaults = r.m.FaultCount()
	st.ThreadParallelCycles = r.par.WallTime()
	st.CompletionCycles = r.pl.completion(r.par.WallTime())
	profile.WithPhase(r.opt.Context, "commit", func() {
		st.ReplayBytes = rec.ReplaySize()
		st.FullBytes = rec.FullSize()
		st.FileBytes = len(dplog.MarshalBytes(rec))
	})
	st.ActiveSpares = r.opt.SpareCPUs
	if r.ctl != nil {
		st.ActiveSpares = r.ctl.Active()
		st.SpareGrows = r.ctl.Grows()
		st.SpareShrinks = r.ctl.Shrinks()
	}

	if r.tr.Enabled() {
		r.tr.Instant("record.done", st.CompletionCycles, r.pidRec, 0, map[string]any{
			"epochs": st.Epochs, "divergences": st.Divergences,
			"syscalls": st.Syscalls, "replay_bytes": st.ReplayBytes,
		})
	}
	if reg, wl := r.reg, r.wl; reg != nil {
		reg.Add("record.runs", 1, wl)
		reg.Add("record.epochs", int64(st.Epochs), wl)
		reg.Add("record.divergences", int64(st.Divergences), wl)
		reg.Add("record.syscalls", int64(st.Syscalls), wl)
		reg.Add("record.syncops", int64(st.SyncEvents), wl)
		reg.Add("record.signals", int64(st.Signals), wl)
		reg.Set("record.completion_cycles", float64(st.CompletionCycles), wl)
		reg.Set("record.thread_parallel_cycles", float64(st.ThreadParallelCycles), wl)
		reg.Set("record.replay_bytes", float64(st.ReplayBytes), wl)
		reg.Set("record.file_bytes", float64(st.FileBytes), wl)
		if r.ctl != nil {
			reg.Set("ctl.active_spares", float64(r.ctl.Active()), wl)
		}
	}

	out := &Result{
		Recording:   rec,
		Boundaries:  r.boundaries,
		Stats:       *st,
		FinalHash:   rec.FinalHash,
		OutputHash:  rec.OutputHash,
		Divergences: r.divs,
		Certificate: r.cert,
	}
	if r.det != nil {
		out.Races = r.det.Races()
	}
	return out
}

// sumRetired totals a checkpoint's retired instructions over all threads.
func sumRetired(cp *vm.Checkpoint) uint64 {
	var n uint64
	for _, t := range cp.Threads {
		n += t.Retired
	}
	return n
}

// NativeResult reports a plain parallel execution with no recording.
type NativeResult struct {
	Cycles     int64
	Retired    int64
	FinalHash  uint64
	OutputHash uint64
	Faults     []string
}

// RunNative executes prog against world on cpus cores with no DoublePlay
// machinery — the baseline denominator for every overhead figure.
func RunNative(prog *vm.Program, world *simos.World, cpus int, seed int64, costs *vm.CostModel) (*NativeResult, error) {
	if costs == nil {
		costs = vm.DefaultCosts()
	}
	m := vm.NewMachine(prog, simos.NewOS(world), costs)
	par := sched.NewParallel(m, cpus, seed)
	if err := par.Run(); err != nil {
		return nil, err
	}
	return &NativeResult{
		Cycles:     par.WallTime(),
		Retired:    par.Retired(),
		FinalHash:  m.StateHash(),
		OutputHash: world.OutputHash(),
		Faults:     m.Faults(),
	}, nil
}

// ErrTooManyEpochs is returned (wrapped) when MaxEpochs is exceeded.
var ErrTooManyEpochs = errors.New("core: too many epochs")

// ErrCanceled is returned when Options.Context ends a recording at an
// epoch boundary. errors.Is also matches the context's own error
// (context.Canceled or context.DeadlineExceeded), which is how callers
// distinguish an explicit cancel from a timeout.
var ErrCanceled = errors.New("core: recording canceled")
