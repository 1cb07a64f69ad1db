package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"doubleplay/internal/core"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up (a cold page cache, a GC) does not move it.
const setupReps = 5

// simOps is how many leading ops feed the simulated metrics and the sim
// digest. It is fixed, so those numbers do not depend on how many ops the
// host managed to run in the window.
const simOps = 20

// workload is one named set of inputs. setup builds everything the ops
// use and runs one untimed warm-up op; measure runs ops until the
// deadline; close releases what setup opened.
type workload interface {
	setup() error
	measure(r *run, deadline time.Time)
	close()
}

func workloadNames() []string {
	return []string{"compute", "syscall-io", "racy-recovery", "serve-open-loop"}
}

func newWorkload(name string, cfg config) workload {
	switch name {
	case "compute":
		return newCompute(cfg)
	case "syscall-io":
		return newSyscallIO(cfg)
	case "racy-recovery":
		return newRacy(cfg)
	case "serve-open-loop":
		return newServe(cfg)
	}
	return nil
}

// work is host time spent inside one kind of call and the guest
// instructions those calls retired.
type work struct {
	instr int64
	d     time.Duration
}

func (w *work) add(instr int64, d time.Duration) { w.instr += instr; w.d += d }

func (w work) minstrPerS() float64 { return ratio(float64(w.instr)/1e6, w.d.Seconds()) }

// simStats accumulates the deterministic simulated outcome of the first
// simOps ops (or, on serve-open-loop, of the reference recordings).
type simStats struct {
	overheadPct    []float64
	fileBytes      int64
	retired        int64
	epochs         int64
	divergences    int64
	reruns         int64
	squashed       int64
	serialCycles   int64
	checkpointPage int64
	cowPages       int64
	records        int64
}

// addSim adds one recording's simulated outcome; native is the native
// run's cycle count for the same program, input and timing seed.
func (r *run) addSim(st core.Stats, native int64) {
	s := &r.sim
	s.overheadPct = append(s.overheadPct, 100*(ratio(float64(st.CompletionCycles), float64(native))-1))
	s.fileBytes += int64(st.FileBytes)
	s.retired += st.Retired
	s.epochs += int64(st.Epochs)
	s.divergences += int64(st.Divergences)
	s.reruns += int64(st.RerunRecoveries)
	s.squashed += st.SquashedCycles
	s.serialCycles += st.EpochSerialCycles
	s.checkpointPage += st.CheckpointPages
	s.cowPages += st.CowPages
	s.records++
}

// run is one benchmark run: its tracer (nil when untraced) and what its
// ops measured.
type run struct {
	tr *tracer

	attempted, failed int
	failures          []string

	lat []float64 // op or job latency, ms
	// byKind splits latencies by op kind (program or job kind) and by
	// whether the op was traced, to measure what tracing costs.
	byKind        map[string]*[2][]float64
	rec, seq, par work
	done          int
	window        time.Duration

	sim       simStats
	opDigests []string
	rssMB     float64 // median per-second peak resident set in the window

	// cal probes the host's speed between closed-loop ops; calib holds
	// the probe times, ms.
	cal   calibrator
	calib []float64
	// open marks an open loop, whose job rate is the generator's and so
	// is not corrected for the host's speed.
	open bool

	// layer holds per-layer values a workload computes itself rather than
	// from spans: store accounting and generator lag.
	layer map[string]float64
	// rejected counts submissions the job server refused with 429; each
	// is also a failed op.
	rejected int
}

// opTracer returns the tracer for the n-th op of a kind: traced runs
// trace every other op of each kind, so the untraced ones in between
// measure what tracing costs.
func (r *run) opTracer(n int) *tracer {
	if r.tr != nil && n%2 == 0 {
		return r.tr
	}
	return nil
}

// fail counts a failed op and keeps the first few reasons.
func (r *run) fail(what string, err error) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// latency records a completed op's or job's latency.
func (r *run) latency(d time.Duration, kind string, traced bool) {
	ms := float64(d.Nanoseconds()) / 1e6
	r.lat = append(r.lat, ms)
	g := r.byKind[kind]
	if g == nil {
		g = new([2][]float64)
		r.byKind[kind] = g
	}
	if traced {
		g[1] = append(g[1], ms)
	} else {
		g[0] = append(g[0], ms)
	}
}

// tracingOverhead is the median over op kinds of how much longer a
// kind's traced ops took than its untraced ones, in percent, and the
// number of traced ops.
func (r *run) tracingOverhead() (pct float64, traced int) {
	var ratios []float64
	for _, g := range r.byKind {
		traced += len(g[1])
		if len(g[0]) > 0 && len(g[1]) > 0 {
			ratios = append(ratios, 100*(median(g[1])/median(g[0])-1))
		}
	}
	return median(ratios), traced
}

// digest returns a short hash of fields, an op's deterministic outputs.
func digest(fields ...any) string {
	h := sha256.New()
	for _, f := range fields {
		fmt.Fprintf(h, "%v\x00", f)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// deriveSeed maps (seed, salt...) to a small positive input seed, so the
// program receives only values generated from the run's seed.
func deriveSeed(seed int64, salt ...any) int64 {
	sum := sha256.Sum256([]byte(fmt.Sprint(append([]any{seed}, salt...)...)))
	return 1 + int64(binary.LittleEndian.Uint64(sum[:8])%1_000_000)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// calibRefMS is the reference host's time for one probe's kernel, about
// what it takes on the host the README's baseline was measured on.
const calibRefMS = 4.0

// calibrator probes how fast the host is at the moment: it returns the
// heap to the OS, then times a fixed kernel that calls no repository code
// but, like the program, allocates fresh memory, probes a map and touches
// a cache-sized slice. A kernel that reused its memory stayed steady
// while the program slowed by 20%: the drift is in page faults and
// memory, not only in the processor.
type calibrator struct{ sink int64 }

// probe returns the kernel's run time in ms. It also leaves the heap
// collected and returned to the OS, the state every closed-loop op
// starts from.
func (c *calibrator) probe() float64 {
	debug.FreeOSMemory()
	start := time.Now()
	m := make(map[int64]int64, 1024)
	s := make([]int64, 1<<14)
	x := uint64(88172645463325252)
	for i := 0; i < 100000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := int64(x & 4095)
		m[k] += int64(i)
		s[x&(1<<14-1)] += m[k]
	}
	c.sink += int64(len(m)) + s[1]
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// cpuTicks reads the machine's busy (user, nice, system, irq, softirq)
// and stolen clock ticks from /proc/stat, or zeros.
func cpuTicks() (busy, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	v := make([]int64, 9)
	for i := 1; i < 9; i++ {
		v[i], _ = strconv.ParseInt(f[i], 10, 64)
	}
	return v[1] + v[2] + v[3] + v[6] + v[7], v[8]
}

// stolen is the share of the time the machine's processors wanted to run
// that the hypervisor gave to other tenants, between two cpuTicks reads.
func stolen(busy0, steal0, busy1, steal1 int64) float64 {
	return ratio(float64(steal1-steal0), float64(busy1-busy0+steal1-steal0))
}

// maxRSSMB is the process's lifetime peak resident set (getrusage).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssSampler reads the process's resident set every 5 ms and keeps the
// highest reading of each second. The lifetime peak is set by whichever
// op happened to meet an unlucky GC cycle, and moved 20-30% between runs
// of the same seed; the median of the per-second peaks does not.
type rssSampler struct {
	stop, done chan struct{}
	peaks      []float64 // MB
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		second := time.Now().Add(time.Second)
		var peak float64
		for {
			select {
			case <-s.stop:
				return
			case now := <-tick.C:
				peak = max(peak, currentRSSMB())
				if now.After(second) {
					s.peaks = append(s.peaks, peak)
					peak, second = 0, now.Add(time.Second)
				}
			}
		}
	}()
	return s
}

// median stops the sampler and returns the median per-second peak, or
// the lifetime peak when the resident set cannot be read.
func (s *rssSampler) median() float64 {
	close(s.stop)
	<-s.done
	if m := median(s.peaks); m > 0 {
		return m
	}
	return maxRSSMB()
}

// currentRSSMB reads the resident set from /proc/self/statm, or 0.
func currentRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}

// execute sets the workload up setupReps times, measures the last set-up
// for cfg.seconds, and assembles the result.
func execute(cfg config) (*result, error) {
	r := &run{layer: map[string]float64{}, byKind: map[string]*[2][]float64{}}
	// setups are the set-up times as measured, setupSteal the share of
	// each that the hypervisor stole, and ownSetups the set-up times with
	// the stolen time taken out.
	var setups, setupSteal, ownSetups []float64
	var w workload
	for i := 0; i < setupReps; i++ {
		w = newWorkload(cfg.workload, cfg)
		b0, s0 := cpuTicks()
		start := time.Now()
		err := w.setup()
		setups = append(setups, time.Since(start).Seconds())
		b1, s1 := cpuTicks()
		setupSteal = append(setupSteal, stolen(b0, s0, b1, s1))
		ownSetups = append(ownSetups, setups[i]*(1-setupSteal[i]))
		if err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		if i < setupReps-1 {
			w.close()
		}
	}
	defer w.close()
	debug.FreeOSMemory() // the window starts from a collected heap

	if cfg.trace {
		r.tr = newTracer()
	}
	rss := startRSS()
	b0, s0 := cpuTicks()
	w.measure(r, time.Now().Add(time.Duration(cfg.seconds)*time.Second))
	b1, s1 := cpuTicks()
	r.rssMB = rss.median()

	res := &result{
		Stamp:      newStamp(cfg),
		Attempted:  r.attempted,
		Failed:     r.failed,
		Failures:   r.failures,
		Rejected:   r.rejected,
		Samples:    len(r.lat),
		TailPct:    tailPercentile(len(r.lat)),
		OpDigests:  r.opDigests,
		SetupsS:    setups,
		SetupSteal: setupSteal,
		Steal:      stolen(b0, s0, b1, s1),
		MaxRSS:     maxRSSMB(),
		CalibMS:    median(r.calib),
		Raw:        metricMap(endToEnd(r, median(setups), 1, 1)),
	}
	if n := len(r.opDigests); n < simOps {
		r.fail("run", fmt.Errorf("only %d ops completed; the sim digest needs %d", n, simOps))
		res.Failed, res.Failures = r.failed, r.failures
	} else {
		res.SimDigest = digest(strings.Join(r.opDigests[:simOps], ","))
	}
	if cfg.workload == "serve-open-loop" && len(r.lat) < 100 {
		r.fail("run", fmt.Errorf("only %d jobs completed; job_p90_ms needs 100", len(r.lat)))
		res.Failed, res.Failures = r.failed, r.failures
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	// Only the closed loops probe the host between ops: the job server is
	// never idle inside the window.
	slow := 1.0
	if len(r.calib) > 0 {
		slow = median(r.calib) / calibRefMS
	}
	res.EndToEnd = endToEnd(r, median(ownSetups), 1-res.Steal, slow)
	if r.tr != nil {
		res.PerLayer = perLayer(r)
		pct, _ := r.tracingOverhead()
		res.Overhead = fmt.Sprintf("traced ops took %+.2f%% longer than untraced ops of the same kind (median over kinds)", pct)
		res.TraceFile = tracePath(cfg)
		if err := r.tr.writeChrome(res.TraceFile); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	return res, nil
}

// endToEnd builds the metrics a user of the system sees, in host time
// corrected for two kinds of host drift that are not the program's doing:
//
//   - own is the share of the time the machine's processors wanted to
//     run that the hypervisor did not give to other tenants (1 - steal, from
//     /proc/stat). Multiplying by it takes the stolen time out. In a
//     contended minute a third or more of the time is stolen, and every
//     workload slows by that much.
//   - slow is how much longer the calibration kernel took between this
//     run's ops than on the reference host. A short kernel dodges stolen
//     slices, so it sees the other drift: a slower memory system and page
//     faults. Dividing by it reports times at the reference host's speed.
//
// Host times are multiplied by own/slow and rates divided by it. setupS is
// corrected for stolen time already; a set-up is not probed.
func endToEnd(r *run, setupS, own, slow float64) []metric {
	k := own / slow
	jobK := k
	if r.open {
		jobK = 1
	}
	return []metric{
		{"setup_s", setupS, "s"},
		{"record_minstr_per_s", r.rec.minstrPerS() / k, "Minstr/s"},
		{"replay_seq_minstr_per_s", r.seq.minstrPerS() / k, "Minstr/s"},
		{"replay_par_minstr_per_s", r.par.minstrPerS() / k, "Minstr/s"},
		{"job_p50_ms", percentile(r.lat, 50) * k, "ms"},
		{"job_p90_ms", percentile(r.lat, 90) * k, "ms"},
		{"jobs_per_s", ratio(float64(r.done), r.window.Seconds()) / jobK, "1/s"},
		{"peak_rss_mb", r.rssMB, "MB"},
		{"sim_overhead_pct", mean(r.sim.overheadPct), "%"},
		{"log_bytes_per_minstr", ratio(float64(r.sim.fileBytes), float64(r.sim.retired)/1e6), "B/Minstr"},
	}
}

// layers are the program's modules that spans are named after, plus the
// benchmark's own op and job spans.
var layers = []string{"bench", "workloads", "vm", "mem", "core", "dplog", "replay", "store", "server"}

// perLayer builds the per-layer metrics from the traced ops' spans and
// the counts the workload gathered.
func perLayer(r *run) []metric {
	tr := r.tr
	// Per-call times are medians over calls; rates are total work over
	// total time.
	durMS := func(name string) []float64 {
		var ds []float64
		for _, s := range tr.byName(name) {
			ds = append(ds, float64(s.dur().Nanoseconds())/1e6)
		}
		return ds
	}
	medMS := func(name string) float64 { return median(durMS(name)) }
	sum := func(name string) (n int64, d time.Duration) {
		for _, s := range tr.byName(name) {
			n += s.n
			d += s.dur()
		}
		return n, d
	}
	nsPer := func(name string) float64 {
		n, d := sum(name)
		return ratio(float64(d.Nanoseconds()), float64(n))
	}
	mbPerS := func(name string) float64 {
		n, d := sum(name)
		return ratio(float64(n)/1e6, d.Seconds())
	}
	sim := r.sim
	perRecord := func(v int64) float64 { return ratio(float64(v), float64(sim.records)) }

	ms := []metric{
		{"workloads.build_ms", medMS("workloads.build"), "ms"},
		{"vm.parallel_ns_per_instr", nsPer("vm.parallel"), "ns/instr"},
		{"vm.uni_ns_per_instr", nsPer("vm.uni"), "ns/instr"},
		{"mem.restore_ns_per_page", nsPer("mem.restore"), "ns/page"},
		{"mem.hash_ns_per_page", nsPer("mem.hash"), "ns/page"},
		{"core.checkpoint_pages", perRecord(sim.checkpointPage), "pages"},
		{"core.cow_pages", perRecord(sim.cowPages), "pages"},
		{"core.record_p50_ms", percentile(durMS("core.record"), 50), "ms"},
		{"core.record_p90_ms", percentile(durMS("core.record"), 90), "ms"},
		{"core.epochs", perRecord(sim.epochs), "count"},
		{"core.divergences", perRecord(sim.divergences), "count"},
		{"core.rerun_recoveries", perRecord(sim.reruns), "count"},
		{"core.squashed_cycles", perRecord(sim.squashed), "cycles"},
		{"core.useful_cycle_frac", 1 - ratio(float64(sim.squashed), float64(sim.serialCycles)), "ratio"},
		{"dplog.encode_ms", medMS("dplog.encode"), "ms"},
		{"dplog.encode_mb_per_s", mbPerS("dplog.encode"), "MB/s"},
		{"dplog.open_us", medMS("dplog.open") * 1e3, "us"},
		{"dplog.epoch_at_us", nsPer("dplog.epoch_at") / 1e3, "us"},
		{"replay.seq_ms", medMS("replay.seq"), "ms"},
		{"replay.par_ms", medMS("replay.par"), "ms"},
		{"replay.checkpoints_ms", medMS("replay.checkpoints"), "ms"},
		{"store.put_ms", medMS("store.put"), "ms"},
		{"store.put_mb_per_s", mbPerS("store.put"), "MB/s"},
		{"store.read_mb_per_s", mbPerS("store.read"), "MB/s"},
		{"store.dedup_ratio", r.layer["store.dedup_ratio"], "ratio"},
		{"store.stored_bytes_per_minstr", r.layer["store.stored_bytes_per_minstr"], "B/Minstr"},
		{"server.submit_ms", medMS("server.submit"), "ms"},
		{"server.queue_wait_ms", medMS("server.queue_wait"), "ms"},
		{"server.run_ms", medMS("server.run"), "ms"},
		{"loadgen.lag_p50_ms", r.layer["loadgen.lag_p50_ms"], "ms"},
		{"loadgen.lag_max_ms", r.layer["loadgen.lag_max_ms"], "ms"},
	}
	overhead, traced := r.tracingOverhead()
	self := tr.selfTimes()
	for _, l := range layers {
		ms = append(ms, metric{l + ".self_ms", ratio(float64(self[l].Nanoseconds())/1e6, float64(traced)), "ms/op"})
	}
	ms = append(ms, metric{"trace.overhead_pct", overhead, "%"})
	return ms
}
