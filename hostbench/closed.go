package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"doubleplay/internal/core"
	"doubleplay/internal/dplog"
	"doubleplay/internal/epoch"
	"doubleplay/internal/mem"
	"doubleplay/internal/replay"
	"doubleplay/internal/sched"
	"doubleplay/internal/simos"
	"doubleplay/internal/store"
	"doubleplay/internal/vm"
	"doubleplay/internal/workloads"
)

// item is one op's input: a program instance and the seeds it runs with.
type item struct {
	prog                   string
	workers, spares, scale int
	inSeed, recSeed        int64 // input generation; simulated timing
}

func (it item) build() *workloads.Built {
	return workloads.Get(it.prog).Build(workloads.Params{Workers: it.workers, Scale: it.scale, Seed: it.inSeed})
}

// opOut is what a successful op hands back: host time inside the
// end-to-end calls and the deterministic outputs that go into its digest.
type opOut struct {
	stats         core.Stats
	rec, seq, par time.Duration
	hashes        []uint64
}

// closedLoop runs one op after another: the next op starts when the last
// one ends, as a user recording and replaying programs one at a time
// would.
type closedLoop struct {
	cfg     config
	item    func(i int) item
	body    func(c *closedLoop, o *opTimer, it item) (*opOut, error)
	natives []int64 // native cycles of the first simOps items

	// syscall-io only: the store its ops put recordings into.
	dir        string
	st         *store.Store
	putRetired int64
}

// rotate picks op i's program from progs, going round them in order, and
// says which round op i is in.
func rotate(progs []string, i int) (string, int) {
	n := len(progs)
	return progs[((i%n)+n)%n], i / n
}

func newCompute(cfg config) *closedLoop {
	progs := []string{"fft", "lu", "radix", "ocean", "water"}
	return &closedLoop{cfg: cfg, body: computeOp, item: func(i int) item {
		p, round := rotate(progs, i)
		s := deriveSeed(cfg.seed, p, round)
		return item{prog: p, workers: 2, spares: 2, scale: 1, inSeed: s, recSeed: s}
	}}
}

func newSyscallIO(cfg config) *closedLoop {
	progs := []string{"pbzip", "pfscan", "aget", "webserve", "kvdb"}
	return &closedLoop{cfg: cfg, body: syscallIOOp, item: func(i int) item {
		p, round := rotate(progs, i)
		// Two input seeds per program, alternating, so consecutive
		// recordings of a program share their syscall chunks in the store;
		// a fresh timing seed per op keeps every recording new.
		return item{prog: p, workers: 2, spares: 2, scale: 1,
			inSeed: deriveSeed(cfg.seed, p, round%2), recSeed: deriveSeed(cfg.seed, "timing", i)}
	}}
}

func newRacy(cfg config) *closedLoop {
	return &closedLoop{cfg: cfg, body: racyOp, item: func(i int) item {
		p, round := rotate([]string{"racey", "webserve-racy"}, i)
		s := deriveSeed(cfg.seed, p, round)
		it := item{prog: p, workers: 4, spares: 4, scale: 1, inSeed: s, recSeed: s}
		if p == "racey" {
			it.scale = 8
		}
		return it
	}}
}

func (c *closedLoop) setup() error {
	for i := 0; i < simOps; i++ {
		it := c.item(i)
		bt := it.build()
		nat, err := core.RunNative(bt.Prog, bt.World, it.workers, it.recSeed, nil)
		if err != nil {
			return fmt.Errorf("native run of %s: %w", it.prog, err)
		}
		c.natives = append(c.natives, nat.Cycles)
	}
	if c.cfg.workload == "syscall-io" {
		dir, err := os.MkdirTemp(c.cfg.outDir, "store-")
		if err != nil {
			return err
		}
		c.dir = dir
		if c.st, err = store.Open(dir, nil); err != nil {
			return err
		}
	}
	if _, err := c.body(c, startOp(nil, 0), c.item(-1)); err != nil {
		return fmt.Errorf("warm-up op: %w", err)
	}
	return nil
}

func (c *closedLoop) close() {
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

func (c *closedLoop) measure(r *run, deadline time.Time) {
	start := time.Now()
	seen := map[string]int{}
	for i := 0; time.Now().Before(deadline); i++ {
		// Probing the host also starts every op from a collected heap
		// returned to the OS, as a fresh doubleplay process would, so the
		// resident set follows the op running now and one op's garbage
		// does not pause the next.
		r.calib = append(r.calib, r.cal.probe())
		it := c.item(i)
		tr := r.opTracer(seen[it.prog])
		seen[it.prog]++
		o := startOp(tr, int64(i+1))
		out, err := c.body(c, o, it)
		d := o.end("bench.op")
		r.attempted++
		if err != nil {
			r.fail(fmt.Sprintf("op %d (%s, input seed %d)", i, it.prog, it.inSeed), err)
			r.opDigests = append(r.opDigests, "failed")
			continue
		}
		r.latency(d, it.prog, tr != nil)
		r.done++
		st := out.stats
		r.rec.add(st.Retired, out.rec)
		r.seq.add(st.Retired, out.seq)
		r.par.add(st.Retired, out.par)
		r.opDigests = append(r.opDigests, digest(it, st, out.hashes))
		if i < simOps {
			r.addSim(st, c.natives[i])
		}
	}
	r.window = time.Since(start)
	if c.st != nil {
		if rep, err := c.st.Stats(); err != nil {
			r.fail("store stats", err)
		} else {
			r.layer["store.dedup_ratio"] = rep.DedupRatio
			r.layer["store.stored_bytes_per_minstr"] = ratio(float64(rep.StoredBytes), float64(c.putRetired)/1e6)
		}
	}
}

// The op bodies below call each layer through o, so every call is timed
// and, in traced ops, kept as a span. Each returns an error as soon as an
// output fails its check.

func computeOp(c *closedLoop, o *opTimer, it item) (*opOut, error) {
	out := &opOut{}
	bt := build(o, it)
	var nat *core.NativeResult
	if _, err := o.call("vm.parallel", func() (n int64, err error) {
		nat, err = core.RunNative(bt.Prog, bt.World, it.workers, it.recSeed, nil)
		if err != nil {
			return 0, err
		}
		return nat.Retired, nil
	}); err != nil {
		return nil, fmt.Errorf("native run: %w", err)
	}
	if len(nat.Faults) > 0 {
		return nil, fmt.Errorf("native run faulted: %v", nat.Faults)
	}

	bt = build(o, it)
	res, err := record(o, it, bt, out)
	if err != nil {
		return nil, err
	}
	defer res.ReleaseCheckpoints()
	enc, err := encode(o, res)
	if err != nil {
		return nil, err
	}
	rd, err := openLog(o, bytes.NewReader(enc), int64(len(enc)), res.Recording)
	if err != nil {
		return nil, err
	}
	if out.seq, err = replaySeq(o, bt.Prog, rd, res); err != nil {
		return nil, err
	}
	if out.par, err = replayPar(o, bt.Prog, res.Recording, res.Boundaries, res); err != nil {
		return nil, err
	}
	rebuilt, err := checkpoints(o, bt.Prog, rd, res)
	if err != nil {
		return nil, err
	}
	defer release(rebuilt)
	if err := memOps(o, res.Boundaries, rebuilt); err != nil {
		return nil, err
	}

	bt = build(o, it)
	var uniHash uint64
	if _, err := o.call("vm.uni", func() (int64, error) {
		m := vm.NewMachine(bt.Prog, simos.NewOS(bt.World), nil)
		if err := sched.NewUni(m).Run(); err != nil {
			return 0, err
		}
		if !m.Done() {
			return 0, fmt.Errorf("threads still live after the run")
		}
		if err := bt.CheckOK(m.Mem.Peek); err != nil {
			return 0, err
		}
		uniHash = m.StateHash()
		var n int64
		for _, t := range m.Threads {
			n += int64(t.Retired)
		}
		return n, nil
	}); err != nil {
		return nil, fmt.Errorf("uniprocessor run: %w", err)
	}
	out.hashes = []uint64{uint64(nat.Cycles), nat.FinalHash, res.FinalHash, res.OutputHash, uniHash}
	return out, nil
}

func syscallIOOp(c *closedLoop, o *opTimer, it item) (*opOut, error) {
	out := &opOut{}
	bt := build(o, it)
	res, err := record(o, it, bt, out)
	if err != nil {
		return nil, err
	}
	defer res.ReleaseCheckpoints()
	if _, err := encode(o, res); err != nil {
		return nil, err
	}
	// The store keeps recordings uncompressed, as the job server stores
	// them, so their section groups line up for chunk dedup.
	var raw []byte
	_, _ = o.call("dplog.encode_raw", func() (int64, error) {
		raw = dplog.MarshalBytesWith(res.Recording, dplog.EncodeOptions{Compress: false})
		return int64(len(raw)), nil
	})
	var dg string
	if _, err := o.call("store.put", func() (n int64, err error) {
		dg, err = c.st.PutRecording(raw)
		return int64(len(raw)), err
	}); err != nil {
		return nil, fmt.Errorf("store put: %w", err)
	}
	c.putRetired += res.Stats.Retired
	var h *store.Handle
	if _, err := o.call("store.open", func() (n int64, err error) {
		h, err = c.st.OpenRecording(dg)
		return 1, err
	}); err != nil {
		return nil, fmt.Errorf("store open: %w", err)
	}
	defer h.Close()
	var ra io.ReaderAt = h
	if o.tr != nil {
		ra = tracedReaderAt{o: o, ra: h}
	}
	back := make([]byte, h.Size())
	if n, err := ra.ReadAt(back, 0); n < len(back) {
		return nil, fmt.Errorf("store read: %d of %d bytes: %w", n, len(back), err)
	}
	if got := store.Digest(back); got != dg {
		return nil, fmt.Errorf("store read back %s, want %s", got, dg)
	}

	rd, err := openLog(o, ra, h.Size(), res.Recording)
	if err != nil {
		return nil, err
	}
	if out.seq, err = replaySeq(o, bt.Prog, rd, res); err != nil {
		return nil, err
	}
	// Parallel replay of a stored recording, as a replay-by-id job does
	// it: rebuild the checkpoints from the log, decode it whole, fan out.
	rebuilt, err := checkpoints(o, bt.Prog, rd, res)
	if err != nil {
		return nil, err
	}
	defer release(rebuilt)
	var dec *dplog.Recording
	if _, err := o.call("dplog.decode", func() (n int64, err error) {
		dec, err = rd.Recording()
		return int64(rd.NumSections()), err
	}); err != nil {
		return nil, fmt.Errorf("decoding stored log: %w", err)
	}
	if out.par, err = replayPar(o, bt.Prog, dec, rebuilt, res); err != nil {
		return nil, err
	}
	out.hashes = []uint64{res.FinalHash, res.OutputHash, uint64(len(raw))}
	return out, nil
}

func racyOp(c *closedLoop, o *opTimer, it item) (*opOut, error) {
	out := &opOut{}
	bt := build(o, it)
	res, err := record(o, it, bt, out)
	if err != nil {
		return nil, err
	}
	defer res.ReleaseCheckpoints()
	enc, err := encode(o, res)
	if err != nil {
		return nil, err
	}
	rd, err := openLog(o, bytes.NewReader(enc), int64(len(enc)), res.Recording)
	if err != nil {
		return nil, err
	}
	if out.seq, err = replaySeq(o, bt.Prog, rd, res); err != nil {
		return nil, err
	}
	if out.par, err = replayPar(o, bt.Prog, res.Recording, res.Boundaries, res); err != nil {
		return nil, err
	}
	out.hashes = []uint64{res.FinalHash, res.OutputHash}
	return out, nil
}

func build(o *opTimer, it item) *workloads.Built {
	var bt *workloads.Built
	_, _ = o.call("workloads.build", func() (int64, error) {
		bt = it.build()
		return 1, nil
	})
	return bt
}

// record runs core.Record and checks the guest's own verdict on its last
// boundary for programs without intentional races.
func record(o *opTimer, it item, bt *workloads.Built, out *opOut) (*core.Result, error) {
	var res *core.Result
	d, err := o.call("core.record", func() (n int64, err error) {
		res, err = core.Record(bt.Prog, bt.World, core.Options{
			Workers:    it.workers,
			RecordCPUs: it.workers,
			SpareCPUs:  it.spares,
			Seed:       it.recSeed,
		})
		if err != nil {
			return 0, err
		}
		return res.Stats.Retired, nil
	})
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	out.rec, out.stats = d, res.Stats
	if !workloads.Get(it.prog).Racy {
		last := res.Boundaries[len(res.Boundaries)-1]
		if err := bt.CheckOK(last.CP.MemSnap.Peek); err != nil {
			res.ReleaseCheckpoints()
			return nil, fmt.Errorf("recorded run: %w", err)
		}
	}
	return res, nil
}

// encode writes the recording in the dplog file format, as core.Record
// sized it.
func encode(o *opTimer, res *core.Result) ([]byte, error) {
	var enc []byte
	_, _ = o.call("dplog.encode", func() (int64, error) {
		enc = dplog.MarshalBytes(res.Recording)
		return int64(len(enc)), nil
	})
	if len(enc) != res.Stats.FileBytes {
		return nil, fmt.Errorf("encoded log is %d bytes; the recorder sized it at %d", len(enc), res.Stats.FileBytes)
	}
	return enc, nil
}

// openLog opens an encoded log and decodes every epoch section once,
// checking each against the recording it was encoded from.
func openLog(o *opTimer, src io.ReaderAt, size int64, rec *dplog.Recording) (*dplog.Reader, error) {
	var rd *dplog.Reader
	if _, err := o.call("dplog.open", func() (n int64, err error) {
		rd, err = dplog.OpenReader(src, size)
		return 1, err
	}); err != nil {
		return nil, fmt.Errorf("open log: %w", err)
	}
	if _, err := o.call("dplog.epoch_at", func() (int64, error) {
		n := rd.NumSections()
		if n != len(rec.Epochs) {
			return 0, fmt.Errorf("%d sections for %d epochs", n, len(rec.Epochs))
		}
		for i := 0; i < n; i++ {
			ep, err := rd.EpochAt(i)
			if err != nil {
				return 0, err
			}
			want := rec.Epochs[i]
			if ep.Index != want.Index || ep.StartHash != want.StartHash || ep.EndHash != want.EndHash ||
				len(ep.Schedule) != len(want.Schedule) || len(ep.Syscalls) != len(want.Syscalls) {
				return 0, fmt.Errorf("section %d decodes to a different epoch than was recorded", i)
			}
		}
		return int64(n), nil
	}); err != nil {
		return nil, fmt.Errorf("decode epochs: %w", err)
	}
	return rd, nil
}

func replaySeq(o *opTimer, prog *vm.Program, rd *dplog.Reader, res *core.Result) (time.Duration, error) {
	var got *replay.Result
	d, err := o.call("replay.seq", func() (n int64, err error) {
		got, err = replay.SequentialReader(context.Background(), prog, rd, nil, nil)
		return res.Stats.Retired, err
	})
	if err != nil {
		return 0, fmt.Errorf("sequential replay: %w", err)
	}
	if got.FinalHash != res.FinalHash {
		return 0, fmt.Errorf("sequential replay ends at %016x, recorded %016x", got.FinalHash, res.FinalHash)
	}
	return d, nil
}

func replayPar(o *opTimer, prog *vm.Program, rec *dplog.Recording, bs []*epoch.Boundary, res *core.Result) (time.Duration, error) {
	var got *replay.Result
	d, err := o.call("replay.par", func() (n int64, err error) {
		got, err = replay.Parallel(prog, rec, bs, runtime.NumCPU(), nil, nil)
		return res.Stats.Retired, err
	})
	if err != nil {
		return 0, fmt.Errorf("parallel replay: %w", err)
	}
	if got.FinalHash != res.FinalHash || got.Epochs != res.Stats.Epochs {
		return 0, fmt.Errorf("parallel replay ends at %016x after %d epochs, recorded %016x after %d",
			got.FinalHash, got.Epochs, res.FinalHash, res.Stats.Epochs)
	}
	return d, nil
}

// checkpoints rebuilds the epoch-start checkpoints from the log, as a
// replay of a stored recording must.
func checkpoints(o *opTimer, prog *vm.Program, rd *dplog.Reader, res *core.Result) ([]*epoch.Boundary, error) {
	var bs []*epoch.Boundary
	if _, err := o.call("replay.checkpoints", func() (n int64, err error) {
		bs, err = replay.CheckpointsFrom(context.Background(), prog, replay.FromReader(rd), nil)
		return int64(len(bs)), err
	}); err != nil {
		return nil, fmt.Errorf("rebuilding checkpoints: %w", err)
	}
	if len(bs) != res.Stats.Epochs+1 {
		release(bs)
		return nil, fmt.Errorf("rebuilt %d checkpoints for %d epochs", len(bs), res.Stats.Epochs)
	}
	return bs, nil
}

func release(bs []*epoch.Boundary) {
	for _, b := range bs {
		b.CP.Release()
	}
}

// memOps restores every checkpoint the recorder kept and hashes the
// restored memory, checking it against the same boundary rebuilt by
// replay.
func memOps(o *opTimer, live, rebuilt []*epoch.Boundary) error {
	if len(live) != len(rebuilt) {
		return fmt.Errorf("recorder kept %d checkpoints, replay rebuilt %d", len(live), len(rebuilt))
	}
	for i, b := range live {
		var m *mem.Memory
		_, _ = o.call("mem.restore", func() (int64, error) {
			m = b.CP.MemSnap.Restore()
			return int64(m.PageCount()), nil
		})
		var got, want uint64
		_, _ = o.call("mem.hash", func() (int64, error) {
			got = m.Hash()
			return int64(m.PageCount()), nil
		})
		_, _ = o.call("mem.hash", func() (int64, error) {
			want = rebuilt[i].CP.MemSnap.Hash()
			return int64(rebuilt[i].CP.MemSnap.PageCount()), nil
		})
		if got != want {
			return fmt.Errorf("boundary %d: restored memory hashes to %016x, replay rebuilt %016x", i, got, want)
		}
	}
	return nil
}
