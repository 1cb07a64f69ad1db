package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"doubleplay/internal/core"
	"doubleplay/internal/server"
	"doubleplay/internal/workloads"
)

// ref is one reference recording the serve workload replays by id: a
// scale-1 program and seed, recorded once during set-up.
type ref struct {
	prog    string
	seed    int64
	native  int64 // native cycles
	jobID   string
	hash    string // final hash the record job reported
	stats   core.Stats
	retired int64
}

// serveLoop drives an in-process job server over its HTTP API on
// loopback. One generator submits jobs on a schedule fixed in advance
// (an open loop: users are independent, so a slow server does not slow
// the arrivals); completion is learnt by polling after the window, and
// latency comes from the server's own timestamps.
type serveLoop struct {
	cfg    config
	dir    string
	srv    *server.Server
	hs     *httptest.Server
	client *http.Client
	refs   []*ref
}

// serveProgs are the record jobs' programs: small enough that a job
// takes tens of milliseconds. Each gets two seeds, so repeated record
// jobs hit the store's dedup.
var serveProgs = []string{"kvdb", "aget", "fft"}

const serveWorkers = 2

// serveRate is how many jobs a second the generator submits. The pool's
// capacity is about 24 jobs/s on a two-core Xeon. At 12/s, half of it, a
// slower host minute meant more overlapping jobs and longer queues, which
// amplified the host's drift: ten runs spread 35-48%. At 9/s they spread
// 3-13% on an uncontended host, and a 20 s run is ten whole blocks of the
// job mix.
const serveRate = 9

func newServe(cfg config) *serveLoop {
	s := &serveLoop{cfg: cfg}
	for _, p := range serveProgs {
		for k := 0; k < 2; k++ {
			s.refs = append(s.refs, &ref{prog: p, seed: deriveSeed(cfg.seed, p, k)})
		}
	}
	return s
}

func (s *serveLoop) setup() error {
	for _, rf := range s.refs {
		bt := workloads.Get(rf.prog).Build(workloads.Params{Workers: serveWorkers, Seed: rf.seed})
		nat, err := core.RunNative(bt.Prog, bt.World, serveWorkers, rf.seed, nil)
		if err != nil {
			return fmt.Errorf("native run of %s: %w", rf.prog, err)
		}
		rf.native = nat.Cycles
	}
	dir, err := os.MkdirTemp(s.cfg.outDir, "serve-")
	if err != nil {
		return err
	}
	s.dir = dir
	nproc := runtime.NumCPU()
	if s.srv, err = server.New(server.Config{DataDir: dir, Workers: nproc}); err != nil {
		return err
	}
	s.srv.Start()
	s.hs = httptest.NewServer(s.srv.Handler())
	s.client = &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}

	// Warm-up: record every reference, then replay one both ways.
	var ids []string
	for _, rf := range s.refs {
		info, code, err := s.submit(recordSpec(rf))
		if err != nil || code != http.StatusAccepted {
			return fmt.Errorf("submitting reference recording: status %d, %v", code, err)
		}
		rf.jobID = info.ID
		ids = append(ids, info.ID)
	}
	infos, err := s.await(ids, time.Now().Add(time.Minute))
	if err != nil {
		return err
	}
	for i, rf := range s.refs {
		in := infos[i]
		if in.State != server.StateDone || in.Result == nil {
			return fmt.Errorf("reference recording %s seed %d: %s %s", rf.prog, rf.seed, in.State, in.Error)
		}
		rf.hash = in.Result.FinalHash
		if err := s.getJSON("/jobs/"+rf.jobID+"/stats", &rf.stats); err != nil {
			return err
		}
		rf.retired = rf.stats.Retired
	}
	ids = ids[:0]
	for _, mode := range []string{server.ModeSequential, server.ModeParallel} {
		info, code, err := s.submit(replaySpec(s.refs[0], mode))
		if err != nil || code != http.StatusAccepted {
			return fmt.Errorf("submitting warm-up replay: status %d, %v", code, err)
		}
		ids = append(ids, info.ID)
	}
	infos, err = s.await(ids, time.Now().Add(time.Minute))
	if err != nil {
		return err
	}
	for _, in := range infos {
		if err := s.check(in, s.refs[0]); err != nil {
			return fmt.Errorf("warm-up replay: %w", err)
		}
	}
	return nil
}

func (s *serveLoop) close() {
	if s.hs != nil {
		s.hs.Close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		_ = s.srv.Shutdown(ctx) // every job has finished by now; nothing is left to drain
		cancel()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

func recordSpec(rf *ref) server.Spec {
	return server.Spec{Kind: server.KindRecord, Workload: rf.prog, Workers: serveWorkers, Seed: rf.seed}
}

func replaySpec(rf *ref, mode string) server.Spec {
	return server.Spec{Kind: server.KindReplay, RecordingJob: rf.jobID, Mode: mode}
}

// sent is one scheduled job and what became of it.
type sent struct {
	kind       string // "record", "sequential" or "parallel"
	ref        *ref
	due        time.Time
	start, end time.Time // the POST round trip
	id         string
	info       server.Info
}

func (s *serveLoop) measure(r *run, deadline time.Time) {
	for _, rf := range s.refs {
		r.addSim(rf.stats, rf.native)
		r.opDigests = append(r.opDigests, digest(rf.prog, rf.seed, rf.hash, rf.stats))
	}
	r.open = true
	rng := rand.New(rand.NewSource(deriveSeed(s.cfg.seed, "schedule")))
	interval := time.Second / serveRate
	t0 := time.Now()
	var jobs, deck []*sent
	var lags []float64
	rejected := 0
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(k) * interval)
		if !due.Before(deadline) {
			break
		}
		if len(deck) == 0 {
			deck = s.deal(rng)
		}
		j := deck[0]
		deck = deck[1:]
		j.due = due
		time.Sleep(time.Until(due))
		spec := recordSpec(j.ref)
		if j.kind != string(server.KindRecord) {
			spec = replaySpec(j.ref, j.kind)
		}
		j.start = time.Now()
		lags = append(lags, float64(j.start.Sub(due).Nanoseconds())/1e6)
		info, code, err := s.submit(spec)
		j.end = time.Now()
		r.attempted++
		switch {
		case err != nil:
			r.fail(fmt.Sprintf("job %d submit", k), err)
		case code == http.StatusTooManyRequests:
			rejected++
			r.fail(fmt.Sprintf("job %d submit", k), fmt.Errorf("rejected: queue full"))
		case code != http.StatusAccepted:
			r.fail(fmt.Sprintf("job %d submit", k), fmt.Errorf("status %d", code))
		default:
			j.id = info.ID
		}
		jobs = append(jobs, j)
	}
	r.window = deadline.Sub(t0)

	var ids []string
	for _, j := range jobs {
		if j.id != "" {
			ids = append(ids, j.id)
		}
	}
	infos, err := s.await(ids, time.Now().Add(time.Minute))
	if err != nil {
		r.fail("awaiting jobs", err)
	}
	byID := map[string]server.Info{}
	for _, in := range infos {
		byID[in.ID] = in
	}
	var recorded int64
	for _, rf := range s.refs {
		recorded += rf.retired
	}
	seen := map[string]int{}
	for k, j := range jobs {
		traced := r.opTracer(seen[j.kind]) != nil
		seen[j.kind]++
		if j.id == "" {
			r.opDigests = append(r.opDigests, "failed")
			continue
		}
		j.info = byID[j.id]
		if err := s.check(j.info, j.ref); err != nil {
			r.fail(fmt.Sprintf("job %d (%s %s seed %d)", k, j.kind, j.ref.prog, j.ref.seed), err)
			r.opDigests = append(r.opDigests, "failed")
			continue
		}
		r.opDigests = append(r.opDigests, digest(j.kind, j.ref.prog, j.ref.seed, j.info.State, j.info.Result.FinalHash))
		started, finished := *j.info.Started, *j.info.Finished
		r.latency(finished.Sub(j.due), j.kind, traced)
		if !finished.After(deadline) {
			r.done++
		}
		switch j.kind {
		case string(server.KindRecord):
			r.rec.add(j.ref.retired, finished.Sub(started))
			recorded += j.ref.retired
		case server.ModeSequential:
			r.seq.add(j.ref.retired, finished.Sub(started))
		case server.ModeParallel:
			r.par.add(j.ref.retired, finished.Sub(started))
		}
		if traced {
			s.spans(r.tr, int64(k+1), j, started, finished)
		}
	}

	r.rejected = rejected
	r.layer["loadgen.lag_p50_ms"] = percentile(lags, 50)
	r.layer["loadgen.lag_max_ms"] = percentile(lags, 100)
	if rep, err := s.srv.Store().Stats(); err != nil {
		r.fail("store stats", err)
	} else {
		r.layer["store.dedup_ratio"] = rep.DedupRatio
		r.layer["store.stored_bytes_per_minstr"] = ratio(float64(rep.StoredBytes), float64(recorded)/1e6)
	}
}

// deal returns the next block of the schedule: every reference recorded
// once and replayed once each way, in a seeded order. Whole blocks keep
// the job mix the same for every seed, so seeds differ only in order.
// Equal thirds put the median latency inside one kind's cluster rather
// than in the gap between two, where it jumped 20% between runs.
func (s *serveLoop) deal(rng *rand.Rand) []*sent {
	var block []*sent
	for _, rf := range s.refs {
		for _, kind := range []string{string(server.KindRecord), server.ModeSequential, server.ModeParallel} {
			block = append(block, &sent{kind: kind, ref: rf})
		}
	}
	rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	return block
}

// spans records a job's timeline, taken from the server's timestamps,
// as a bench.job span with the submit round trip, the queue wait and the
// run beneath it.
func (s *serveLoop) spans(tr *tracer, op int64, j *sent, started, finished time.Time) {
	root := tr.newID()
	tr.add(span{id: root, op: op, name: "bench.job", start: tr.since(j.due), end: tr.since(finished), n: 1})
	child := func(name string, a, b time.Time) {
		tr.add(span{id: tr.newID(), parent: root, op: op, name: name, start: tr.since(a), end: tr.since(b), n: 1})
	}
	child("server.submit", j.start, j.end)
	child("server.queue_wait", j.info.Created, started)
	child("server.run", started, finished)
}

// check verifies that a job finished and reproduced its reference's
// final hash.
func (s *serveLoop) check(in server.Info, rf *ref) error {
	if in.State != server.StateDone {
		return fmt.Errorf("job %s is %s: %s", in.ID, in.State, in.Error)
	}
	if in.Result == nil || in.Started == nil || in.Finished == nil {
		return fmt.Errorf("job %s is done but reports no result or timestamps", in.ID)
	}
	if in.Result.FinalHash != rf.hash {
		return fmt.Errorf("job %s final hash %s, reference %s", in.ID, in.Result.FinalHash, rf.hash)
	}
	return nil
}

// submit posts one job spec and returns the server's answer.
func (s *serveLoop) submit(sp server.Spec) (server.Info, int, error) {
	var info server.Info
	body, err := json.Marshal(sp)
	if err != nil {
		return info, 0, err
	}
	resp, err := s.client.Post(s.hs.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return info, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return info, resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusAccepted {
		err = json.Unmarshal(b, &info)
	}
	return info, resp.StatusCode, err
}

func (s *serveLoop) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.hs.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// await polls GET /jobs/{id} until every job is terminal or the deadline
// passes, and returns their final states in the order of ids.
func (s *serveLoop) await(ids []string, deadline time.Time) ([]server.Info, error) {
	out := make([]server.Info, len(ids))
	pending := make([]int, len(ids))
	for i := range ids {
		pending[i] = i
	}
	for len(pending) > 0 {
		var still []int
		for _, i := range pending {
			if err := s.getJSON("/jobs/"+ids[i], &out[i]); err != nil {
				return out, err
			}
			if !out[i].State.Terminal() {
				still = append(still, i)
			}
		}
		pending = still
		if len(pending) > 0 {
			if time.Now().After(deadline) {
				return out, fmt.Errorf("%d jobs still unfinished", len(pending))
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return out, nil
}
