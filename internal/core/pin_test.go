package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"doubleplay/internal/dplog"
	"doubleplay/internal/profile"
	"doubleplay/internal/trace"
	"doubleplay/internal/workloads"
)

// pinRun is one recorder configuration whose complete output is pinned by
// digest: the encoded recording, the canonicalized trace, and everything
// else a caller can observe (Stats, metrics, races, divergence forensics
// and the guest profile). Together the configurations drive every commit
// outcome — verified, adopted state, re-run epoch and certified skip — and
// the controller, growth and observer paths that hang off them.
type pinRun struct {
	label   string
	name    string
	workers int
	opt     Options
	took    func(*Result) bool // the branch this configuration exists to pin
	log     string
	trace   string
	obs     string
}

var pinRuns = []pinRun{
	{label: "pbzip/2", name: "pbzip", workers: 2,
		took: func(r *Result) bool { return r.Stats.Divergences == 0 && r.Stats.Epochs > 1 },
		log:  "dea7f63b1ab544ee", trace: "d3cc841a6e1fa51f", obs: "d5da82280f864830"},
	{label: "racey/2", name: "racey", workers: 2,
		took: func(r *Result) bool { return r.Stats.HashRecoveries > 0 },
		log:  "08b51dc28ce2d757", trace: "3ce53bcb7e21e6bb", obs: "cab17b48cf8cad24"},
	{label: "webserve-racy/4", name: "webserve-racy", workers: 4,
		took: func(r *Result) bool { return r.Stats.Divergences > 0 },
		log:  "78afcad8eac35927", trace: "2ffdff7670f5807d", obs: "66c9dadc166b003f"},
	{label: "pbzip/4/unenforced", name: "pbzip", workers: 4, opt: Options{DisableSyncEnforcement: true},
		took: func(r *Result) bool { return r.Stats.RerunRecoveries > 0 },
		log:  "9b2a99c305b7b0e9", trace: "5ca1d148c7703de2", obs: "80bbb7fa379a8cc3"},
	{label: "sigping/2/certified", name: "sigping", workers: 2, opt: Options{VerifyPolicy: VerifyCertified},
		took: func(r *Result) bool { return r.Stats.VerifySkipped > 0 && r.Stats.Signals > 0 },
		log:  "3c9fddeb57fe1a4e", trace: "12728ac0590e2372", obs: "aee324a088f3c7a8"},
	{label: "pbzip/4/adaptive", name: "pbzip", workers: 4, opt: Options{SpareCPUs: 1, Adaptive: true, AdaptiveMinSpares: 1, AdaptiveMaxSpares: 4},
		took: func(r *Result) bool { return r.Stats.SpareGrows > 0 },
		log:  "5bde49ab4454da66", trace: "260a53c939b023fd", obs: "ea8fac13258b5a91"},
	{label: "racey/2/races+profile", name: "racey", workers: 2, opt: Options{DetectRaces: true, Profile: profile.NewProfile("racey")},
		took: func(r *Result) bool { return len(r.Races) > 0 && r.Stats.HashRecoveries > 0 },
		log:  "08b51dc28ce2d757", trace: "3ce53bcb7e21e6bb", obs: "245ae013d55e0346"},
	{label: "fft/2/growth", name: "fft", workers: 2, opt: Options{EpochGrowth: 2},
		took: func(r *Result) bool { return r.Stats.Epochs < 17 },
		log:  "c7cdf8c98ed845cb", trace: "97a6e282f799e4ab", obs: "9c49546b2aff58ad"},
}

// digest is a short sha256 fingerprint.
func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}

// TestRecorderOutputPinned records every pinRun with a buffered trace and a
// metrics registry attached and compares the three digests with pinned
// values. The recorder is deterministic, so a changed digest means a change
// to what it logs, narrates or reports — never host noise.
func TestRecorderOutputPinned(t *testing.T) {
	for _, p := range pinRuns {
		t.Run(p.label, func(t *testing.T) {
			wl := workloads.Get(p.name)
			if wl == nil {
				t.Fatalf("unknown workload %s", p.name)
			}
			bt := wl.Build(workloads.Params{Workers: p.workers, Scale: 1, Seed: 11})
			opt := p.opt
			opt.Workers, opt.RecordCPUs, opt.Seed = p.workers, p.workers, 11
			if opt.SpareCPUs == 0 {
				opt.SpareCPUs = p.workers
			}
			if opt.Profile != nil { // the table's profile only marks that one is wanted
				opt.Profile = profile.NewProfile(p.name)
			}
			sink := trace.NewSink()
			reg := trace.NewRegistry()
			opt.Trace, opt.Metrics = sink, reg
			res, err := Record(bt.Prog, bt.World, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !p.took(res) {
				t.Fatalf("configuration no longer takes its branch: %+v", res.Stats)
			}

			var buf bytes.Buffer
			if err := sink.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			evs, err := trace.ParseJSON(&buf)
			if err != nil {
				t.Fatal(err)
			}
			var obs bytes.Buffer
			fmt.Fprintf(&obs, "%+v\n%+v\n%+v\n", res.Stats, res.Races, res.Divergences)
			reg.Render(&obs)
			if opt.Profile != nil {
				obs.Write(opt.Profile.MarshalPprof())
			}
			got := [3]string{
				digest(dplog.MarshalBytes(res.Recording)),
				digest([]byte(strings.Join(canonicalize(evs), "\n"))),
				digest(obs.Bytes()),
			}
			if want := [3]string{p.log, p.trace, p.obs}; got != want {
				t.Errorf("digests (log, trace, obs) = %q, pinned %q", got, want)
			}
		})
	}
}
