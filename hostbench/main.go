// Command hostbench is the repository's host-time benchmark: it drives the
// recorder, the replay engines, the log format, the artifact store and the
// job server through their public functions, on one named workload
// generated from a seed, checks every output, and prints end-to-end
// metrics (untraced) or per-layer metrics (traced). README.md in this
// directory lists the metrics and workloads; run.sh builds and runs it.
//
//	hostbench -workload compute -seed 1 -seconds 20 -trace 0
//	hostbench compare [-bench BENCHMARK.json] PARENT_DIR CHANGE_DIR
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// config is one run's settings; the workload sees only what it derives
// from seed.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string
	commit   string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 20, "how long the measured window lasts")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and prints per-layer metrics; 0 prints end-to-end metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/hostbench", "directory for temporary stores and trace files")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit being measured, stamped on the result")
	flag.Parse()

	if flag.NArg() > 0 && flag.Arg(0) == "compare" {
		os.Exit(compareMain(flag.Args()[1:]))
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "hostbench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "hostbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	if newWorkload(cfg.workload, cfg) == nil {
		fmt.Fprintf(os.Stderr, "hostbench: unknown workload %q (want one of %v)\n", cfg.workload, workloadNames())
		os.Exit(2)
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "hostbench: -seconds must be >= 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	printResult(res)
}

// metric is one named, unit-carrying value.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports. The detail line carries all of
// it for the compare step; the last line carries the contract subset.
type result struct {
	Stamp      stamp             `json:"stamp"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Rejected   int               `json:"rejected"`
	Failures   []string          `json:"failures,omitempty"`
	Samples    int               `json:"samples"`
	TailPct    int               `json:"tail_percentile"`
	SetupsS    []float64         `json:"setups_s"`
	MaxRSS     float64           `json:"max_rss_mb"`
	SetupSteal []float64         `json:"setup_steal"`
	Steal      float64           `json:"steal"`
	CalibMS    float64           `json:"calib_ms"`
	Raw        map[string]metric `json:"end_to_end_unscaled"`
	EndToEnd   []metric          `json:"-"`
	PerLayer   []metric          `json:"-"`
	SimDigest  string            `json:"sim_digest"`
	OpDigests  []string          `json:"op_digests"`
	TraceFile  string            `json:"trace_file,omitempty"`
	Overhead   string            `json:"tracing_overhead,omitempty"`
}

func metricMap(ms []metric) map[string]metric {
	out := make(map[string]metric, len(ms))
	for _, m := range ms {
		out[m.Name] = m
	}
	return out
}

// detailPrefix starts the line that carries a run's full result.
const detailPrefix = "hostbench-detail "

func printResult(res *result) {
	fmt.Printf("workload %s seed %d trace %v: %d ops attempted, %d failed (%d rejected), error_rate %g\n",
		res.Stamp.Workload, res.Stamp.Seed, res.Stamp.Trace, res.Attempted, res.Failed, res.Rejected, errorRate(res))
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, tree %s\n",
		res.Stamp.CPU, res.Stamp.NProc, res.Stamp.GOMAXPROCS, res.Stamp.Go, res.Stamp.Commit, res.Stamp.Tree)
	fmt.Printf("job latency samples %d (highest percentile with >= 10 beyond: p%d)\n", res.Samples, res.TailPct)
	for _, f := range res.Failures {
		fmt.Println("FAIL", f)
	}
	for _, m := range res.EndToEnd {
		fmt.Printf("e2e   %-28s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range res.PerLayer {
		fmt.Printf("layer %-28s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	if res.Overhead != "" {
		fmt.Println("tracing overhead:", res.Overhead)
	}
	if res.TraceFile != "" {
		fmt.Println("trace written to", res.TraceFile)
	}
	fmt.Println("sim digest", res.SimDigest)

	detail := struct {
		*result
		EndToEnd map[string]metric `json:"end_to_end"`
		PerLayer map[string]metric `json:"per_layer,omitempty"`
	}{res, metricMap(res.EndToEnd), metricMap(res.PerLayer)}
	b, err := json.Marshal(detail)
	if err != nil {
		panic(err) // every field is a plain value
	}
	fmt.Println(detailPrefix + string(b))

	out := res.EndToEnd
	if res.Stamp.Trace {
		out = res.PerLayer
	}
	last, err := json.Marshal(map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metricMap(out),
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(last))
}

func errorRate(res *result) float64 {
	if res.Attempted == 0 {
		return 1
	}
	return float64(res.Failed) / float64(res.Attempted)
}

// tracePath names the Chrome trace file of a traced run.
func tracePath(cfg config) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
}
