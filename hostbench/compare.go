package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the compare step reads: each
// end-to-end metric's better direction and regression bound.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runRecord is one run's detail line.
type runRecord struct {
	path      string
	Stamp     stamp             `json:"stamp"`
	Correct   bool              `json:"correct"`
	Failed    int               `json:"failed"`
	SimDigest string            `json:"sim_digest"`
	OpDigests []string          `json:"op_digests"`
	EndToEnd  map[string]metric `json:"end_to_end"`
}

// readRun finds the detail line in one run's saved standard output.
func readRun(path string) (*runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), detailPrefix)
		if !ok {
			continue
		}
		rr := &runRecord{path: path}
		if err := json.Unmarshal([]byte(line), rr); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return rr, nil
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return nil, fmt.Errorf("%s: no %q line; is it a hostbench run's output?", path, strings.TrimSpace(detailPrefix))
}

// readRuns reads every untraced run saved in dir, in file-name order,
// grouped by workload. File-name order is run order: the i-th run of a
// workload in one set pairs with the i-th in the other.
func readRuns(dir string) (map[string][]*runRecord, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	out := map[string][]*runRecord{}
	for _, n := range names {
		rr, err := readRun(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		if !rr.Stamp.Trace {
			out[rr.Stamp.Workload] = append(out[rr.Stamp.Workload], rr)
		}
	}
	return out, nil
}

// verdict is one metric on one workload, parent against change.
type verdict struct {
	metric                string
	pairs, wins, losses   int
	baseMed, changeMed    float64
	baseQ1, baseQ3        float64
	changeQ1, changeQ3    float64
	spread                float64 // the wider side's IQR as a share of its median
	status                string  // improved, regressed, unresolved or same
	deltaPct, boundPct    float64
	allBetter, worseBound bool
}

// judge applies the rules for claiming a gain and for ruling out a
// regression to one metric's values from paired runs.
//
// A gain needs at least ten pairs, the change better in at least nine
// tenths of them (ties count for neither side), and medians further
// apart than the parent's interquartile range. A regression is a change
// median worse than the parent's by more than the bound. When either
// side's spread exceeds the bound the metric is unresolved, unless every
// change run reads better than every parent run; an unresolved metric
// whose change median is still worse by more than the bound (worseBound)
// fails the comparison too, since noise cannot be told from a regression
// that also made the metric noisier.
func judge(m specMetric, base, change []float64) verdict {
	v := verdict{metric: m.Name, boundPct: 100 * m.Bound}
	v.wins, v.losses, v.pairs = countWins(base, change, m.Better)
	v.baseMed, v.changeMed = median(base), median(change)
	v.baseQ1, v.baseQ3 = quartiles(base)
	v.changeQ1, v.changeQ3 = quartiles(change)
	v.spread = math.Max(iqrShare(base), iqrShare(change))
	v.deltaPct = 100 * ratio(v.changeMed-v.baseMed, math.Abs(v.baseMed))
	worst := func(xs []float64) float64 { // the change's worst run
		s := sorted(xs)
		if m.Better == "higher" {
			return s[0]
		}
		return s[len(s)-1]
	}
	best := func(xs []float64) float64 { // the parent's best run
		s := sorted(xs)
		if m.Better == "higher" {
			return s[len(s)-1]
		}
		return s[0]
	}
	v.allBetter = len(base) > 0 && len(change) > 0 && better(worst(change), best(base), m.Better)
	limit := v.baseMed * (1 + m.Bound)
	if m.Better == "higher" {
		limit = v.baseMed * (1 - m.Bound)
	}
	v.worseBound = better(limit, v.changeMed, m.Better)

	gain := v.pairs >= 10 && v.wins*10 >= v.pairs*9 &&
		math.Abs(v.changeMed-v.baseMed) > v.baseQ3-v.baseQ1 && better(v.changeMed, v.baseMed, m.Better)
	switch {
	case gain:
		v.status = "improved"
	case v.spread > m.Bound && !v.allBetter:
		v.status = "unresolved"
	case v.worseBound:
		v.status = "regressed"
	default:
		v.status = "same"
	}
	return v
}

// digestMismatches compares the simulated digests of runs with the same
// seed across the two sets: a change that only speeds the host up leaves
// every one identical. Op digests are compared over the ops both runs
// completed.
func digestMismatches(base, change []*runRecord) []string {
	bySeed := map[int64]*runRecord{}
	for _, r := range base {
		bySeed[r.Stamp.Seed] = r
	}
	var out []string
	for _, c := range change {
		b := bySeed[c.Stamp.Seed]
		if b == nil {
			continue
		}
		if b.SimDigest != c.SimDigest {
			out = append(out, fmt.Sprintf("seed %d: sim digest %s vs %s", c.Stamp.Seed, b.SimDigest, c.SimDigest))
			continue
		}
		n := min(len(b.OpDigests), len(c.OpDigests))
		for i := 0; i < n; i++ {
			if b.OpDigests[i] != c.OpDigests[i] {
				out = append(out, fmt.Sprintf("seed %d: op %d digest %s vs %s", c.Stamp.Seed, i, b.OpDigests[i], c.OpDigests[i]))
				break
			}
		}
	}
	return out
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "file naming each end-to-end metric's direction and bound")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: hostbench compare [-bench BENCHMARK.json] PARENT_DIR CHANGE_DIR")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	code, err := compare(os.Stdout, *specPath, fs.Arg(0), fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench compare:", err)
	}
	return code
}

// compare prints the verdicts of the change's runs against the parent's
// and returns the exit code: 0 when nothing regressed, no unresolved
// metric's change median is worse than its bound, no simulated digest
// moved and every run was correct; 1 otherwise; 2 when the two sets cannot
// be compared.
func compare(w io.Writer, specPath, baseDir, changeDir string) (int, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return 2, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return 2, fmt.Errorf("%s: %w", specPath, err)
	}
	base, err := readRuns(baseDir)
	if err != nil {
		return 2, err
	}
	change, err := readRuns(changeDir)
	if err != nil {
		return 2, err
	}
	hosts := map[string]bool{}
	for _, set := range []map[string][]*runRecord{base, change} {
		for _, rs := range set {
			for _, r := range rs {
				hosts[r.Stamp.host()] = true
			}
		}
	}
	if len(hosts) != 1 {
		var hs []string
		for h := range hosts {
			hs = append(hs, h)
		}
		sort.Strings(hs)
		return 2, fmt.Errorf("runs come from %d hosts, refusing to compare them: %s", len(hs), strings.Join(hs, "; "))
	}
	for h := range hosts {
		fmt.Fprintln(w, "host:", h)
	}

	var wls []string
	for wl := range base {
		if len(change[wl]) > 0 {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	if len(wls) == 0 {
		return 2, fmt.Errorf("no workload has untraced runs in both %s and %s", baseDir, changeDir)
	}

	code := 0
	var details []string
	fmt.Fprintf(w, "%-16s %5s %9s %8s %10s %8s  %s\n", "workload", "pairs", "regressed", "improved", "unresolved", "failed", "sim digests")
	for _, wl := range wls {
		b, c := base[wl], change[wl]
		var reg, imp, unres, unresWorse []string
		for _, m := range spec.EndToEnd {
			v := judge(m, values(b, m.Name), values(c, m.Name))
			switch v.status {
			case "regressed":
				reg = append(reg, m.Name)
			case "improved":
				imp = append(imp, m.Name)
			case "unresolved":
				if v.worseBound {
					unresWorse = append(unresWorse, m.Name)
				}
				unres = append(unres, m.Name)
			}
			status := v.status
			if v.status == "unresolved" && v.worseBound {
				status += ", median worse than the bound"
			}
			details = append(details, fmt.Sprintf("%-16s %-24s %5d %3d/%-3d %12.4f [%.4f %.4f] %12.4f [%.4f %.4f] %+8.2f%% %7.2f%% %6.1f%%  %s",
				wl, m.Name, v.pairs, v.wins, v.losses, v.baseMed, v.baseQ1, v.baseQ3,
				v.changeMed, v.changeQ1, v.changeQ3, v.deltaPct, 100*v.spread, v.boundPct, status))
		}
		failed := 0
		for _, r := range append(append([]*runRecord(nil), b...), c...) {
			if !r.Correct {
				failed++
			}
		}
		sim := "identical"
		if mm := digestMismatches(b, c); len(mm) > 0 {
			sim = "DIFFER: " + strings.Join(mm, "; ")
		}
		if len(reg) > 0 || len(unresWorse) > 0 || failed > 0 || sim != "identical" {
			code = 1
		}
		fmt.Fprintf(w, "%-16s %5d %9s %8s %10s %8d  %s\n", wl, min(len(b), len(c)),
			list(reg), list(imp), list(unres), failed, sim)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-16s %-24s %5s %7s %12s %-17s %12s %-17s %9s %8s %7s  %s\n", "workload", "metric", "pairs", "win/los",
		"parent p50", "[q1 q3]", "change p50", "[q1 q3]", "delta", "spread", "bound", "verdict")
	for _, d := range details {
		fmt.Fprintln(w, d)
	}
	return code, nil
}

// values returns one end-to-end metric's value from each run.
func values(rs []*runRecord, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.EndToEnd[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// list prints a count and the names behind it.
func list(names []string) string {
	if len(names) == 0 {
		return "0"
	}
	return fmt.Sprintf("%d:%s", len(names), strings.Join(names, ","))
}
