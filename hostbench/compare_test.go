package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func series(base float64, step float64, n int) []float64 {
	var out []float64
	for i := 0; i < n; i++ {
		out = append(out, base+step*float64(i%5))
	}
	return out
}

// noisyWorse is a change that slowed down by far more than a 0.1 bound
// and also became noisier (a bimodal stall): at least one of its runs
// beats the parent's worst, so it is unresolved rather than regressed.
var noisyWorse = []float64{100, 150, 115, 160, 120, 140, 112, 155, 118, 145}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "lat", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "tput", Better: "higher", Bound: 0.1}
	cases := []struct {
		name         string
		m            specMetric
		base, change []float64
		want         string
	}{
		{"steady and equal", lower, series(100, 1, 10), series(100, 1, 10), "same"},
		{"clear gain, lower", lower, series(100, 1, 10), series(80, 1, 10), "improved"},
		{"clear gain, higher", higher, series(100, 1, 10), series(120, 1, 10), "improved"},
		{"gain needs ten pairs", lower, series(100, 1, 9), series(80, 1, 9), "same"},
		{"worse beyond the bound, lower", lower, series(100, 1, 10), series(115, 1, 10), "regressed"},
		{"worse beyond the bound, higher", higher, series(100, 1, 10), series(85, 1, 10), "regressed"},
		{"worse within the bound", lower, series(100, 1, 10), series(105, 1, 10), "same"},
		{"spread wider than the bound", lower, series(100, 10, 10), series(100, 10, 10), "unresolved"},
		{"steady parent, noisy and worse change", lower, series(100, 1, 10), noisyWorse, "unresolved"},
		// The medians differ by less than the parent's IQR, so no gain is
		// claimed, but every change run beats every parent run.
		{"wide spread, every change run better", lower, series(100, 10, 10), []float64{95, 96, 97, 98, 99, 95, 96, 97, 98, 99}, "same"},
	}
	for _, c := range cases {
		if got := judge(c.m, c.base, c.change).status; got != c.want {
			t.Errorf("%s: %s; want %s", c.name, got, c.want)
		}
	}
	if v := judge(lower, series(100, 1, 10), noisyWorse); !v.worseBound {
		t.Errorf("noisy and worse change: median %.1f against %.1f not flagged as worse than the bound", v.changeMed, v.baseMed)
	}
	if v := judge(lower, series(100, 10, 10), series(100, 10, 10)); v.worseBound {
		t.Errorf("noisy, equal change flagged as worse than the bound")
	}
}

// writeRuns saves one fake run output per seed, as run.sh would print it.
func writeRuns(t *testing.T, dir, cpu string, vals []float64, simDigest func(seed int) string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		d := map[string]any{
			"stamp":      stamp{Workload: "compute", Seed: int64(i + 1), CPU: cpu, NProc: 2, GOMAXPROCS: 2, Go: "go1.x"},
			"correct":    true,
			"sim_digest": simDigest(i + 1),
			"op_digests": []string{simDigest(i + 1)},
			"end_to_end": map[string]metric{"lat": {Value: v, Unit: "ms"}},
		}
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		out := "e2e lat\n" + detailPrefix + string(b) + "\n{}\n"
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("run-%02d.txt", i)), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"lat","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	same := func(seed int) string { return fmt.Sprint("d", seed) }
	writeRuns(t, filepath.Join(dir, "parent"), "cpuA", series(100, 1, 10), same)
	writeRuns(t, filepath.Join(dir, "faster"), "cpuA", series(80, 1, 10), same)
	writeRuns(t, filepath.Join(dir, "slower"), "cpuA", series(120, 1, 10), same)
	writeRuns(t, filepath.Join(dir, "noisyworse"), "cpuA", noisyWorse, same)
	writeRuns(t, filepath.Join(dir, "noisysame"), "cpuA", []float64{90, 110, 95, 112, 100, 88, 108, 101, 99, 115}, same)
	writeRuns(t, filepath.Join(dir, "moved"), "cpuA", series(100, 1, 10), func(seed int) string { return fmt.Sprint("x", seed) })
	writeRuns(t, filepath.Join(dir, "otherhost"), "cpuB", series(100, 1, 10), same)

	for _, c := range []struct {
		change string
		code   int
		want   string
	}{
		{"faster", 0, "1:lat"}, // improved column
		{"slower", 1, "1:lat"}, // regressed column
		{"noisyworse", 1, "unresolved, median worse than the bound"},
		{"noisysame", 0, "unresolved"},
		{"moved", 1, "DIFFER"},
	} {
		var out strings.Builder
		code, err := compare(&out, spec, filepath.Join(dir, "parent"), filepath.Join(dir, c.change))
		if err != nil || code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: code %d err %v; want code %d and %q in:\n%s", c.change, code, err, c.code, c.want, out.String())
		}
	}
	code, err := compare(&strings.Builder{}, spec, filepath.Join(dir, "parent"), filepath.Join(dir, "otherhost"))
	if code != 2 || err == nil || !strings.Contains(err.Error(), "hosts") {
		t.Errorf("mixing hosts: code %d err %v; want refusal with code 2", code, err)
	}
}
