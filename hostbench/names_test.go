package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The benchmark must print exactly the metrics BENCHMARK.json declares,
// with the declared units, in both modes.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	r := &run{tr: newTracer(), layer: map[string]float64{}, byKind: map[string]*[2][]float64{}}
	for _, c := range []struct {
		mode     string
		declared []specMetric
		printed  []metric
	}{
		{"end_to_end", spec.EndToEnd, endToEnd(r, 1, 1, 1)},
		{"per_layer", spec.PerLayer, perLayer(r)},
	} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", c.mode, len(c.declared), len(c.printed))
		}
		printed := metricMap(c.printed)
		for _, d := range c.declared {
			m, ok := printed[d.Name]
			if !ok {
				t.Errorf("%s: %s is declared but not printed", c.mode, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("%s: %s printed in %s, declared in %s", c.mode, d.Name, m.Unit, d.Unit)
			}
		}
	}
}
