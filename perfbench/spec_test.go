package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics and
// workloads this program reports in step.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		spec []metric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.spec), len(c.defs))
		}
		for i, m := range c.spec {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", c.kind, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
