package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the repository's BENCHMARK.json, as far as this
// package reads it.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesLedger keeps BENCHMARK.json and the metrics the
// program reports in step: every metric listed is one the program prints,
// with the same unit and direction, and every gated workload exists.
func TestBenchmarkJSONMatchesLedger(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if i < len(endToEnd) && (m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit || m.Better != endToEnd[i].Better) {
			t.Errorf("end_to_end[%d] = %s %s %s, program reports %s %s %s", i, m.Name, m.Unit, m.Better,
				endToEnd[i].Name, endToEnd[i].Unit, endToEnd[i].Better)
		}
	}
	if len(b.PerLayer) != len(ledger) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(b.PerLayer), len(ledger))
	}
	for i, m := range b.PerLayer {
		if i < len(ledger) && (m.Name != ledger[i].Name || m.Unit != ledger[i].Unit || m.Better != ledger[i].Better) {
			t.Errorf("per_layer[%d] = %s %s %s, program reports %s %s %s", i, m.Name, m.Unit, m.Better,
				ledger[i].Name, ledger[i].Unit, ledger[i].Better)
		}
	}
}
