package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestWorkloadsQuick runs every workload of BENCHMARK.json for a
// fraction of a second, untraced and traced, and checks that each run
// answers correctly and prints exactly the metrics BENCHMARK.json
// names, with their units.
func TestWorkloadsQuick(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bm.Workloads), len(workloadNames))
	}
	if len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark has %d", len(bm.PerLayer), len(perLayer))
	}
	for i, w := range bm.Workloads {
		for _, trace := range []bool{false, true} {
			// Every traced run prints every per-layer metric, so -short
			// traces one workload only.
			if trace && i > 0 && testing.Short() {
				continue
			}
			want := bm.EndToEnd
			name := w.Name
			if trace {
				want, name = bm.PerLayer, name+"/trace"
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				cfg := config{workload: w.Name, seed: defaultSeed, seconds: 0.3, trace: trace, out: t.TempDir(), src: "..", setupReps: 1}
				res, err := run(cfg, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, %d of %d failed\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if !strings.Contains(out.String(), "metric "+m.Name+" ") {
						t.Errorf("report does not print %s", m.Name)
					}
				}
			})
		}
	}
}
