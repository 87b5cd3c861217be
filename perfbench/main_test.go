package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []metricDef) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, metricDef{m.Name, m.Unit})
	}
	return endToEnd, perLayer
}

// tinyRun runs one warm-up and one measured round of a workload at
// self-test sizes.
func tinyRun(t *testing.T, workload string, seed uint64, trace, flip bool) (*outcome, *result) {
	t.Helper()
	cfg := config{workload: workload, seed: seed, trace: trace, spansDir: t.TempDir(), tiny: true, flipFirst: flip}
	o, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	res, _, err := resultOf(o, cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return o, res
}

// failures lists every failed broadcast's reasons.
func failures(o *outcome) []string {
	var out []string
	for _, bc := range o.all {
		out = append(out, bc.failures...)
	}
	return out
}

func metricNames(res *result) []string {
	var names []string
	for name := range res.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// every is each workload the benchmark runs, declared or not.
var every = append(workloads, smallFiles)

func TestEveryWorkloadEmitsEveryDeclaredMetric(t *testing.T) {
	e2e, layers := declared(t)
	if !slices.Equal(e2e, endToEnd) || !slices.Equal(layers, perLayer) {
		t.Fatal("the metrics BENCHMARK.json declares differ from the ones the benchmark computes")
	}
	for _, w := range every {
		for _, trace := range []bool{false, true} {
			o, res := tinyRun(t, w.name, 1, trace, false)
			want := e2e
			if trace {
				want = layers
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if got, ok := res.Metrics[d.name]; !ok || got.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or not in %s", w.name, trace, d.name, d.unit)
				}
			}
			if !res.Correct || res.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d: %v", w.name, trace, res.Correct, res.Attempted, failures(o))
			}
			// A failed broadcast with every byte intact is the program's
			// doing (a report naming a healthy node), which the benchmark
			// exists to count, not this test to rule out.
			if res.Failed != 0 {
				t.Logf("%s trace=%v: %d of %d broadcasts failed: %v", w.name, trace, res.Failed, res.Attempted, failures(o))
			}
		}
	}
}

func TestFlippedByteCountsAsFailed(t *testing.T) {
	for _, w := range every {
		o, res := tinyRun(t, w.name, 1, false, true)
		mismatched := 0
		for _, bc := range o.all {
			if slices.ContainsFunc(bc.failures, func(f string) bool { return strings.Contains(f, "mismatch=true") }) {
				mismatched++
			}
		}
		if res.Correct || res.Failed < 1 || mismatched != 1 {
			t.Errorf("%s: a sink fed one flipped byte gave correct=%v failed=%d of %d, %d broadcasts with a mismatch; want correct=false and exactly one: %v",
				w.name, res.Correct, res.Failed, res.Attempted, mismatched, failures(o))
		}
	}
}

func TestSeedChangesPayloadNotMetricNames(t *testing.T) {
	for _, w := range every {
		o1, r1 := tinyRun(t, w.name, 1, false, false)
		o2, r2 := tinyRun(t, w.name, 2, false, false)
		if bytes.Equal(o1.all[0].src.p, o2.all[0].src.p) {
			t.Errorf("%s: seeds 1 and 2 generated the same payload", w.name)
		}
		if !slices.Equal(metricNames(r1), metricNames(r2)) {
			t.Errorf("%s: metric names differ between seeds: %v vs %v", w.name, metricNames(r1), metricNames(r2))
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 12; i++ {
		xs = append(xs, float64(i))
	}
	if q, _ := tail(xs); q != 0.5 {
		t.Errorf("12 samples: tail percentile %v, want the median", q)
	}
	for i := 13; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	// p90 of 100 samples leaves 9 beyond it, p75 leaves 24.
	if q, _ := tail(xs); q != 0.75 {
		t.Errorf("100 samples: tail percentile %v, want 0.75", q)
	}
	for i := 101; i <= 3000; i++ {
		xs = append(xs, float64(i))
	}
	if q, _ := tail(xs); q != 0.95 {
		t.Errorf("3000 samples: tail percentile %v, want the ladder's top, 0.95", q)
	}
}
