package main

import (
	"strings"
	"testing"

	"kascade/internal/benchkit"
)

// TestBenchEngineSpecReportsBroadcastError: a spec whose broadcast fails
// ends its benchmark run and comes back as an error naming the row,
// instead of crashing the command or writing a zeroed row.
func TestBenchEngineSpecReportsBroadcastError(t *testing.T) {
	spec := benchkit.Spec{Name: "Broken/topology=star", Nodes: 2, Chunk: 64 << 10, Size: 64 << 10, Topology: "star"}
	res, err := benchEngineSpec(spec)
	if err == nil || !strings.HasPrefix(err.Error(), spec.Name+": ") {
		t.Fatalf("error %v, want one naming %s", err, spec.Name)
	}
	if res != (engineResult{}) {
		t.Fatalf("failed spec produced a row: %+v", res)
	}
}

// TestBenchEngineSpecMeasures: a healthy spec yields a populated row.
func TestBenchEngineSpecMeasures(t *testing.T) {
	spec := benchkit.Spec{Name: "Tiny/nodes=2", Nodes: 2, Chunk: 64 << 10, Size: 256 << 10}
	res, err := benchEngineSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 1 || res.NsPerOp <= 0 || res.MBPerSec <= 0 {
		t.Fatalf("row not populated: %+v", res)
	}
}
