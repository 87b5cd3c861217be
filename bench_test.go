// Package kascade_test holds the top-level benchmark harness: one benchmark
// per table/figure of the paper (regenerating it on the simulator and
// reporting the headline throughput), the design-choice ablations, and
// microbenchmarks of the real protocol engine over the in-memory fabric and
// loopback TCP.
//
// Figure benchmarks run the experiment at a reduced file-size scale so each
// iteration stays in benchmark territory; `cmd/kascade-bench -scale 1`
// regenerates the full-size tables.
package kascade_test

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"kascade/internal/benchkit"
	"kascade/internal/core"
	"kascade/internal/experiments"
	"kascade/internal/stats"
	"kascade/internal/transport"
)

// benchFigure runs one experiment per iteration and reports the mean of the
// named column at the last x-axis point.
func benchFigure(b *testing.B, id, column string) {
	b.Helper()
	e, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := experiments.Config{Reps: 1, Seed: 7, Scale: 0.05}
	if id == "fig15" || id == "abl-timeout" {
		cfg.Scale = 0.6 // late sequential failures must land mid-transfer
	}
	var tab *stats.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab = e.Run(cfg)
	}
	b.StopTimer()
	ci := 0
	for i, c := range tab.Columns {
		if c == column {
			ci = i
		}
	}
	last := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(last.Cells[ci].Mean, "MB/s")
}

func BenchmarkFigure07_Scalability1GbE(b *testing.B) { benchFigure(b, "fig7", "Kascade") }
func BenchmarkFigure08_TenGbE(b *testing.B)          { benchFigure(b, "fig8", "Kascade") }
func BenchmarkFigure09_InfiniBand(b *testing.B)      { benchFigure(b, "fig9", "Kascade") }
func BenchmarkFigure10_RandomOrder(b *testing.B)     { benchFigure(b, "fig10", "Kascade") }
func BenchmarkFigure11_DiskBound(b *testing.B)       { benchFigure(b, "fig11", "Kascade") }
func BenchmarkFigure13_MultiSiteWAN(b *testing.B)    { benchFigure(b, "fig13", "Kascade") }
func BenchmarkFigure14_SmallFile(b *testing.B)       { benchFigure(b, "fig14", "Kascade") }
func BenchmarkFigure15_FaultTolerance(b *testing.B)  { benchFigure(b, "fig15", "Kascade") }
func BenchmarkAblationTimeout(b *testing.B)          { benchFigure(b, "abl-timeout", "Kascade") }
func BenchmarkAblationWindow(b *testing.B)           { benchFigure(b, "abl-window", "Kascade") }
func BenchmarkAblationArity(b *testing.B)            { benchFigure(b, "abl-arity", "TakTuk") }
func BenchmarkAblationStartupWindow(b *testing.B)    { benchFigure(b, "abl-startup", "Kascade") }
func BenchmarkAblationPipelineDepth(b *testing.B)    { benchFigure(b, "abl-depth", "Kascade") }

// benchEngine runs every benchkit spec under the given top-level prefix,
// so these benchmarks and the BENCH_1.json rows emitted by
// `kascade-bench -engine` share one matrix (names included).
func benchEngine(b *testing.B, prefix string) {
	for _, spec := range benchkit.EngineBenchmarks() {
		name, ok := strings.CutPrefix(spec.Name, prefix+"/")
		if !ok {
			continue
		}
		spec := spec
		b.Run(name, func(b *testing.B) {
			b.SetBytes(spec.Size)
			for i := 0; i < b.N; i++ {
				if _, err := spec.Broadcast(); err != nil {
					if spec.Loopback && i == 0 {
						b.Skipf("loopback sockets unavailable: %v", err)
					}
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnginePipeline measures the real protocol engine end to end over
// the in-memory fabric at several pipeline lengths.
func BenchmarkEnginePipeline(b *testing.B) { benchEngine(b, "EnginePipeline") }

// BenchmarkEngineChunkSize sweeps the protocol chunk size (the §III-C
// design knob) on a fixed 5-node pipeline.
func BenchmarkEngineChunkSize(b *testing.B) { benchEngine(b, "EngineChunkSize") }

// BenchmarkEngineSplice is the kernel-relay ablation: the same loopback
// pipeline with the kernel tee relay hidden (off) and in its default
// state (on).
func BenchmarkEngineSplice(b *testing.B) { benchEngine(b, "EngineSplice") }

// BenchmarkEngineUDP measures the batched datagram fan-out over real
// loopback UDP (sendmmsg/recvmmsg on Linux).
func BenchmarkEngineUDP(b *testing.B) { benchEngine(b, "EngineUDP") }

// BenchmarkEngineTree measures the k-ary tree topology on the fabric:
// the same 16 nodes as EnginePipeline/nodes=16, but 4 hops deep instead
// of 15, each relay serving two children from its window.
func BenchmarkEngineTree(b *testing.B) { benchEngine(b, "EngineTree") }

// BenchmarkEngineTreeRerank is the self-reorganization ablation: the same
// binary tree on a rate-shaped fabric where node 1's outbound links run at
// one tenth of the rest, with mid-broadcast re-ranking off and on.
func BenchmarkEngineTreeRerank(b *testing.B) { benchEngine(b, "EngineTreeRerank") }

// BenchmarkEngineLateJoin prices dynamic membership: the 16-node rerank
// tree of EngineTreeRerank with one late joiner grafted at 50% of the
// transfer, measured to the joiner's catch-up parity.
func BenchmarkEngineLateJoin(b *testing.B) { benchEngine(b, "EngineLateJoin") }

// BenchmarkEngineTCPLoopback measures the real engine over genuine TCP
// sockets on the loopback interface.
func BenchmarkEngineTCPLoopback(b *testing.B) {
	const size = 16 << 20
	payload := benchkit.Payload(size, 7)
	peers := make([]core.Peer, 4)
	for i := range peers {
		peers[i] = core.Peer{Name: fmt.Sprintf("n%d", i+1), Addr: "127.0.0.1:0"}
	}
	b.SetBytes(size)
	for i := 0; i < b.N; i++ {
		cfg := core.SessionConfig{
			Peers:      peers,
			Opts:       benchkit.EngineOptions(1 << 20),
			NetworkFor: func(int) transport.Network { return transport.TCP{} },
			SinkFor:    func(int) io.Writer { return io.Discard },
			InputFile:  benchkit.NewReaderAt(payload),
			InputSize:  size,
		}
		if _, err := core.RunSession(context.Background(), cfg); err != nil {
			b.Skipf("loopback TCP unavailable: %v", err)
		}
	}
}
