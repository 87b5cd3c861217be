// Command perfbench is the repository's benchmark of record. It drives the
// broadcast engine from outside, through its public API only, checks every
// byte each receiver's sink is handed against the seeded payload, and
// prints the metrics BENCHMARK.json declares:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) wraps the transport, sinks, source and control calls,
// records spans, and prints the per-layer metrics. The last line of
// standard output is one JSON object; the lines before it say what ran,
// on which substrate, and how busy the processor was. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// watchdog ends a run that hangs, well inside the 180 s a run may take.
const watchdog = 170 * time.Second

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated payloads")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the closed loop is measured")
	flag.IntVar(&trace, "trace", 0, "1 runs traced and prints the per-layer metrics")
	flag.StringVar(&cfg.spansDir, "spans-dir", ".bench_build/spans", "where a traced run writes its span log")
	flag.Parse()
	cfg.trace = trace == 1

	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", cfg.workload, watchdog)
		os.Exit(3)
	})
	res, lines, err := benchmark(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// benchmark runs cfg and assembles its result and report lines.
func benchmark(cfg config) (*result, []string, error) {
	o, err := run(cfg)
	if err != nil {
		return nil, nil, err
	}
	o.reportFailures()
	return resultOf(o, cfg)
}

// resultOf assembles the result of a finished run: the metrics its mode
// declares, in BENCHMARK.json's units.
func resultOf(o *outcome, cfg config) (*result, []string, error) {
	st := summarize(o, cfg.trace)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := &result{
		Correct:   o.correct(),
		Attempted: len(o.all),
		Failed:    o.failedCount(),
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := st.metrics[d.name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Per-layer metrics of a layer the workload does not use
			// (no joiner, a single session) read 0.
			v = 0
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
		st.linef("%-34s %14.6g %s", d.name, v, d.unit)
	}
	return res, st.lines, nil
}
