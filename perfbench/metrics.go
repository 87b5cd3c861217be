package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"kascade/internal/core"
)

// metricDef names one reported metric; the lists below are the ones
// BENCHMARK.json declares, in the same order.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"goodput_mb_s", "MB/s"},
	{"completion_ms_p50", "ms"},
	{"completion_ms_tail", "ms"},
	{"cpu_s_per_gb", "s/GB"},
	{"rss_peak_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run. Totals are averaged per
// measured broadcast ("/bcast"); timings named _p50 are medians over
// broadcasts or calls.
var perLayer = []metricDef{
	{"transport.write_bytes_per_call", "B/call"},
	{"transport.write_calls_per_mb", "calls/MB"},
	{"transport.write_block_ms", "ms/bcast"},
	{"transport.read_wait_ms", "ms/bcast"},
	{"transport.read_bytes_per_call", "B/call"},
	{"transport.dials.data", "count/bcast"},
	{"transport.dials.ping", "count/bcast"},
	{"transport.dials.report", "count/bcast"},
	{"transport.dials.fetch", "count/bcast"},
	{"transport.dials.rate", "count/bcast"},
	{"transport.dials.join", "count/bcast"},
	{"transport.dial_ms_p50", "ms"},
	{"transport.fetch_bytes", "B/bcast"},
	{"transport.wire_overhead_ratio", "ratio"},
	{"session.start_ms", "ms"},
	{"session.fill_ms", "ms"},
	{"session.drain_ms", "ms"},
	{"session.epilogue_ms", "ms"},
	{"dataplane.hop_lag_ms_p50", "ms"},
	{"dataplane.hop_lag_ms_max", "ms"},
	{"dataplane.chunks", "count/bcast"},
	{"source.read_ms", "ms/bcast"},
	{"source.reread_ratio", "ratio"},
	{"sink.write_ms", "ms/bcast"},
	{"sink.write_calls_per_mb", "calls/MB"},
	{"sink.stall_ms_max", "ms"},
	{"engine.bytes_per_turn", "B/turn"},
	{"engine.turns_per_mb", "turns/MB"},
	{"engine.admitted", "count/bcast"},
	{"engine.queued", "count/bcast"},
	{"engine.refused", "count/bcast"},
	{"engine.park_expired", "count/bcast"},
	{"engine.park_reaped", "count/bcast"},
	{"engine.repair_fetches", "count/bcast"},
	{"engine.pool_reserved_mb_peak", "MB"},
	{"rerank.migrations", "count/bcast"},
	{"rerank.first_reorg_ms", "ms"},
	{"rerank.link_min_rate_mb_s", "MB/s"},
	{"join.negotiate_ms", "ms"},
	{"join.catchup_ms", "ms"},
	{"join.parity_ms", "ms"},
	{"pair.fairness_min_mean", "ratio"},
	{"control.prepare_ms_p50", "ms"},
	{"control.start_ms_p50", "ms"},
	{"control.result_ms_p50", "ms"},
	{"control.dial_ms", "ms"},
	{"runtime.cpu_user_s", "s"},
	{"runtime.cpu_sys_s", "s"},
	{"runtime.cpu_busy_frac", "ratio"},
	{"runtime.alloc_bytes_per_mb", "B/MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"overhead.goodput_mb_s", "MB/s"},
	{"overhead.cpu_s_per_gb", "s/GB"},
	{"self.broadcast_ms", "ms/bcast"},
	{"self.session.start_ms", "ms/bcast"},
	{"self.control.prepare_ms", "ms/bcast"},
	{"self.control.start_ms", "ms/bcast"},
	{"self.control.result_ms", "ms/bcast"},
	{"self.join.negotiate_ms", "ms/bcast"},
	{"self.source.read_ms", "ms/bcast"},
	{"self.sink.write_ms", "ms/bcast"},
	{"self.transport.dial_ms", "ms/bcast"},
	{"self.transport.write_ms", "ms/bcast"},
	{"self.transport.read_ms", "ms/bcast"},
}

// quantile is the q-quantile of an ascending sample by linear
// interpolation between closest ranks; 0 for an empty sample.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tailLadder is the set of percentiles completion_ms_tail may report. It
// stops at p95: p99 of a run with a few thousand broadcasts, about 24
// samples beyond it, moved by over 30% between runs on a 2-vCPU host.
var tailLadder = []float64{0.95, 0.9, 0.75, 0.5}

// tail returns the highest ladder percentile with at least ten samples
// beyond it, and its value. A sample too small for any (fewer than 21)
// reports its median.
func tail(xs []float64) (q, v float64) {
	s := sorted(xs)
	for _, q := range tailLadder {
		beyond := len(s) - 1 - int(math.Ceil(q*float64(len(s)-1)))
		if beyond >= 10 || q == 0.5 {
			return q, quantile(s, q)
		}
	}
	return 0.5, quantile(s, 0.5)
}

// stats is a run's derived numbers: the end-to-end metrics, the traced
// per-layer ones, and the report lines that explain them.
type stats struct {
	metrics map[string]float64
	lines   []string
}

func (st *stats) linef(format string, args ...any) {
	st.lines = append(st.lines, fmt.Sprintf(format, args...))
}

// summarize turns an outcome into metrics. Untraced runs produce the
// end-to-end set, traced runs the per-layer set.
func summarize(o *outcome, traced bool) *stats {
	st := &stats{metrics: map[string]float64{}}
	m := st.metrics
	meas := o.measured()
	wall := o.after.at.Sub(o.before.at).Seconds()
	cpu := (o.after.user - o.before.user + o.after.sys - o.before.sys).Seconds()
	user := (o.after.user - o.before.user).Seconds()
	sys := (o.after.sys - o.before.sys).Seconds()

	var delivered, attempted float64
	var completion, firstByte []float64
	for _, bc := range meas {
		attempted += float64(bc.size)
		if bc.delivered() {
			delivered += float64(bc.size)
		}
		completion = append(completion, ms(bc.end.Sub(bc.start)))
		if r := bc.sinks[bc.deepest].record(); !r.first.IsZero() {
			firstByte = append(firstByte, ms(r.first.Sub(bc.start)))
		}
	}
	goodput := delivered / 1e6 / wall
	cpuPerGB := cpu / (attempted / 1e9)
	tq, tv := tail(completion)

	st.linef("workload %s: %s", o.w.name, o.w.shape)
	st.linef("substrate: %s", o.w.substrate)
	st.linef("measured: %d broadcasts in %d rounds over %.2f s, after 1 warm-up round; payload generation %.2f s",
		len(meas), len(o.rounds), wall, o.loadDur.Seconds())
	st.linef("failed: %d of %d broadcasts (failed_frac %.4f)", o.failedCount(), len(o.all),
		float64(o.failedCount())/float64(len(o.all)))
	st.linef("cpu: busy %.3f of %d cores (user %.2f s, sys %.2f s, sys share %.0f%%)",
		cpu/wall/float64(runtime.NumCPU()), runtime.NumCPU(), user, sys, 100*sys/math.Max(cpu, 1e-9))
	sc := sorted(completion)
	st.linef("completion_ms_tail is p%g over n=%d broadcasts; completion ms min %.1f, p50 %.1f, max %.1f",
		100*tq, len(completion), quantile(sc, 0), quantile(sc, 0.5), quantile(sc, 1))
	sf := sorted(firstByte)
	st.linef("first_byte_ms: min %.1f, p50 %.1f, max %.1f over n=%d", quantile(sf, 0), quantile(sf, 0.5), quantile(sf, 1), len(sf))
	fair, parity := fairness(o.rounds), joinerParity(meas)
	st.linef("fairness_min_mean: %s; joiner_parity_ms: %s", orNA(fair), orNA(parity))

	if !traced {
		m["goodput_mb_s"] = goodput
		m["completion_ms_p50"] = median(completion)
		m["completion_ms_tail"] = tv
		m["cpu_s_per_gb"] = cpuPerGB
		m["rss_peak_mb"] = float64(o.after.maxRSS) / 1e6
		m["setup_s"] = median(o.setups)
		return st
	}

	n := float64(len(meas))
	rec := o.bench.rec
	var io [roles]ioTotals
	for i := range io {
		io[i] = o.after.io[i].minus(o.before.io[i])
	}
	data := io[core.RoleData]
	dataBytes := float64(data.wBytes)
	var edges float64
	for _, bc := range meas {
		edges += float64(bc.size) * float64(len(bc.sinks)-1)
		if bc.joiner != nil {
			edges += float64(bc.size)
		}
	}
	m["transport.write_bytes_per_call"] = dataBytes / math.Max(float64(data.wCalls), 1)
	m["transport.write_calls_per_mb"] = float64(data.wCalls) / math.Max(dataBytes/1e6, 1e-9)
	m["transport.write_block_ms"] = float64(data.wNs) / 1e6 / n
	m["transport.read_wait_ms"] = float64(data.rNs) / 1e6 / n
	m["transport.read_bytes_per_call"] = float64(data.rBytes) / math.Max(float64(data.rCalls), 1)
	for role := core.RoleData; role <= core.RoleJoin; role++ {
		m["transport.dials."+role.String()] = float64(io[role].dials) / n
	}
	rec.mu.Lock()
	var dials []float64
	for _, d := range rec.dialNs[o.before.dials:o.after.dials] {
		dials = append(dials, float64(d)/1e6)
	}
	rec.mu.Unlock()
	spans := rec.allSpans()
	m["transport.dial_ms_p50"] = median(dials)
	m["transport.fetch_bytes"] = float64(io[core.RoleFetch].rBytes+io[core.RoleFetch].wBytes) / n
	m["transport.wire_overhead_ratio"] = dataBytes / math.Max(edges, 1)

	var start, fill, drain, epilogue, stall []float64
	var srcMs, srcBytes, sinkMs, sinkCalls, sinkBytes float64
	var lags []float64
	var chunks, migrations float64
	var firstReorg, minRate, negotiate, catchup, prepare, ctlStart, result []float64
	for _, bc := range meas {
		start = append(start, ms(bc.startDur))
		deep := bc.sinks[bc.deepest].record()
		var lastByte time.Time
		var maxStall time.Duration
		for _, s := range bc.receivers() {
			r := s.record()
			if r.last.After(lastByte) {
				lastByte = r.last
			}
			maxStall = max(maxStall, r.maxGap)
			sinkMs += ms(r.writeDur)
			sinkCalls += float64(r.calls)
			sinkBytes += float64(r.off)
		}
		if !deep.first.IsZero() {
			fill = append(fill, ms(deep.first.Sub(bc.start)))
			drain = append(drain, ms(lastByte.Sub(deep.first)))
		}
		if !lastByte.IsZero() {
			epilogue = append(epilogue, ms(bc.end.Sub(lastByte)))
		}
		stall = append(stall, ms(maxStall))
		srcMs += float64(bc.src.readNs.Load()) / 1e6
		srcBytes += float64(bc.src.readBytes.Load())

		bc.evMu.Lock()
		lags = append(lags, hopLags(bc)...)
		chunks += float64(len(bc.chunks))
		migrations += float64(len(bc.reorgs))
		if len(bc.reorgs) > 0 {
			firstReorg = append(firstReorg, ms(bc.reorgs[0].Sub(bc.start)))
		}
		bc.evMu.Unlock()
		if bc.linkMinRate > 0 {
			minRate = append(minRate, bc.linkMinRate/1e6)
		}
		if !bc.joinCall.IsZero() {
			negotiate = append(negotiate, ms(bc.joinDur))
			for _, a := range bc.joiner.record().arrivals {
				if a.off >= int64(bc.joinHead) {
					catchup = append(catchup, ms(a.at.Sub(bc.joinCall)))
					break
				}
			}
		}
		if bc.prepareDur > 0 {
			prepare = append(prepare, ms(bc.prepareDur))
			ctlStart = append(ctlStart, ms(bc.ctlStartDur))
			result = append(result, ms(bc.resultDur))
		}
	}
	m["session.start_ms"] = median(start)
	m["session.fill_ms"] = median(fill)
	m["session.drain_ms"] = median(drain)
	m["session.epilogue_ms"] = median(epilogue)
	sl := sorted(lags)
	m["dataplane.hop_lag_ms_p50"] = quantile(sl, 0.5)
	m["dataplane.hop_lag_ms_max"] = quantile(sl, 1)
	m["dataplane.chunks"] = chunks / n
	m["source.read_ms"] = srcMs / n
	m["source.reread_ratio"] = srcBytes / math.Max(attempted, 1)
	m["sink.write_ms"] = sinkMs / n
	m["sink.write_calls_per_mb"] = sinkCalls / math.Max(sinkBytes/1e6, 1e-9)
	m["sink.stall_ms_max"] = median(stall)

	eb, ea := o.before.engines, o.after.engines
	var turns, schedBytes float64
	for name, c := range ea.Classes {
		turns += float64(c.Turns - eb.Classes[name].Turns)
		schedBytes += float64(c.ScheduledBytes - eb.Classes[name].ScheduledBytes)
	}
	m["engine.bytes_per_turn"] = schedBytes / math.Max(turns, 1)
	m["engine.turns_per_mb"] = turns / math.Max(attempted/1e6, 1e-9)
	m["engine.admitted"] = float64(ea.Admitted-eb.Admitted) / n
	m["engine.queued"] = float64(ea.Queued-eb.Queued) / n
	m["engine.refused"] = float64(ea.Refused-eb.Refused) / n
	m["engine.park_expired"] = float64(ea.ParkExpired-eb.ParkExpired) / n
	m["engine.park_reaped"] = float64(ea.ParkReaped-eb.ParkReaped) / n
	m["engine.repair_fetches"] = float64(ea.RepairFetches-eb.RepairFetches) / n
	m["engine.pool_reserved_mb_peak"] = float64(o.sampler.poolPeak) / 1e6

	m["rerank.migrations"] = migrations / n
	m["rerank.first_reorg_ms"] = median(firstReorg)
	m["rerank.link_min_rate_mb_s"] = median(minRate)
	m["join.negotiate_ms"] = median(negotiate)
	m["join.catchup_ms"] = median(catchup)
	m["join.parity_ms"] = parity
	m["pair.fairness_min_mean"] = fair
	m["control.prepare_ms_p50"] = median(prepare)
	m["control.start_ms_p50"] = median(ctlStart)
	m["control.result_ms_p50"] = median(result)
	m["control.dial_ms"] = median(o.bench.controlDialMs)

	ma, mb := o.after.mem, o.before.mem
	m["runtime.cpu_user_s"] = user
	m["runtime.cpu_sys_s"] = sys
	m["runtime.cpu_busy_frac"] = cpu / wall / float64(runtime.NumCPU())
	m["runtime.alloc_bytes_per_mb"] = float64(ma.TotalAlloc-mb.TotalAlloc) / math.Max(attempted/1e6, 1e-9)
	m["runtime.gc_cycles"] = float64(ma.NumGC - mb.NumGC)
	m["runtime.gc_pause_ms"] = float64(ma.PauseTotalNs-mb.PauseTotalNs) / 1e6
	m["overhead.goodput_mb_s"] = goodput
	m["overhead.cpu_s_per_gb"] = cpuPerGB

	// Self times cover the measured broadcasts' spans only.
	first := int32(math.MaxInt32)
	for _, bc := range meas {
		first = min(first, bc.id)
	}
	var kept []span
	for _, s := range spans {
		if s.bcast >= first {
			kept = append(kept, s)
		}
	}
	self := selfTimes(kept)
	for l := layer(0); l < nLayers; l++ {
		m["self."+layerNames[l]+"_ms"] = ms(self[l]) / n
	}
	st.linef("spans: %d recorded, %d dropped past the in-memory cap", len(spans), rec.dropped.Load())
	return st
}

// hopLags pairs each receiver's chunk ingests with its parent's in the
// start plan, by byte total, and returns the delays. Pairs that moved
// backwards (a re-graft changed the parent) are skipped.
func hopLags(bc *bcast) []float64 {
	arity := max(bc.arity, 1)
	at := map[int]map[uint64]time.Time{}
	for _, ev := range bc.chunks {
		if at[ev.node] == nil {
			at[ev.node] = map[uint64]time.Time{}
		}
		at[ev.node][ev.off] = ev.at
	}
	var lags []float64
	for node, offs := range at {
		parent := (node - 1) / arity
		if parent < 1 {
			continue
		}
		for off, t := range offs {
			if pt, ok := at[parent][off]; ok && !t.Before(pt) {
				lags = append(lags, ms(t.Sub(pt)))
			}
		}
	}
	return lags
}

// fairness is the median over rounds of min/mean per-session goodput, for
// rounds that overlap two or more sessions; NaN when none do.
func fairness(rounds [][]*bcast) float64 {
	var ratios []float64
	for _, r := range rounds {
		if len(r) < 2 {
			continue
		}
		var sum, lo float64
		lo = math.Inf(1)
		for _, bc := range r {
			g := float64(bc.size) / bc.end.Sub(bc.start).Seconds()
			sum += g
			lo = math.Min(lo, g)
		}
		ratios = append(ratios, lo/(sum/float64(len(r))))
	}
	if len(ratios) == 0 {
		return math.NaN()
	}
	return median(ratios)
}

// joinerParity is the median time from the join call until the joiner's
// sink held the whole payload; NaN without joiners.
func joinerParity(meas []*bcast) float64 {
	var xs []float64
	for _, bc := range meas {
		if bc.joiner == nil || bc.joinCall.IsZero() {
			continue
		}
		if r := bc.joiner.record(); r.complete(bc.size) {
			xs = append(xs, ms(r.last.Sub(bc.joinCall)))
		}
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	return median(xs)
}

func orNA(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.4g", v)
}
