package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"kascade/internal/benchkit"
	"kascade/internal/core"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// spansDir receives the traced run's span log.
	spansDir string

	// Self-test hooks: tiny payloads, and a corrupted sink on the first
	// broadcast.
	tiny      bool
	flipFirst bool
}

// setupReps is how many times a run builds its environment; setup_s is
// the median, and the last environment carries the broadcasts.
const setupReps = 25

// broadcastTimeout bounds one broadcast, so a hang fails it instead of
// the run.
const broadcastTimeout = 60 * time.Second

// environment is a workload's hosts, set up once per run and reused by
// every broadcast.
type environment interface {
	// load generates the seeded payloads (excluded from set-up time).
	load()
	// round runs one closed-loop step: every client's next broadcast.
	round(ctx context.Context) []*bcast
	engines() []*core.Engine
	close()
}

// bench is the state of one run shared by its workload.
type bench struct {
	cfg config
	rec *recorder // nil in untraced runs

	mu     sync.Mutex
	nextID int32
	bySid  map[core.SessionID]*bcast

	// controlDialMs are the control channel dials of every set-up.
	controlDialMs []float64
}

// bcast is one broadcast's record.
type bcast struct {
	id      int32
	sid     core.SessionID
	size    int64
	src     *source
	sinks   []*verifySink // by pipeline index; [0] is the sender's and nil
	deepest int           // pipeline index of the deepest receiver
	arity   int           // children per relay in the start plan

	start, end time.Time
	failures   []string

	// Phase timings: the StartSession call (or the control plane's
	// PREPARE..START), and the control calls themselves.
	startDur, prepareDur, ctlStartDur, resultDur time.Duration

	// Late join.
	joiner   *verifySink
	joinCall time.Time
	joinDur  time.Duration
	joinHead uint64

	// Traced runs only.
	evMu        sync.Mutex
	chunks      []chunkEvent
	reorgs      []time.Time
	linkMinRate float64
}

type chunkEvent struct {
	node int
	off  uint64
	at   time.Time
}

func (bc *bcast) fail(format string, args ...any) {
	bc.failures = append(bc.failures, fmt.Sprintf(format, args...))
}

// newBcast registers a broadcast of payload to receivers 1..nodes-1.
func (b *bench) newBcast(payload []byte, nodes int) *bcast {
	b.mu.Lock()
	b.nextID++
	id := b.nextID
	// A distinct non-zero session ID per broadcast, as the CLI mints one.
	sid := core.SessionID(b.cfg.seed<<20 | uint64(id))
	bc := &bcast{id: id, sid: sid, size: int64(len(payload)), deepest: nodes - 1}
	b.bySid[sid] = bc
	b.mu.Unlock()
	bc.src = &source{ReaderAt: benchkit.NewReaderAt(payload), rec: b.rec, bcast: id, p: payload}
	if b.rec != nil {
		bc.src.log = b.rec.newLog()
	}
	bc.sinks = make([]*verifySink, nodes)
	for i := 1; i < nodes; i++ {
		bc.sinks[i] = newSink(b.rec, id, payload)
	}
	if b.cfg.flipFirst && id == 1 {
		bc.sinks[1].flip = true
	}
	if b.rec != nil {
		b.rec.bind(sid, id)
	}
	return bc
}

func (b *bench) lookup(sid core.SessionID) *bcast {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bySid[sid]
}

// tracer returns the Trace hook of a traced run: chunk ingests feed the
// hop-lag metrics, reorgs the re-ranking ones.
func (b *bench) tracer(bc *bcast) core.Tracer {
	if b.rec == nil {
		return nil
	}
	return func(ev core.TraceEvent) {
		switch ev.Kind {
		case core.TraceChunk:
			bc.evMu.Lock()
			bc.chunks = append(bc.chunks, chunkEvent{ev.Node, ev.Offset, ev.At})
			bc.evMu.Unlock()
		case core.TraceReorg:
			bc.evMu.Lock()
			bc.reorgs = append(bc.reorgs, ev.At)
			bc.evMu.Unlock()
		}
	}
}

// verify checks every receiver's sink after the broadcast ended.
func (bc *bcast) verify() {
	for i, s := range bc.receivers() {
		if r := s.record(); !r.complete(bc.size) {
			who := fmt.Sprintf("receiver %d", i+1)
			if s == bc.joiner {
				who = "late joiner"
			}
			bc.fail("%s: sink holds %d of %d bytes, mismatch=%v", who, r.off, bc.size, r.bad)
		}
	}
}

// checkReport counts a report naming failed nodes against the broadcast:
// no fault is injected in any workload.
func (bc *bcast) checkReport(rep *core.Report) {
	if rep == nil {
		bc.fail("no report")
		return
	}
	if len(rep.Failures) != 0 {
		bc.fail("report names failed nodes although no fault was injected: %v", rep)
	}
}

// usage is a process resource snapshot.
type usage struct {
	at        time.Time
	user, sys time.Duration
	maxRSS    int64 // bytes
	mem       runtime.MemStats
	engines   core.EngineStats
	// Traced runs: transport counters by role, and dials timed so far.
	io    [roles]ioTotals
	dials int
}

func snapshot(engines []*core.Engine, rec *recorder) usage {
	var u usage
	if rec != nil {
		u.io, u.dials = rec.io()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.user = time.Duration(ru.Utime.Nano())
		u.sys = time.Duration(ru.Stime.Nano())
		u.maxRSS = ru.Maxrss << 10
	}
	runtime.ReadMemStats(&u.mem)
	u.engines = sumStats(engines)
	u.at = time.Now()
	return u
}

// sumStats adds the counters of every host's engine.
func sumStats(engines []*core.Engine) core.EngineStats {
	var sum core.EngineStats
	sum.Classes = map[string]core.ClassStats{}
	for _, e := range engines {
		st := e.Stats()
		sum.Admitted += st.Admitted
		sum.Queued += st.Queued
		sum.Refused += st.Refused
		sum.ParkExpired += st.ParkExpired
		sum.ParkReaped += st.ParkReaped
		sum.RepairFetches += st.RepairFetches
		sum.PoolReserved += st.PoolReserved
		for name, c := range st.Classes {
			row := sum.Classes[name]
			row.Turns += c.Turns
			row.ScheduledBytes += c.ScheduledBytes
			sum.Classes[name] = row
		}
	}
	return sum
}

// sampler polls the engines of a traced run for the pool reservation peak
// and each session's minimum measured link rate.
type sampler struct {
	stop chan struct{}
	done chan struct{}

	poolPeak int64
	minRate  map[core.SessionID]float64
}

func startSampler(engines []*core.Engine) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{}), minRate: map[core.SessionID]float64{}}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			var pool int64
			rates := map[core.SessionID]float64{}
			for _, e := range engines {
				st := e.Stats()
				pool += st.PoolReserved
				for sid, ls := range st.SessionLinks {
					if r, ok := rates[sid]; ls.MinRate > 0 && (!ok || ls.MinRate < r) {
						rates[sid] = ls.MinRate
					}
				}
			}
			s.poolPeak = max(s.poolPeak, pool)
			for sid, r := range rates {
				s.minRate[sid] = r
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// outcome is everything a run measured, before it is turned into metrics.
type outcome struct {
	w       *workload
	setups  []float64
	loadDur time.Duration
	all     []*bcast   // warm-up included
	rounds  [][]*bcast // measured rounds
	before  usage
	after   usage
	sampler *sampler
	bench   *bench
}

// run executes one benchmark run: set-up (several times), payload
// generation, one warm-up round, then closed-loop rounds for the
// configured time.
func run(cfg config) (*outcome, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	b := &bench{cfg: cfg, bySid: map[core.SessionID]*bcast{}}
	if cfg.trace {
		b.rec = newRecorder()
	}
	out := &outcome{w: w, bench: b}

	var env environment
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		e, err := w.setup(b, cfg.tiny)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, d.Seconds())
		if i < setupReps-1 {
			e.close()
		} else {
			env = e
		}
	}
	defer env.close()

	t0 := time.Now()
	env.load()
	out.loadDur = time.Since(t0)

	roundCtx := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), broadcastTimeout)
	}
	ctx, cancel := roundCtx()
	out.all = append(out.all, env.round(ctx)...)
	cancel()

	out.before = snapshot(env.engines(), b.rec)
	if b.rec != nil {
		out.sampler = startSampler(env.engines())
	}
	for {
		ctx, cancel := roundCtx()
		r := env.round(ctx)
		cancel()
		out.rounds = append(out.rounds, r)
		out.all = append(out.all, r...)
		if time.Since(out.before.at).Seconds() >= cfg.seconds {
			break
		}
	}
	if out.sampler != nil {
		out.sampler.finish()
		for _, r := range out.rounds {
			for _, bc := range r {
				bc.linkMinRate = out.sampler.minRate[bc.sid]
			}
		}
	}
	out.after = snapshot(env.engines(), b.rec)
	if b.rec != nil {
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s.tsv", cfg.workload))
		if err := b.rec.writeSpans(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return out, nil
}

// failedCount returns how many broadcasts failed any check.
func (o *outcome) failedCount() int {
	n := 0
	for _, bc := range o.all {
		if len(bc.failures) > 0 {
			n++
		}
	}
	return n
}

// delivered reports whether every receiver's sink, the late joiner's
// included, holds exactly the payload.
func (bc *bcast) delivered() bool {
	for _, s := range bc.receivers() {
		if !s.record().complete(bc.size) {
			return false
		}
	}
	return true
}

// receivers returns every sink of the broadcast, the joiner's included.
func (bc *bcast) receivers() []*verifySink {
	out := append([]*verifySink(nil), bc.sinks[1:]...)
	if bc.joiner != nil {
		out = append(out, bc.joiner)
	}
	return out
}

// correct reports whether every broadcast delivered every byte intact: a
// broadcast may still fail on other grounds, such as a report naming a
// healthy node.
func (o *outcome) correct() bool {
	for _, bc := range o.all {
		if !bc.delivered() {
			return false
		}
	}
	return true
}

// reportFailures prints every failed broadcast's reasons to stderr.
func (o *outcome) reportFailures() {
	for _, bc := range o.all {
		for _, f := range bc.failures {
			fmt.Fprintf(os.Stderr, "perfbench: %s broadcast %d failed: %s\n", o.w.name, bc.id, f)
		}
	}
}

// measured returns the broadcasts of the measured rounds.
func (o *outcome) measured() []*bcast {
	var out []*bcast
	for _, r := range o.rounds {
		out = append(out, r...)
	}
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
