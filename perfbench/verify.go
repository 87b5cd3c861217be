package main

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"kascade/internal/benchkit"
)

// verifySink is one receiver's sink. It compares every byte it is handed
// against the seeded payload at its offset and records when bytes arrive.
// It never fails a write: a mismatch is recorded and counted against the
// broadcast, so the program runs exactly as it would with a file sink.
type verifySink struct {
	rec   *recorder // nil in untraced runs
	log   *spanLog
	bcast int32
	want  []byte
	// flip, set by the self-test, corrupts the first byte this sink is
	// handed before it is compared, as a faulty relay would.
	flip bool
	// mark and onMark fire once, when the sink first holds mark bytes.
	mark   int64
	onMark func()
	// logArrivals keeps every write's end offset and time (late joiners).
	logArrivals bool

	mu sync.Mutex
	r  sinkRecord
}

// sinkRecord is what a sink saw: how far it got, whether every byte
// matched, and when bytes arrived.
type sinkRecord struct {
	off      int64
	bad      bool
	first    time.Time
	last     time.Time
	marked   bool
	calls    int
	maxGap   time.Duration
	writeDur time.Duration
	arrivals []arrival
}

// arrival is a sink's byte total after one write, and when it arrived.
type arrival struct {
	off int64
	at  time.Time
}

func newSink(rec *recorder, bcast int32, want []byte) *verifySink {
	s := &verifySink{rec: rec, bcast: bcast, want: want}
	if rec != nil {
		s.log = rec.newLog()
	}
	return s
}

func (s *verifySink) Write(p []byte) (int, error) {
	t0 := time.Now()
	s.mu.Lock()
	r := &s.r
	if r.first.IsZero() {
		r.first = t0
	} else if gap := t0.Sub(r.last); gap > r.maxGap {
		r.maxGap = gap
	}
	got := p
	if s.flip && r.off == 0 && len(p) > 0 {
		got = append([]byte(nil), p...)
		got[0] ^= 0xff
	}
	end := r.off + int64(len(p))
	if end > int64(len(s.want)) || !bytes.Equal(got, s.want[r.off:end]) {
		r.bad = true
	}
	r.off = end
	r.calls++
	fire := s.onMark != nil && !r.marked && r.off >= s.mark
	r.marked = r.marked || fire
	r.last = time.Now()
	if s.logArrivals {
		r.arrivals = append(r.arrivals, arrival{r.off, t0})
	}
	if s.rec != nil {
		r.writeDur += r.last.Sub(t0)
		s.rec.addTo(s.log, lSinkWrite, s.bcast, t0, r.last)
	}
	s.mu.Unlock()
	if fire {
		s.onMark()
	}
	return len(p), nil
}

// record returns a copy of what the sink saw so far.
func (s *verifySink) record() sinkRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r
}

// complete reports whether the record holds exactly a size-byte payload.
func (r sinkRecord) complete(size int64) bool { return !r.bad && r.off == size }

// source serves the seeded payload to the sender, counting what the
// sender reads: catch-up and gap fetches re-read ranges.
type source struct {
	*benchkit.ReaderAt
	rec   *recorder
	log   *spanLog
	bcast int32
	p     []byte

	readBytes atomic.Int64
	readNs    atomic.Int64
}

func (s *source) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := s.ReaderAt.ReadAt(p, off)
	s.readBytes.Add(int64(n))
	if s.rec != nil {
		d := time.Since(t0)
		s.readNs.Add(int64(d))
		s.rec.addTo(s.log, lSourceRead, s.bcast, t0, t0.Add(d))
	}
	return n, err
}
