//go:build linux

package transport

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"syscall"
	"testing"
	"time"
)

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(t *testing.T) (dialed, accepted Conn) {
	t.Helper()
	l, err := TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer l.Close()
	type res struct {
		c   Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	d, err := TCP{}.Dial(l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { d.Close(); r.c.Close() })
	return d, r.c
}

// relayRig is a tee relay between two loopback connections: the test
// writes into srcW and reads what the relay delivers from dstR.
type relayRig struct {
	srcW, srcR, dstW, dstR Conn
	relay                  TeeRelay
}

func newRelayRig(t *testing.T) *relayRig {
	t.Helper()
	g := &relayRig{}
	g.srcW, g.srcR = tcpPair(t)
	g.dstW, g.dstR = tcpPair(t)
	if !CanSplice(g.srcR, g.dstW) {
		t.Fatal("plain TCP connections must take the kernel relay")
	}
	r, err := g.dstW.(Splicer).TeeFrom(g.srcR)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	g.relay = r
	return g
}

// feed writes p into the relay's source and returns the write's outcome.
func (g *relayRig) feed(p []byte) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := g.srcW.Write(p)
		done <- err
	}()
	return done
}

// drain reads n bytes from the relay's destination.
func (g *relayRig) drain(n int) <-chan []byte {
	out := make(chan []byte, 1)
	go func() {
		b := make([]byte, n)
		k, _ := io.ReadFull(g.dstR, b)
		out <- b[:k]
	}()
	return out
}

func randomBytes(n int, seed int64) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

func pipeSize(t *testing.T, fd int) int {
	t.Helper()
	const fGetPipeSize = 0x408
	r, _, e := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), fGetPipeSize, 0)
	if e != 0 {
		t.Fatal(e)
	}
	return int(r)
}

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	return len(ents)
}

// TestTeeRelayLargeFrameThroughSmallPipes moves one 4 MiB transfer through
// 1 MiB pipes: several rounds, every byte both delivered and copied out.
func TestTeeRelayLargeFrameThroughSmallPipes(t *testing.T) {
	if max := pipeMaxSize(); max > 0 && max < teePipeSize {
		t.Skipf("pipe-max-size %d below the relay's pipe size", max)
	}
	g := newRelayRig(t)
	tr := g.relay.(*teeRelay)
	if a, b := pipeSize(t, tr.a[1]), pipeSize(t, tr.b[1]); a != 1<<20 || b != 1<<20 {
		t.Fatalf("pipe sizes %d/%d, want 1 MiB each", a, b)
	}
	want := randomBytes(4<<20, 1)
	fed := g.feed(want)
	got := g.drain(len(want))
	p := make([]byte, len(want))
	n, err := g.relay.Tee(p)
	if err != nil || n != len(p) {
		t.Fatalf("Tee = %d, %v; want %d, nil", n, err, len(p))
	}
	if err := <-fed; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, want) {
		t.Fatal("copied-out bytes differ from the source")
	}
	if !bytes.Equal(<-got, want) {
		t.Fatal("delivered bytes differ from the source")
	}
}

// TestTeeRelayPipeResizeRefused covers kernels that refuse F_SETPIPE_SZ:
// both pipes, or only the copy-out pipe (unequal capacities force short
// tees). Either way the relay runs on what it got, bit-perfect.
func TestTeeRelayPipeResizeRefused(t *testing.T) {
	for _, tc := range []struct {
		name   string
		refuse func(call int) bool
	}{
		{"both", func(int) bool { return true }},
		{"copy-out-only", func(call int) bool { return call == 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := setPipeSize
			calls := 0
			setPipeSize = func(fd, size int) error {
				calls++
				if tc.refuse(calls) {
					return syscall.EPERM
				}
				return orig(fd, size)
			}
			g := newRelayRig(t)
			setPipeSize = orig
			tr := g.relay.(*teeRelay)
			if b := pipeSize(t, tr.b[1]); b >= teePipeSize {
				t.Fatalf("refused copy-out pipe has %d bytes, want the default", b)
			}
			want := randomBytes(3<<20, 2)
			fed := g.feed(want)
			got := g.drain(len(want))
			p := make([]byte, len(want))
			if n, err := g.relay.Tee(p); err != nil || n != len(p) {
				t.Fatalf("Tee = %d, %v", n, err)
			}
			<-fed
			if !bytes.Equal(p, want) || !bytes.Equal(<-got, want) {
				t.Fatal("payload corrupted on default-size pipes")
			}
		})
	}
}

// shrink caps a TCP connection's kernel buffers so a stalled peer blocks
// the writer after a few hundred KiB.
func shrink(t *testing.T, c Conn, read bool) {
	t.Helper()
	tc := c.(*tcpConn).c.(*net.TCPConn)
	var err error
	if read {
		err = tc.SetReadBuffer(64 << 10)
	} else {
		err = tc.SetWriteBuffer(64 << 10)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestTeeRelayResumesAfterWriteTimeout stalls the destination past its
// write deadline: Tee reports a destination timeout, and a second call on
// the rest of the buffer resumes byte-exactly from what the pipes hold.
func TestTeeRelayResumesAfterWriteTimeout(t *testing.T) {
	g := newRelayRig(t)
	shrink(t, g.dstW, false)
	shrink(t, g.dstR, true)
	want := randomBytes(4<<20, 3)
	fed := g.feed(want)
	p := make([]byte, len(want))
	_ = g.dstW.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
	n, err := g.relay.Tee(p)
	if err == nil || !IsTeeWriteError(err) || !IsTimeout(err) {
		t.Fatalf("stalled destination: Tee = %d, %v; want a destination timeout", n, err)
	}
	if n >= len(p) {
		t.Fatalf("stalled destination took all %d bytes", n)
	}
	got := g.drain(len(want))
	_ = g.dstW.SetWriteDeadline(time.Time{})
	m, err := g.relay.Tee(p[n:])
	if err != nil || n+m != len(p) {
		t.Fatalf("resume: Tee = %d, %v; total %d of %d", m, err, n+m, len(p))
	}
	<-fed
	if !bytes.Equal(p, want) {
		t.Fatal("copied-out bytes corrupted across the resume")
	}
	if !bytes.Equal(<-got, want) {
		t.Fatal("delivered bytes corrupted across the resume")
	}
}

// TestTeeRelaySalvage gives up on a stalled destination: Salvage completes
// the buffer from the pipes and the source, leaving the source stream on
// the transfer's boundary.
func TestTeeRelaySalvage(t *testing.T) {
	g := newRelayRig(t)
	shrink(t, g.dstW, false)
	shrink(t, g.dstR, true)
	want := randomBytes(2<<20, 4)
	trailer := []byte("next-frame")
	fed := g.feed(append(append([]byte(nil), want...), trailer...))
	p := make([]byte, len(want))
	_ = g.dstW.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
	n, err := g.relay.Tee(p)
	if !IsTeeWriteError(err) {
		t.Fatalf("Tee = %d, %v; want a destination error", n, err)
	}
	if err := g.relay.Salvage(p[n:]); err != nil {
		t.Fatalf("Salvage: %v", err)
	}
	if !bytes.Equal(p, want) {
		t.Fatal("salvaged buffer differs from the source")
	}
	next := make([]byte, len(trailer))
	_ = g.srcR.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(g.srcR, next); err != nil || !bytes.Equal(next, trailer) {
		t.Fatalf("source not left on the boundary: %q, %v", next, err)
	}
	<-fed
	if _, err := g.relay.Tee(p); err == nil {
		t.Fatal("a salvaged relay must be spent")
	}
}

// TestTeeRelaySourceEOF ends the source mid-transfer: a source error, not
// a destination one.
func TestTeeRelaySourceEOF(t *testing.T) {
	g := newRelayRig(t)
	got := g.drain(1000)
	if err := <-g.feed(randomBytes(1000, 5)); err != nil {
		t.Fatal(err)
	}
	g.srcW.Close()
	p := make([]byte, 4096)
	n, err := g.relay.Tee(p)
	if err == nil || IsTeeWriteError(err) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Tee = %d, %v; want a source io.ErrUnexpectedEOF", n, err)
	}
	if n != 1000 || len(<-got) != 1000 {
		t.Fatalf("delivered %d before EOF, want 1000", n)
	}
}

// TestTeeRelayNoFDLeak opens, uses and closes relays: every pipe
// descriptor comes back.
func TestTeeRelayNoFDLeak(t *testing.T) {
	g := newRelayRig(t)
	g.relay.Close()
	before := openFDs(t)
	for i := 0; i < 20; i++ {
		r, err := g.dstW.(Splicer).TeeFrom(g.srcR)
		if err != nil {
			t.Fatal(err)
		}
		want := randomBytes(64<<10, int64(i))
		fed := g.feed(want)
		got := g.drain(len(want))
		p := make([]byte, len(want))
		if _, err := r.Tee(p); err != nil {
			t.Fatal(err)
		}
		<-fed
		<-got
		r.Close()
		r.Close() // idempotent
	}
	if after := openFDs(t); after != before {
		t.Fatalf("descriptors: %d before, %d after 20 relays", before, after)
	}
}

// TestCanSpliceDeclinesNonTCP pins the capability check: the fabric never
// offers the kernel relay, in either direction.
func TestCanSpliceDeclinesNonTCP(t *testing.T) {
	a, b := newPipePair("a:0", "b:0", 0)
	tcp, _ := tcpPair(t)
	if CanSplice(a, b) || CanSplice(a, tcp) || CanSplice(tcp, a) {
		t.Fatal("in-memory connections must not take the kernel relay")
	}
}
