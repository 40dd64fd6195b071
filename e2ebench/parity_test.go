package main

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slim"
	"slim/internal/obs"
	"slim/internal/protocol"
	"slim/internal/server"
)

// countingProxy relays one console's datagrams to the server and back,
// counting the console→server datagrams by message type.
type countingProxy struct {
	front, back *net.UDPConn
	mu          sync.Mutex
	client      *net.UDPAddr
	up          [protocol.TypeCachePaint + 1]atomic.Int64
	wg          sync.WaitGroup
}

func newCountingProxy(t *testing.T, server string) *countingProxy {
	t.Helper()
	front, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	raddr, err := net.ResolveUDPAddr("udp", server)
	if err != nil {
		t.Fatal(err)
	}
	back, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	p := &countingProxy{front: front, back: back}
	p.wg.Add(2)
	go p.upstream()
	go p.downstream()
	return p
}

func (p *countingProxy) addr() string { return p.front.LocalAddr().String() }

func (p *countingProxy) upstream() {
	defer p.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, from, err := p.front.ReadFromUDP(buf)
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			continue
		}
		p.mu.Lock()
		p.client = from
		p.mu.Unlock()
		if n >= protocol.HeaderSize && int(buf[3]) < len(p.up) {
			p.up[buf[3]].Add(1)
		}
		_, _ = p.back.Write(buf[:n]) // loopback; a loss would show as a count mismatch
	}
}

func (p *countingProxy) downstream() {
	defer p.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, err := p.back.Read(buf)
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			continue
		}
		p.mu.Lock()
		to := p.client
		p.mu.Unlock()
		if to != nil {
			_, _ = p.front.WriteToUDP(buf[:n], to)
		}
	}
}

func (p *countingProxy) close() {
	p.front.Close()
	p.back.Close()
	p.wg.Wait()
}

func (p *countingProxy) counts() map[protocol.MsgType]int64 {
	m := make(map[protocol.MsgType]int64)
	for i := range p.up {
		if n := p.up[i].Load(); n > 0 {
			m[protocol.MsgType(i)] = n
		}
	}
	return m
}

// TestTrafficParity runs the same typing drive through a slim.UDPConsole
// and a benchmark console, each behind a counting proxy, and requires the
// same upstream traffic: every key, every reply, STATUS acks and idle
// heartbeats. Without parity the server-side recovery and path metrics
// would measure traffic no real console sends.
func TestTrafficParity(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock traffic comparison")
	}
	apps := newAppSet(new(atomic.Bool), func(_ string, w, h int) server.Application { return terminalApp(w, h) })
	reg := obs.NewRegistry(obs.DomainWall)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := slim.ListenAndServeContext(ctx, "127.0.0.1:0", apps.factory, serverOptions(reg, &eventLog{})...)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Server.Auth.Register(cardOf("ref"), "ref")
	srv.Server.Auth.Register(cardOf("bench"), "bench")

	refProxy := newCountingProxy(t, srv.Addr().String())
	defer refProxy.close()
	benchProxy := newCountingProxy(t, srv.Addr().String())
	defer benchProxy.close()

	ref, err := slim.DialConsoleContext(ctx, refProxy.addr(), slim.ConsoleConfig{Width: 640, Height: 480}, slim.TokenOf(cardOf("ref")))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	bench, err := dialBenchConsole(benchProxy.addr(), consoleSpec{
		w: 640, h: 480, card: cardOf("bench"), maxPress: 200,
		trace: new(atomic.Bool), registry: reg, epoch: time.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bench.Close()

	text := newTextStream(1, 0).take(120)
	for _, c := range text {
		if err := ref.SendKey(c, true); err != nil {
			t.Fatal(err)
		}
		if err := ref.SendKey(c, false); err != nil {
			t.Fatal(err)
		}
		if err := bench.press(c); err != nil {
			t.Fatal(err)
		}
		time.Sleep(8 * time.Millisecond)
	}
	// Idle long enough for the heartbeat to send idle STATUS messages.
	time.Sleep(3*slim.StatusInterval + 100*time.Millisecond)

	want, got := refProxy.counts(), benchProxy.counts()
	t.Logf("slim.UDPConsole upstream: %v", want)
	t.Logf("benchmark console upstream: %v", got)
	for typ := range union(want, got) {
		w, g := want[typ], got[typ]
		tol := int64(0)
		if typ == protocol.TypeStatus {
			// STATUS timing follows each console's own datagram arrival
			// and ticker phase; the counts agree to within a few.
			tol = max(3, w/5)
		}
		if d := w - g; d > tol || -d > tol {
			t.Errorf("%v: slim.UDPConsole sent %d, benchmark console %d", typ, w, g)
		}
	}
	if want[protocol.TypeStatus] == 0 {
		t.Error("no STATUS upstream; the comparison proves nothing")
	}
	// The benchmark's own upstream counters, which feed
	// udp.up_datagrams_per_input, must match what crossed the wire.
	for typ, n := range got {
		if own := bench.up[typ].Load(); own != n {
			t.Errorf("%v: benchmark console counted %d, proxy saw %d", typ, own, n)
		}
	}
}

func union(a, b map[protocol.MsgType]int64) map[protocol.MsgType]bool {
	u := make(map[protocol.MsgType]bool)
	for k := range a {
		u[k] = true
	}
	for k := range b {
		u[k] = true
	}
	return u
}
