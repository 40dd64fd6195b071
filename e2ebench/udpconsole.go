package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"slim"
	"slim/internal/console"
	"slim/internal/core"
	"slim/internal/fb"
	"slim/internal/obs"
	"slim/internal/protocol"
)

// benchConsole is a console the benchmark owns: a console.Console on its
// own UDP socket, speaking to the server exactly as slim.UDPConsole does
// (every reply forwarded, a STATUS after each applied burst rate-limited
// to slim.StatusAckDelay, an idle STATUS every slim.StatusInterval; see
// TestTrafficParity), plus the instruments the benchmark needs: traffic
// counts at the socket, the marker-pixel paint detector and quiet-point
// screen checks.
type benchConsole struct {
	con    *console.Console
	conn   *net.UDPConn
	epoch  time.Time
	trace  *atomic.Bool
	marker protocol.Rect

	closeOnce sync.Once
	closed    chan struct{}
	done      chan struct{} // closed when serve has exited
	hbDone    chan struct{} // closed when heartbeat has exited

	ackMu      sync.Mutex
	lastAckAt  time.Time
	ackApplied uint64
	ackDropped uint64

	downDatagrams atomic.Int64
	downBytes     atomic.Int64
	up            [protocol.TypeCachePaint + 1]atomic.Int64
	decodeNs      atomic.Int64 // traced runs only

	// paint[n-1] holds when press n's marker first showed (ns after
	// epoch, 0 = not yet); painted is the highest marker seen. Written
	// by serve only.
	paint   []atomic.Int64
	painted atomic.Int64
	// paintedCh is signalled (without blocking) whenever painted grows.
	paintedCh chan struct{}
	// warmSent is how many presses set-up sent; window presses follow.
	warmSent int

	// expect is the pending screen check, run by serve whenever no
	// datagram has arrived for quietGap.
	expect atomic.Pointer[screenCheck]
}

// screenCheck is one expected screen. Serve compares the frame buffer
// with want at quiet points; with settle set it records the difference at
// the first quiet point, otherwise it waits for equality.
type screenCheck struct {
	want    *fb.Framebuffer
	settle  bool
	armedAt time.Duration
	// paintedAt is when the datagram completing the screen arrived (ns
	// since epoch); 0 while pending or if it never matched.
	paintedAt atomic.Int64
	diff      atomic.Int64
	done      chan struct{}
}

// quietGap is how long a console must receive nothing before it counts
// as quiet and a pending screen check runs.
const quietGap = 5 * time.Millisecond

// consoleSpec configures one benchmark console.
type consoleSpec struct {
	w, h     int
	gen2     bool
	card     string // presented in the Hello; "" boots to the login screen
	maxPress int    // presses the paint detector tracks
	trace    *atomic.Bool
	registry *obs.Registry
	epoch    time.Time
}

func dialBenchConsole(server string, spec consoleSpec) (*benchConsole, error) {
	raddr, err := net.ResolveUDPAddr("udp", server)
	if err != nil {
		return nil, fmt.Errorf("resolve %q: %w", server, err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("dial %q: %w", server, err)
	}
	cfg := console.Config{Width: spec.w, Height: spec.h, Obs: spec.registry}
	if spec.gen2 {
		cfg.TileCacheEntries = core.DefaultTileCacheEntries
	}
	con, err := console.New(cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c := &benchConsole{
		con:    con,
		conn:   conn,
		epoch:  spec.epoch,
		trace:  spec.trace,
		marker: markerPixel(spec.w, spec.h),
		closed: make(chan struct{}),
		done:   make(chan struct{}),
		hbDone: make(chan struct{}),
		paint:  make([]atomic.Int64, spec.maxPress),

		paintedCh: make(chan struct{}, 1),
	}
	hello := con.Hello()
	hello.CardToken = spec.card
	if err := c.send(hello); err != nil {
		conn.Close()
		return nil, err
	}
	go c.serve()
	go c.heartbeat()
	return c, nil
}

func (c *benchConsole) since() time.Duration { return time.Since(c.epoch) }

// Close stops the console and waits for its goroutines.
func (c *benchConsole) Close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.conn.Close()
	})
	<-c.done
	<-c.hbDone
}

func (c *benchConsole) write(wire []byte) error {
	if _, err := c.conn.Write(wire); err != nil {
		return err
	}
	if len(wire) >= protocol.HeaderSize && int(wire[3]) < len(c.up) {
		c.up[wire[3]].Add(1)
	}
	return nil
}

func (c *benchConsole) send(msg protocol.Message) error {
	return c.write(protocol.Encode(nil, 0, msg))
}

// press sends one input: a key press and its release.
func (c *benchConsole) press(code uint16) error {
	if err := c.write(c.con.KeyInput(code, true)); err != nil {
		return err
	}
	return c.write(c.con.KeyInput(code, false))
}

func (c *benchConsole) insertCard(token string) error { return c.send(c.con.InsertCard(token)) }

// probe asks the session's marker app for a snapshot of its screen.
func (c *benchConsole) probe() error {
	return c.write(c.con.PointerInput(0, 0, probeButtons))
}

// upTotal counts every datagram the console sent.
func (c *benchConsole) upTotal() int64 {
	var n int64
	for i := range c.up {
		n += c.up[i].Load()
	}
	return n
}

// maybeAck is slim.UDPConsole's delayed-ack STATUS rule: send a STATUS
// when the applied or dropped counters moved (at most one per
// slim.StatusAckDelay), or unconditionally when forced.
func (c *benchConsole) maybeAck(force bool) bool {
	c.ackMu.Lock()
	applied, dropped := c.con.Counters()
	moved := applied != c.ackApplied || dropped != c.ackDropped
	now := time.Now()
	if !force && (!moved || now.Sub(c.lastAckAt) < slim.StatusAckDelay) {
		c.ackMu.Unlock()
		return false
	}
	c.ackApplied, c.ackDropped = applied, dropped
	c.lastAckAt = now
	wire := c.con.StatusWire()
	c.ackMu.Unlock()
	return c.write(wire) == nil
}

// heartbeat is slim.UDPConsole's trailing-ack and idle-heartbeat loop.
func (c *benchConsole) heartbeat() {
	defer close(c.hbDone)
	t := time.NewTicker(slim.StatusAckDelay)
	defer t.Stop()
	ticksPerIdle := int(slim.StatusInterval / slim.StatusAckDelay)
	idle := 0
	for {
		select {
		case <-c.closed:
			return
		case <-t.C:
			idle++
			if c.maybeAck(idle >= ticksPerIdle) {
				idle = 0
			}
		}
	}
}

func (c *benchConsole) serve() {
	defer close(c.done)
	buf := make([]byte, 64*1024)
	var lastRx time.Duration
	deadlineSet := false
	fresh := false        // a datagram arrived since the last screen check
	var seen *screenCheck // the check examined at the last quiet point
	for {
		if chk := c.expect.Load(); chk != nil && (fresh || chk != seen) {
			_ = c.conn.SetReadDeadline(time.Now().Add(quietGap))
			deadlineSet = true
		} else if deadlineSet {
			_ = c.conn.SetReadDeadline(time.Time{})
			deadlineSet = false
			if c.expect.Load() != seen {
				// A check was armed meanwhile; clearing the deadline
				// may have cancelled its wake-up.
				continue
			}
		}
		n, err := c.conn.Read(buf)
		if err != nil {
			select {
			case <-c.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				seen, fresh = c.expect.Load(), false
				c.checkScreen(seen, lastRx)
			}
			continue
		}
		now := c.since()
		lastRx, fresh = now, true
		c.downDatagrams.Add(1)
		c.downBytes.Add(int64(n))
		var t0 time.Time
		traced := c.trace.Load()
		if traced {
			t0 = time.Now()
		}
		replies, err := c.con.HandleDatagram(buf[:n], now)
		if traced {
			c.decodeNs.Add(int64(time.Since(t0)))
		}
		if err != nil {
			continue
		}
		c.maybeAck(false)
		for _, r := range replies {
			if err := c.write(r); err != nil {
				return
			}
		}
		c.notePaint(now)
	}
}

// notePaint reads the marker pixel after a datagram was applied. Only
// serve writes the frame buffer, so the read is consistent.
func (c *benchConsole) notePaint(now time.Duration) {
	if len(c.paint) == 0 {
		return
	}
	m := int64(c.con.Framebuffer().At(c.marker.X, c.marker.Y))
	p := c.painted.Load()
	if m <= p {
		return
	}
	if m > int64(len(c.paint)) {
		m = int64(len(c.paint))
	}
	for k := p; k < m; k++ {
		c.paint[k].Store(int64(now))
	}
	c.painted.Store(m)
	select {
	case c.paintedCh <- struct{}{}:
	default:
	}
}

// checkScreen runs the pending screen check at a quiet point.
func (c *benchConsole) checkScreen(chk *screenCheck, lastRx time.Duration) {
	if chk == nil {
		return
	}
	if chk.settle {
		d, err := c.con.Framebuffer().DiffPixels(chk.want)
		if err != nil {
			d = chk.want.W * chk.want.H
		}
		chk.diff.Store(int64(d))
		c.finishCheck(chk, lastRx)
		return
	}
	if c.con.Framebuffer().Equal(chk.want) {
		c.finishCheck(chk, max(lastRx, chk.armedAt))
	}
}

func (c *benchConsole) finishCheck(chk *screenCheck, at time.Duration) {
	if c.expect.CompareAndSwap(chk, nil) {
		chk.paintedAt.Store(int64(at))
		close(chk.done)
	}
}

// expectScreen arms a screen check and wakes serve so an already quiet
// console runs it.
func (c *benchConsole) expectScreen(want *fb.Framebuffer, settle bool) *screenCheck {
	chk := &screenCheck{want: want, settle: settle, armedAt: c.since(), done: make(chan struct{})}
	c.expect.Store(chk)
	_ = c.conn.SetReadDeadline(time.Now().Add(quietGap))
	return chk
}

// wait waits for the check to finish or the timeout to pass, and reports
// whether it finished (a timed-out check is withdrawn).
func (c *benchConsole) wait(chk *screenCheck, timeout time.Duration) bool {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-chk.done:
		return true
	case <-t.C:
		c.expect.CompareAndSwap(chk, nil)
		return false
	}
}

// waitPainted waits until press n has painted or the timeout passes.
func (c *benchConsole) waitPainted(n int, timeout time.Duration) bool {
	t := time.NewTimer(timeout)
	defer t.Stop()
	for c.painted.Load() < int64(n) {
		select {
		case <-c.paintedCh:
		case <-t.C:
			return false
		}
	}
	return true
}
