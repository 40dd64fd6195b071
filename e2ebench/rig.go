package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"slim"
	"slim/internal/core"
	"slim/internal/fb"
	"slim/internal/obs"
	"slim/internal/server"
)

// runConfig is one invocation's flags.
type runConfig struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
}

// setupRepeats is how many times a run sets its rig up; setup_s is the
// median and the last rig is the one measured.
const setupRepeats = 7

// setUp builds a rig setupRepeats times, closing all but the last, and
// returns the last with every set-up's time in seconds.
func setUp[R interface{ Close() }](build func() (R, error)) (R, []float64, error) {
	var last R
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			last.Close()
		}
		t0 := time.Now()
		r, err := build()
		if err != nil {
			var none R
			return none, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		progress("set-up %d/%d took %.3f s", i+1, setupRepeats, secs[i])
		last = r
	}
	return last, secs, nil
}

// paintTimeout is how long an input may take to paint before it counts
// as failed.
const paintTimeout = time.Second

// drainWait is how long a run waits after its last input before counting
// stale pixels: long enough for two idle STATUS heartbeats, so a lagging
// console has had the chance to trigger the server's recovery repaint.
const drainWait = 2*slim.StatusInterval + 100*time.Millisecond

// serverOptions is the slimd -flow -codec2 configuration with the run's
// registry and recovery-event log; every other observability setting
// stays at the process defaults.
func serverOptions(reg *obs.Registry, events *eventLog) []slim.ServerOption {
	return []slim.ServerOption{
		slim.WithCostModel(slim.SunRay1Costs()),
		slim.WithFlowControl(slim.FlowConfig{}),
		slim.WithCodec2(),
		slim.WithMetricsRegistry(reg),
		slim.WithLogger(slog.New(events)),
	}
}

// eventLog is a slog.Handler counting the server's recovery repaints.
type eventLog struct{ recoveries atomic.Int64 }

// recoveryMsg is the message internal/server logs when a STATUS shows a
// console lost display state and the session is repainted.
const recoveryMsg = "display state lost; recovery repaint"

func (l *eventLog) Enabled(_ context.Context, lv slog.Level) bool { return lv >= slog.LevelWarn }
func (l *eventLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message == recoveryMsg {
		l.recoveries.Add(1)
	}
	return nil
}
func (l *eventLog) WithAttrs([]slog.Attr) slog.Handler { return l }
func (l *eventLog) WithGroup(string) slog.Handler      { return l }

// udpRig is one UDP loopback deployment: the server, its consoles and
// the run's instruments.
type udpRig struct {
	epoch    time.Time
	srv      *slim.UDPServer
	cancel   context.CancelFunc
	reg      *obs.Registry
	events   *eventLog
	apps     *appSet
	consoles []*benchConsole
	users    []string
	trace    *atomic.Bool
	// warmFailed counts set-up presses that did not paint in time.
	warmFailed int
	// timer paces the open-loop generator.
	timer *fineTimer
}

func (r *udpRig) since() time.Duration { return time.Since(r.epoch) }

// sleepUntil blocks until the rig's clock reads at.
func (r *udpRig) sleepUntil(at time.Duration) error {
	return r.timer.sleep(at - r.since())
}

func newUDPRig(newInner func(user string, w, h int) server.Application) (*udpRig, error) {
	r := &udpRig{
		epoch:  time.Now(),
		reg:    obs.NewRegistry(obs.DomainWall),
		events: &eventLog{},
		trace:  &atomic.Bool{},
	}
	r.apps = newAppSet(r.trace, newInner)
	timer, err := newFineTimer()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := slim.ListenAndServeContext(ctx, "127.0.0.1:0", r.apps.factory, serverOptions(r.reg, r.events)...)
	if err != nil {
		cancel()
		timer.Close()
		return nil, err
	}
	r.srv, r.cancel, r.timer = srv, cancel, timer
	return r, nil
}

// addConsole dials a console; with a user it presents that user's card
// and waits for the session to attach.
func (r *udpRig) addConsole(user string, spec consoleSpec) (*benchConsole, error) {
	spec.registry, spec.epoch, spec.trace = r.reg, r.epoch, r.trace
	if user != "" {
		spec.card = cardOf(user)
		r.srv.Server.Auth.Register(spec.card, user)
	}
	c, err := dialBenchConsole(r.srv.Addr().String(), spec)
	if err != nil {
		return nil, err
	}
	r.consoles = append(r.consoles, c)
	r.users = append(r.users, user)
	if user != "" {
		if err := r.awaitSession(user); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func cardOf(user string) string { return "card-" + user }

// awaitSession waits for the user's session and hands its encoder to the
// user's marker app.
func (r *udpRig) awaitSession(user string) error {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if sess := r.srv.Server.SessionByUser(user); sess != nil {
			if app := r.apps.app(user); app != nil {
				app.enc.Store(sess.Encoder)
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("session for %q never attached", user)
}

// closeWait bounds how long Close waits for the server to stop. A server
// caught in a repaint storm finishes its current pump (which can take
// minutes of supersession scans) before it notices; the run then moves on
// and the process exit ends it.
const closeWait = 10 * time.Second

// Close stops the consoles and the server and waits for them, the server
// for at most closeWait.
func (r *udpRig) Close() {
	for _, c := range r.consoles {
		c.Close()
	}
	r.timer.Close()
	r.cancel()
	done := make(chan struct{})
	go func() {
		_ = r.srv.Close() // the socket is all it releases; nothing to report
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(closeWait):
		progress("server still busy %v after close; not waiting for it", closeWait)
	}
}

// sessionScreen snapshots the user's session screen: the console sends a
// probe pointer event, which the marker app answers under the server's
// lock once every earlier input has been handled. The probe is resent
// while unanswered, since a server flooded by its own repaints may drop
// console datagrams.
func sessionScreen(app *markerApp, send func() error) (*fb.Framebuffer, error) {
	wait := app.armProbe()
	for try := 0; try < 20; try++ {
		if err := send(); err != nil {
			return nil, err
		}
		if snap := wait(250 * time.Millisecond); snap != nil {
			return snap, nil
		}
	}
	return nil, errNotDrained
}

// errNotDrained reports a console still busy with display traffic (or a
// server too busy to answer a probe) long after the last input: its
// stale pixels cannot be counted.
var errNotDrained = errors.New("console never drained")

// stalePixels counts, for each console showing a session, the pixels
// that differ from the session's screen once the console has drained. It
// also returns the first session's screen.
func (r *udpRig) stalePixels() (int, *fb.Framebuffer, error) {
	total := 0
	var first *fb.Framebuffer
	for i, c := range r.consoles {
		user := r.users[i]
		if user == "" {
			continue
		}
		want, err := sessionScreen(r.apps.app(user), c.probe)
		if err != nil {
			return 0, nil, err
		}
		if first == nil {
			first = want
		}
		chk := c.expectScreen(want, true)
		if !c.wait(chk, 2*time.Second) {
			return 0, nil, errNotDrained
		}
		total += int(chk.diff.Load())
	}
	return total, first, nil
}

// consoleCounts is a reading of the traffic counters at the consoles.
type consoleCounts struct {
	downDatagrams, downBytes, up, decodeNs int64
}

func (r *udpRig) counts() consoleCounts {
	var s consoleCounts
	for _, c := range r.consoles {
		s.downDatagrams += c.downDatagrams.Load()
		s.downBytes += c.downBytes.Load()
		s.up += c.upTotal()
		s.decodeNs += c.decodeNs.Load()
	}
	return s
}

func (a consoleCounts) sub(b consoleCounts) consoleCounts {
	return consoleCounts{
		downDatagrams: a.downDatagrams - b.downDatagrams,
		downBytes:     a.downBytes - b.downBytes,
		up:            a.up - b.up,
		decodeNs:      a.decodeNs - b.decodeNs,
	}
}

// rigSnap is everything a measurement window is charged, read at one
// instant.
type rigSnap struct {
	at       time.Duration
	proc     procSample
	reg      obs.Snapshot
	cons     consoleCounts
	appNs    int64
	resets   uint64
	recovery int64
}

func (r *udpRig) snap() rigSnap {
	return rigSnap{
		at:       r.since(),
		proc:     readProc(),
		reg:      r.reg.Snapshot(),
		cons:     r.counts(),
		appNs:    r.apps.appNs(),
		resets:   r.apps.resets(),
		recovery: r.events.recoveries.Load(),
	}
}

// udpLayers fills the ledger rows a UDP window provides.
func udpLayers(a, b rigSnap, inputs int) map[string]float64 {
	m := make(map[string]float64)
	d := b.cons.sub(a.cons)
	mins := (b.at - a.at).Minutes()
	m["udp.down_datagrams_per_input"] = perInput(float64(d.downDatagrams), inputs)
	m["udp.up_datagrams_per_input"] = perInput(float64(d.up), inputs)
	m["udp.down_bytes_per_datagram"] = ratio(float64(d.downBytes), float64(d.downDatagrams))
	m["server.recovery_repaints_per_min"] = ratio(float64(b.recovery-a.recovery), mins)
	m["app.us_per_input"] = perInput(float64(b.appNs-a.appNs)/1e3, inputs)
	m["core.cache_resets_per_min"] = ratio(float64(b.resets-a.resets), mins)
	m["console.decode_us_per_input"] = perInput(float64(d.decodeNs)/1e3, inputs)
	m["gc.cpu_frac"] = a.proc.to(b.proc).gcFrac
	layerDelta{a.reg, b.reg}.fromRegistry(m, inputs)
	return m
}

// scoreUDP fills in a UDP run's metrics from its window snapshots (start
// and end, plus the half-way point in a traced run) and its input-to-paint
// times in due order, failed inputs included: the end-to-end set for an
// untraced run, the ledger rows a UDP window provides for a traced one.
// elapsed runs from the window's start to its measured end or the last
// paint, whichever is later.
func (res *result) scoreUDP(cfg runConfig, snaps []rigSnap, itps, tracedItps []float64, elapsed time.Duration, heap float64, setups []float64) {
	completed := res.attempted - res.failed
	res.samples = len(itps)
	if !cfg.trace {
		win := snaps[0].proc.to(snaps[1].proc)
		res.e2e = map[string]float64{
			"itp_p50_ms":           quantile(itps, 0.50),
			"itp_p99_ms":           p99(itps),
			"inputs_per_s":         float64(completed) / elapsed.Seconds(),
			"cpu_us_per_input":     perInput(float64(win.cpu)/1e3, completed),
			"wire_bytes_per_input": perInput(float64(snaps[1].cons.sub(snaps[0].cons).downBytes), completed),
			"allocs_per_input":     perInput(float64(win.allocs), completed),
			"heap_mb":              heap,
			"setup_s":              median(setups),
		}
		return
	}
	// Per-layer counts are per attempted input, so a run whose inputs
	// fail still reports the work they caused.
	m := udpLayers(snaps[1], snaps[2], len(tracedItps))
	m["itp_p99_ms"] = p99(tracedItps)
	untraced := perInput(float64(snaps[0].proc.to(snaps[1].proc).cpu), len(itps)-len(tracedItps))
	traced := perInput(float64(snaps[1].proc.to(snaps[2].proc).cpu), len(tracedItps))
	m["trace.overhead_frac"] = ratio(traced-untraced, untraced)
	// Rows only the fabric workload measures.
	m["fabric.deliver_us"] = 0
	m["server.handle_self_us"] = 0
	m["obs.overhead_us_per_input"] = 0
	res.layers = m
}

// replayEncode times a standalone encoder over the op stream a marker
// app produces for the given presses: warm presses are replayed untimed,
// then the timed ones. It returns the mean encode time per timed press.
func replayEncode(app *markerApp, w, h int, gen2 bool, warm, timed []uint16) (time.Duration, error) {
	enc := core.NewEncoder(w, h)
	if gen2 {
		enc.EnableCodec2(0)
	}
	release(enc.RepaintAll())
	var spent time.Duration
	for i, code := range append(append([]uint16(nil), warm...), timed...) {
		ops := append(app.HandleKey(keyEvent(code, true)), app.HandleKey(keyEvent(code, false))...)
		t0 := time.Now()
		for _, op := range ops {
			dgs, err := enc.Encode(op)
			if err != nil {
				return 0, err
			}
			release(dgs)
		}
		if i >= len(warm) {
			spent += time.Since(t0)
		}
	}
	if len(timed) == 0 {
		return 0, nil
	}
	return spent / time.Duration(len(timed)), nil
}

func release(dgs []core.Datagram) {
	for i := range dgs {
		dgs[i].ReleaseWire()
	}
}
