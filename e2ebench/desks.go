package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"slim"
	"slim/internal/console"
	"slim/internal/core"
	"slim/internal/fb"
	"slim/internal/obs"
	"slim/internal/server"
)

// The desks workload: deskCount gen-2 desks at 1024×768 on the in-process
// fabric, typed into round-robin by one closed-loop goroutine.
const (
	deskCount        = 16
	deskReplayMax    = 20000 // inputs replayed through the standalone encoder
	deskW, deskH     = 1024, 768
	obsPairSlices    = 8 // alternating flight+SLO on/off slices in a traced run
	deskUserFmt      = "desk-user%d"
	deskConsoleIDFmt = "desk-%d"
)

// fabricShim is the server's Transport: Fabric.Send with the bytes
// counted and, in traced windows, the delivery timed.
type fabricShim struct {
	f      *slim.Fabric
	trace  *atomic.Bool
	bytes  atomic.Int64
	sends  atomic.Int64
	sendNs atomic.Int64
}

func (s *fabricShim) Send(id string, wire []byte) error {
	s.sends.Add(1)
	s.bytes.Add(int64(len(wire)))
	if !s.trace.Load() {
		return s.f.Send(id, wire)
	}
	t0 := time.Now()
	err := s.f.Send(id, wire)
	s.sendNs.Add(int64(time.Since(t0)))
	return err
}

func (s *fabricShim) Addr() net.Addr { return s.f.Addr() }
func (s *fabricShim) Close() error   { return s.f.Close() }

// deskRig is the fabric deployment.
type deskRig struct {
	epoch    time.Time
	fab      *slim.Fabric
	shim     *fabricShim
	srv      *slim.Server
	reg      *obs.Registry
	events   *eventLog
	apps     *appSet
	trace    *atomic.Bool
	consoles []*console.Console
	desks    []slim.Desk
	presses  []int
	text     []*textStream // per desk
	// selfNs is the traced time spent inside Server.Handle (the desk
	// input calls) minus the time in the app and in Send.
	selfNs int64
}

func (r *deskRig) since() time.Duration { return time.Since(r.epoch) }

// Close detaches every desk; the fabric runs no goroutines.
func (r *deskRig) Close() { _ = r.fab.Close() } // Fabric.Close never fails

func newDeskRig(seed uint64) (*deskRig, error) {
	r := &deskRig{
		epoch:  time.Now(),
		fab:    slim.NewFabric(),
		reg:    obs.NewRegistry(obs.DomainWall),
		events: &eventLog{},
		trace:  &atomic.Bool{},
	}
	r.shim = &fabricShim{f: r.fab, trace: r.trace}
	r.apps = newAppSet(r.trace, func(_ string, w, h int) server.Application { return terminalApp(w, h) })
	r.srv = slim.NewServer(r.shim, r.apps.factory, serverOptions(r.reg, r.events)...)
	for i := 0; i < deskCount; i++ {
		con, err := console.New(console.Config{
			Width: deskW, Height: deskH, Obs: r.reg,
			TileCacheEntries: core.DefaultTileCacheEntries,
		})
		if err != nil {
			return nil, err
		}
		id, user := fmt.Sprintf(deskConsoleIDFmt, i), fmt.Sprintf(deskUserFmt, i)
		r.fab.Attach(id, con, r.srv)
		r.srv.Auth.Register(cardOf(user), user)
		r.pump()
		if err := r.fab.Boot(id, cardOf(user)); err != nil {
			return nil, fmt.Errorf("boot %s: %w", id, err)
		}
		sess := r.srv.SessionByUser(user)
		if sess == nil {
			return nil, fmt.Errorf("desk %d never attached", i)
		}
		r.apps.app(user).enc.Store(sess.Encoder)
		r.consoles = append(r.consoles, con)
		r.desks = append(r.desks, r.fab.Desk(id))
		r.presses = append(r.presses, 0)
		r.text = append(r.text, newTextStream(seed, deskStream+uint64(i)))
	}
	// Warm up with a screenful of newlines per desk, so every terminal
	// starts the window in its steady state, scrolling once per line.
	for i := 0; i < terminalRows(deskH)*deskCount; i++ {
		if _, ok, err := r.input(i%deskCount, '\n'); err != nil || !ok {
			return nil, fmt.Errorf("warm-up input %d: painted=%v err=%v", i, ok, err)
		}
	}
	return r, nil
}

// pump sets the fabric clock from the wall clock and releases whatever
// the governors' pacing allows by now.
func (r *deskRig) pump() {
	r.fab.SetClock(r.since())
	_ = r.fab.Pump() // a pump error is a failed delivery the paint check sees
}

// input types code at desk d and waits, pumping, until it has
// painted or paintTimeout passed. It returns the input-to-paint time from
// the send.
func (r *deskRig) input(d int, code uint16) (time.Duration, bool, error) {
	r.pump()
	r.presses[d]++
	n := r.presses[d]
	traced := r.trace.Load()
	var app0, send0 int64
	if traced {
		app0, send0 = r.apps.appNs(), r.shim.sendNs.Load()
	}
	t0 := time.Now()
	if err := r.desks[d].SendKey(code, true); err != nil {
		return 0, false, err
	}
	if err := r.desks[d].SendKey(code, false); err != nil {
		return 0, false, err
	}
	if traced {
		handle := int64(time.Since(t0))
		r.selfNs += handle - (r.apps.appNs() - app0) - (r.shim.sendNs.Load() - send0)
	}
	fbuf := r.consoles[d].Framebuffer()
	for {
		if int(fbuf.At(deskW-1, deskH-1)) >= n {
			return time.Since(t0), true, nil
		}
		if time.Since(t0) > paintTimeout {
			return 0, false, nil
		}
		r.pump()
	}
}

// deskSnap is what a desks window is charged, read at one instant.
type deskSnap struct {
	proc            procSample
	reg             obs.Snapshot
	bytes, sends    int64
	sendNs, appNs   int64
	selfNs          int64
	resets          uint64
	recovery        int64
	inputs, painted int
}

func (r *deskRig) snap(inputs, painted int) deskSnap {
	return deskSnap{
		proc:     readProc(),
		reg:      r.reg.Snapshot(),
		bytes:    r.shim.bytes.Load(),
		sends:    r.shim.sends.Load(),
		sendNs:   r.shim.sendNs.Load(),
		appNs:    r.apps.appNs(),
		selfNs:   r.selfNs,
		resets:   r.apps.resets(),
		recovery: r.events.recoveries.Load(),
		inputs:   inputs,
		painted:  painted,
	}
}

// cpuPerInput is the process CPU per painted input between two snaps.
func cpuPerInput(a, b deskSnap) float64 {
	return perInput(float64(a.proc.to(b.proc).cpu)/1e3, b.painted-a.painted)
}

func runDesks(cfg runConfig) (*result, error) {
	r, setups, err := setUp(func() (*deskRig, error) { return newDeskRig(cfg.seed) })
	if err != nil {
		return nil, err
	}
	defer r.Close()

	res := &result{}
	var itps []float64
	d := 0
	// window drives inputs closed-loop until the wall clock passes end.
	window := func(end time.Time) error {
		for time.Now().Before(end) {
			itp, ok, err := r.input(d, r.text[d].next())
			if err != nil {
				return err
			}
			d = (d + 1) % deskCount
			res.attempted++
			if !ok {
				res.failed++
				itps = append(itps, failedMs)
				continue
			}
			itps = append(itps, float64(itp)/1e6)
		}
		return nil
	}
	snapNow := func() deskSnap { return r.snap(res.attempted, res.attempted-res.failed) }

	if !cfg.trace {
		a := snapNow()
		if err := window(time.Now().Add(cfg.window)); err != nil {
			return nil, err
		}
		b := snapNow()
		win := a.proc.to(b.proc)
		completed := b.painted - a.painted
		res.samples = len(itps)
		res.e2e = map[string]float64{
			"itp_p50_ms":           quantile(itps, 0.50),
			"itp_p99_ms":           p99(itps),
			"inputs_per_s":         float64(completed) / win.wall.Seconds(),
			"cpu_us_per_input":     cpuPerInput(a, b),
			"wire_bytes_per_input": perInput(float64(b.bytes-a.bytes), completed),
			"allocs_per_input":     perInput(float64(win.allocs), completed),
			"heap_mb":              liveHeapMB(),
			"setup_s":              median(setups),
		}
	} else {
		// Untraced slices alternate the flight recorder and SLO tracker
		// on (the process default) and off; the traced half follows
		// with both on.
		var on, off []float64
		slice := cfg.window / 2 / obsPairSlices
		for i := 0; i < obsPairSlices; i++ {
			enabled := i%2 == 0
			slim.FlightRecorder().SetEnabled(enabled)
			slim.SLO().SetEnabled(enabled)
			a := snapNow()
			if err := window(time.Now().Add(slice)); err != nil {
				return nil, err
			}
			if enabled {
				on = append(on, cpuPerInput(a, snapNow()))
			} else {
				off = append(off, cpuPerInput(a, snapNow()))
			}
		}
		slim.FlightRecorder().SetEnabled(true)
		slim.SLO().SetEnabled(true)
		itps = itps[:0]
		r.trace.Store(true)
		a := snapNow()
		if err := window(time.Now().Add(cfg.window / 2)); err != nil {
			return nil, err
		}
		b := snapNow()
		r.trace.Store(false)
		res.samples = len(itps)
		inputs := b.inputs - a.inputs
		mins := a.proc.to(b.proc).wall.Minutes()
		m := map[string]float64{
			"itp_p99_ms":                       p99(itps),
			"fabric.deliver_us":                perInput(float64(b.sendNs-a.sendNs)/1e3, int(b.sends-a.sends)),
			"server.handle_self_us":            perInput(float64(b.selfNs-a.selfNs)/1e3, inputs),
			"app.us_per_input":                 perInput(float64(b.appNs-a.appNs)/1e3, inputs),
			"server.recovery_repaints_per_min": ratio(float64(b.recovery-a.recovery), mins),
			"core.cache_resets_per_min":        ratio(float64(b.resets-a.resets), mins),
			"obs.overhead_us_per_input":        pairDiff(on, off),
			"gc.cpu_frac":                      a.proc.to(b.proc).gcFrac,
			"trace.overhead_frac":              ratio(cpuPerInput(a, b)-median(on), median(on)),
			"udp.down_datagrams_per_input":     0,
			"udp.up_datagrams_per_input":       0,
			"udp.down_bytes_per_datagram":      0,
			"console.decode_us_per_input":      0, // inside fabric.deliver_us here
		}
		layerDelta{a.reg, b.reg}.fromRegistry(m, inputs)
		enc, err := replayEncode(newMarkerApp(terminalApp(deskW, deskH), deskW, deskH, new(atomic.Bool)),
			deskW, deskH, true, newlines(terminalRows(deskH)), newTextStream(cfg.seed, deskStream).take(min(inputs, deskReplayMax)))
		if err != nil {
			return nil, err
		}
		m["core.encode_us_per_input"] = float64(enc) / 1e3
		res.layers = m
	}
	progress("window done: %d inputs", res.attempted)
	stale, screen, err := r.stalePixels()
	if err := res.noteStale(stale, err); err != nil {
		return nil, err
	}
	if res.layers != nil {
		res.layers["core.repaint_ms"] = repaintMs(screen, true)
	}
	res.notes = append(res.notes, fmt.Sprintf("transport=fabric desks=%d gen2=true screen=%dx%d closed-loop setups_s=%.4f",
		deskCount, deskW, deskH, setups))
	return res, nil
}

// stalePixels compares every desk with its session once the governors
// have drained, and returns the first desk's session screen.
func (r *deskRig) stalePixels() (int, *fb.Framebuffer, error) {
	deadline := time.Now().Add(drainWait)
	for time.Now().Before(deadline) {
		r.pump()
		time.Sleep(time.Millisecond)
	}
	total := 0
	var first *fb.Framebuffer
	for i, con := range r.consoles {
		app := r.apps.app(fmt.Sprintf(deskUserFmt, i))
		want, err := sessionScreen(app, func() error { return r.desks[i].SendPointer(0, 0, probeButtons) })
		if err != nil {
			return 0, nil, err
		}
		if first == nil {
			first = want
		}
		n, err := con.Framebuffer().DiffPixels(want)
		if err != nil {
			return 0, nil, err
		}
		total += n
	}
	return total, first, nil
}

// pairDiff is the median over adjacent on/off slice pairs of the on
// slice's value minus the off slice's, which cancels drift across the
// run.
func pairDiff(on, off []float64) float64 {
	var d []float64
	for i := range on {
		if i < len(off) {
			d = append(d, on[i]-off[i])
		}
	}
	return median(d)
}
