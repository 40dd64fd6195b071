package main

import (
	"sync"
	"sync/atomic"
	"time"

	"slim/internal/core"
	"slim/internal/fb"
	"slim/internal/protocol"
	"slim/internal/server"
	"slim/internal/workload"
)

// probeButtons marks the benchmark's probe pointer event. The marker app
// answers it by snapshotting the session's authoritative frame buffer and
// draws nothing; no inner app ever sees it.
const probeButtons = 0x80

// markerApp is the benchmark-owned Application every workload runs. It
// wraps the measured application and, after each key press's ops, paints
// a 1×1 FILL whose colour is the press's 1-based number on a pixel the
// inner app never draws (the terminal gets a screen one row shorter; the
// drives never reach the bottom-right corner). A console has painted
// press n once that pixel reads n or more.
//
// The server calls HandleKey and HandlePointer under its own lock, which
// is what lets the app read the session encoder race-free.
type markerApp struct {
	inner  server.Application
	marker protocol.Rect
	trace  *atomic.Bool

	presses uint32
	// enc is the session's encoder, set once the session exists.
	enc atomic.Pointer[core.Encoder]
	// lastResets and resets follow the gen-2 cache generation count: a
	// hotdesk to a gen-1 console drops the encoder's gen-2 state, so the
	// count restarts and only increases are summed.
	lastResets uint64
	resets     atomic.Uint64

	appNs atomic.Int64 // time inside the inner app (traced runs only)

	snapMu sync.Mutex
	snap   *fb.Framebuffer
	snapCh chan struct{} // closed when snap is set
}

// markerPixel is the pixel the marker FILL paints: the screen's
// bottom-right corner, below the inner app's shortened screen.
func markerPixel(w, h int) protocol.Rect { return protocol.Rect{X: w - 1, Y: h - 1, W: 1, H: 1} }

func newMarkerApp(inner server.Application, w, h int, trace *atomic.Bool) *markerApp {
	return &markerApp{inner: inner, marker: markerPixel(w, h), trace: trace}
}

// terminalApp is the typing workloads' inner app: the repository's glyph
// terminal on all but the marker row.
func terminalApp(w, h int) server.Application { return server.NewTerminal(w, h-1) }

// terminalRows is how many text rows terminalApp shows on an h-pixel
// screen: after that many newlines every further newline scrolls.
func terminalRows(h int) int { return (h - 1) / server.TermGlyphH }

// newlines returns n newline keystrokes.
func newlines(n int) []uint16 {
	out := make([]uint16, n)
	for i := range out {
		out[i] = '\n'
	}
	return out
}

// driveApp steps a workload drive once per key press.
type driveApp struct {
	d    *workload.Drive
	step int
}

// newDriveApp steps the mixed drive (scroll, overlay re-expose and a
// video region), whose content is a pure function of seed.
func newDriveApp(seed uint64) *driveApp {
	d, err := workload.NewDrive("mixed", seed)
	if err != nil {
		panic(err) // "mixed" is a drive the workload package defines
	}
	return &driveApp{d: d}
}

func (a *driveApp) HandleKey(ev protocol.KeyEvent) []core.Op {
	if !ev.Down {
		return nil
	}
	ops := a.d.Step(a.step)
	a.step++
	return ops
}

func (a *driveApp) HandlePointer(protocol.PointerEvent) []core.Op { return nil }

func keyEvent(code uint16, down bool) protocol.KeyEvent {
	return protocol.KeyEvent{Code: code, Down: down}
}

func (a *markerApp) HandleKey(ev protocol.KeyEvent) []core.Op {
	var t0 time.Time
	traced := a.trace.Load()
	if traced {
		t0 = time.Now()
	}
	ops := a.inner.HandleKey(ev)
	if traced {
		a.appNs.Add(int64(time.Since(t0)))
	}
	if !ev.Down {
		return ops
	}
	a.presses++
	a.noteResets()
	return append(ops, core.FillOp{Rect: a.marker, Color: protocol.Pixel(a.presses)})
}

func (a *markerApp) HandlePointer(ev protocol.PointerEvent) []core.Op {
	if ev.Buttons == probeButtons {
		if enc := a.enc.Load(); enc != nil {
			a.snapMu.Lock()
			if a.snap == nil && a.snapCh != nil {
				a.snap = enc.FB.Snapshot()
				close(a.snapCh)
			}
			a.snapMu.Unlock()
		}
		return nil
	}
	return a.inner.HandlePointer(ev)
}

func (a *markerApp) noteResets() {
	enc := a.enc.Load()
	if enc == nil {
		return
	}
	r := enc.Codec2Stats().Resets
	if r >= a.lastResets {
		a.resets.Add(r - a.lastResets)
	} else {
		a.resets.Add(r)
	}
	a.lastResets = r
}

// armProbe prepares for one probe; the returned function waits for the
// snapshot the probe takes (nil after timeout).
func (a *markerApp) armProbe() func(timeout time.Duration) *fb.Framebuffer {
	a.snapMu.Lock()
	a.snap = nil
	ch := make(chan struct{})
	a.snapCh = ch
	a.snapMu.Unlock()
	return func(timeout time.Duration) *fb.Framebuffer {
		select {
		case <-ch:
		case <-time.After(timeout):
			return nil
		}
		a.snapMu.Lock()
		defer a.snapMu.Unlock()
		return a.snap
	}
}

// appSet is the server's AppFactory for a run: it builds a markerApp per
// user and keeps them so the run can reach each session's app.
type appSet struct {
	newInner func(user string, w, h int) server.Application
	trace    *atomic.Bool

	mu   sync.Mutex
	apps map[string]*markerApp
}

func newAppSet(trace *atomic.Bool, newInner func(user string, w, h int) server.Application) *appSet {
	return &appSet{newInner: newInner, trace: trace, apps: make(map[string]*markerApp)}
}

func (s *appSet) factory(user string, w, h int) server.Application {
	a := newMarkerApp(s.newInner(user, w, h), w, h, s.trace)
	s.mu.Lock()
	s.apps[user] = a
	s.mu.Unlock()
	return a
}

func (s *appSet) app(user string) *markerApp {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.apps[user]
}

// appNs sums the time all apps spent in their inner application.
func (s *appSet) appNs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, a := range s.apps {
		n += a.appNs.Load()
	}
	return n
}

// resets sums the gen-2 cache generations the apps have seen.
func (s *appSet) resets() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, a := range s.apps {
		n += a.resets.Load()
	}
	return n
}
