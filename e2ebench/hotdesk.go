package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"slim/internal/core"
	"slim/internal/fb"
	"slim/internal/server"
)

// Hotdesk geometry and pacing: one session whose screen is the mixed
// drive's 1280×1024 content (5,120 tiles, more than the 4,096-entry tile
// cache holds), its card moving every movePeriod between a gen-2 and a
// gen-1 console.
const (
	hotdeskW, hotdeskH = 1280, 1024
	movePeriod         = 500 * time.Millisecond
	hotdeskUser        = "user0"
	gen2Console        = 0 // the gen-1 console is the other one
)

// hotdeskRig is the UDP rig plus the benchmark's reference: a standalone
// encoder fed the same op stream, codec switches and attach repaints as
// the session's, so its frame buffer is the screen a console should show.
type hotdeskRig struct {
	*udpRig
	ref  *core.Encoder
	twin *markerApp
	cur  int // console holding the session
}

func newHotdeskRig(seed uint64) (*hotdeskRig, error) {
	rig, err := newUDPRig(func(string, int, int) server.Application { return newDriveApp(driveSeed(seed, 0)) })
	if err != nil {
		return nil, err
	}
	h := &hotdeskRig{udpRig: rig}
	inner := newDriveApp(driveSeed(seed, 0))
	h.twin = newMarkerApp(inner, hotdeskW, hotdeskH, new(atomic.Bool))
	h.ref = core.NewEncoder(hotdeskW, hotdeskH)
	h.ref.SkipWire = true
	if _, err := rig.addConsole(hotdeskUser, consoleSpec{w: hotdeskW, h: hotdeskH, gen2: true}); err != nil {
		rig.Close()
		return nil, err
	}
	h.attachRef(gen2Console)
	if _, err := rig.addConsole("", consoleSpec{w: hotdeskW, h: hotdeskH}); err != nil {
		rig.Close()
		return nil, err
	}
	// Warm the drive up closed-loop, best-effort like the open-loop
	// workloads: each step gets paintTimeout to reach the screen, and the
	// warm-up stops at the first that does not.
	for i := 0; i < inner.d.Warmup; i++ {
		if err := h.advance(); err != nil {
			rig.Close()
			return nil, err
		}
		c := h.consoles[h.cur]
		if chk := c.expectScreen(h.ref.FB.Snapshot(), false); !c.wait(chk, paintTimeout) {
			h.warmFailed = inner.d.Warmup - i
			break
		}
	}
	return h, nil
}

// attachRef mirrors the server's attach on the reference: the codec is
// negotiated for the new console and the whole screen repainted.
func (h *hotdeskRig) attachRef(console int) {
	if console == gen2Console {
		h.ref.EnableCodec2(0)
	} else {
		h.ref.DisableCodec2()
	}
	release(h.ref.RepaintAll())
}

// advance steps the drive once from the console holding the session, and
// the reference with it.
func (h *hotdeskRig) advance() error {
	if err := h.consoles[h.cur].press(' '); err != nil {
		return err
	}
	for _, ev := range []bool{true, false} {
		for _, op := range h.twin.HandleKey(keyEvent(' ', ev)) {
			if _, err := h.ref.Encode(op); err != nil {
				return err
			}
		}
	}
	return nil
}

// move is one hotdesk input in flight.
type move struct {
	due time.Duration
	chk *screenCheck
}

func runHotdesk(cfg runConfig) (*result, error) {
	h, setups, err := setUp(func() (*hotdeskRig, error) { return newHotdeskRig(cfg.seed) })
	if err != nil {
		return nil, err
	}
	defer h.Close()

	// Each period: step the drive at its start, then move the card to
	// the other console half a period later. The reference screen for
	// the move is rendered before the card goes in, off the clock.
	half := cfg.window / 2
	start := h.since()
	snaps := []rigSnap{h.snap()}
	var moves []move
	var lags []float64
	var advances int
	for k := 0; time.Duration(k)*movePeriod < cfg.window; k++ {
		base := start + time.Duration(k)*movePeriod
		if cfg.trace && k > 0 && time.Duration(k)*movePeriod == half {
			snaps = append(snaps, h.snap())
			h.trace.Store(true)
		}
		if err := h.sleepUntil(base); err != nil {
			return nil, err
		}
		lags = append(lags, float64(h.since()-base)/1e6)
		if err := h.advance(); err != nil {
			return nil, err
		}
		advances++
		target := 1 - h.cur
		h.attachRef(target)
		want := h.ref.FB.Snapshot()
		due := base + movePeriod/2
		if err := h.sleepUntil(due); err != nil {
			return nil, err
		}
		lags = append(lags, float64(h.since()-due)/1e6)
		c := h.consoles[target]
		m := move{due: due, chk: c.expectScreen(want, false)}
		if err := c.insertCard(cardOf(hotdeskUser)); err != nil {
			return nil, err
		}
		h.cur = target
		moves = append(moves, m)
	}
	if err := h.sleepUntil(start + cfg.window); err != nil {
		return nil, err
	}
	snaps = append(snaps, h.snap())
	h.trace.Store(false)
	progress("window done: %d moves", len(moves))
	// The last move may still be painting.
	if len(moves) > 0 {
		h.consoles[h.cur].wait(moves[len(moves)-1].chk, paintTimeout)
	}

	res := &result{lagP99ms: quantile(lags, 0.99), lagLimit: lagLimitFor(movePeriod)}
	var itps, tracedItps []float64
	lastPaint := snaps[len(snaps)-1].at // the window's measured end
	for _, m := range moves {
		res.attempted++
		p := time.Duration(m.chk.paintedAt.Load())
		painted := p != 0 && p-m.due <= paintTimeout
		ms := failedMs
		if painted {
			ms = float64(p-m.due) / 1e6
			lastPaint = max(lastPaint, p)
		} else {
			res.failed++
		}
		itps = append(itps, ms)
		if m.due-start >= half {
			tracedItps = append(tracedItps, ms)
		}
	}
	heap := liveHeapMB()
	time.Sleep(drainWait)
	c := h.consoles[h.cur]
	session, err := sessionScreen(h.apps.app(hotdeskUser), c.probe)
	stale := 0
	if err == nil {
		chk := c.expectScreen(session, true)
		if c.wait(chk, 2*time.Second) {
			stale = int(chk.diff.Load())
		} else {
			err = errNotDrained
		}
	}
	if err := res.noteStale(stale, err); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("transport=udp-loopback consoles=2 (gen-2, gen-1) screen=%dx%d move_period=%v setups_s=%.4f warmup_unpainted=%d",
		hotdeskW, hotdeskH, movePeriod, setups, h.warmFailed))
	if session != nil {
		refDiff, err := h.ref.FB.DiffPixels(session)
		if err != nil {
			return nil, err
		}
		res.notes = append(res.notes, fmt.Sprintf("reference_vs_session_px=%d (non-zero: the session repainted outside the attach path)", refDiff))
	} else {
		session = h.ref.FB
	}

	res.scoreUDP(cfg, snaps, itps, tracedItps, lastPaint-start, heap, setups)
	if !cfg.trace {
		return res, nil
	}
	res.layers["core.repaint_ms"] = repaintMs(session, true, false)
	inner := newDriveApp(driveSeed(cfg.seed, 0))
	warm := make([]uint16, inner.d.Warmup)
	enc, err := replayEncode(newMarkerApp(inner, hotdeskW, hotdeskH, new(atomic.Bool)),
		hotdeskW, hotdeskH, true, warm, make([]uint16, advances))
	if err != nil {
		return nil, err
	}
	res.layers["core.encode_us_per_input"] = float64(enc) / 1e3
	return res, nil
}

// repaintMs times standalone full-screen repaints of screen, cycling
// through the given codecs (true = gen-2), and returns the median; 0
// when there is no screen (the console never drained).
func repaintMs(screen *fb.Framebuffer, gen2 ...bool) float64 {
	if screen == nil {
		return 0
	}
	enc := core.NewEncoder(screen.W, screen.H)
	copy(enc.FB.Pix, screen.Pix)
	var ms []float64
	for i := 0; i < 6; i++ {
		if gen2[i%len(gen2)] {
			enc.EnableCodec2(0)
		} else {
			enc.DisableCodec2()
		}
		t0 := time.Now()
		dgs := enc.RepaintAll()
		ms = append(ms, float64(time.Since(t0))/1e6)
		release(dgs)
	}
	return median(ms)
}
