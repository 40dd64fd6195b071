package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"slim/internal/server"
)

// openLoopSpec describes an open-loop UDP workload: consoles each
// pressing keys on their own Poisson schedule.
type openLoopSpec struct {
	consoles int
	w, h     int
	gen2     bool
	rate     float64 // inputs per second per console
	typing   bool
	warmup   int // closed-loop presses per console during set-up
	// newInner builds console i's inner app (also used to build an
	// identical one for the standalone encoder replay).
	newInner func(i, w, h int) server.Application
}

// loadConsoles is how many consoles an open-loop workload drives: two,
// but never more than there are processors, so one process can offer the
// load without its own sockets and goroutines becoming the bottleneck.
func loadConsoles() int { return max(1, min(2, runtime.NumCPU())) }

// runType is the type workload: gen-1 consoles typing into the terminal
// at 200 keystrokes per second each over UDP loopback.
func runType(cfg runConfig) (*result, error) {
	return runOpenLoop(cfg, openLoopSpec{
		consoles: loadConsoles(),
		w:        1024, h: 768,
		rate:     200,
		typing:   true,
		warmup:   terminalRows(768),
		newInner: func(_, w, h int) server.Application { return terminalApp(w, h) },
	})
}

// runScroll is the scroll workload: gen-2 consoles at 1280×1024 each
// stepping the mixed drive at 20 inputs per second over UDP loopback.
func runScroll(cfg runConfig) (*result, error) {
	return runOpenLoop(cfg, openLoopSpec{
		consoles: loadConsoles(),
		w:        1280, h: 1024,
		gen2:   true,
		rate:   20,
		warmup: newDriveApp(0).d.Warmup,
		newInner: func(i, _, _ int) server.Application {
			return newDriveApp(driveSeed(cfg.seed, i))
		},
	})
}

func userOf(i int) string { return fmt.Sprintf("user%d", i) }

func (spec openLoopSpec) setup(sched []keyInput) (*udpRig, error) {
	rig, err := newUDPRig(func(user string, w, h int) server.Application {
		var i int
		if _, err := fmt.Sscanf(user, "user%d", &i); err != nil {
			panic(err) // users are named by userOf; only a bug gets here
		}
		return spec.newInner(i, w, h)
	})
	if err != nil {
		return nil, err
	}
	perConsole := make([]int, spec.consoles)
	for _, in := range sched {
		perConsole[in.Console]++
	}
	for i := 0; i < spec.consoles; i++ {
		_, err := rig.addConsole(userOf(i), consoleSpec{
			w: spec.w, h: spec.h, gen2: spec.gen2,
			maxPress: spec.warmup + perConsole[i],
		})
		if err != nil {
			rig.Close()
			return nil, err
		}
	}
	// Warm-up is closed-loop but best-effort: once a press fails to
	// paint within paintTimeout the console's warm-up stops and the
	// presses left are counted, so a system that cannot keep up is still
	// measured, in bounded time.
	warm := spec.warmText()
	for _, c := range rig.consoles {
		for n := 1; n <= spec.warmup; n++ {
			if err := c.press(warm[n-1]); err != nil {
				rig.Close()
				return nil, err
			}
			if !c.waitPainted(n, paintTimeout) {
				rig.warmFailed += spec.warmup - n + 1
				c.warmSent = n
				break
			}
			c.warmSent = n
		}
	}
	return rig, nil
}

// warmText is the set-up's closed-loop keystrokes: when typing, one
// newline per terminal row, so the terminal starts the window in its
// steady state, scrolling once per line.
func (spec openLoopSpec) warmText() []uint16 {
	if spec.typing {
		return newlines(spec.warmup)
	}
	return make([]uint16, spec.warmup)
}

func runOpenLoop(cfg runConfig, spec openLoopSpec) (*result, error) {
	sched := openLoopSchedule(cfg.seed, spec.consoles, spec.rate, cfg.window, spec.typing)
	rig, setups, err := setUp(func() (*udpRig, error) { return spec.setup(sched) })
	if err != nil {
		return nil, err
	}
	defer rig.Close()

	// The window: every scheduled input is sent at its due time. A traced
	// run measures its first half untraced and its second half traced.
	half := cfg.window / 2
	start := rig.since()
	snaps := []rigSnap{rig.snap()}
	due := make([][]time.Duration, spec.consoles) // per console, per window press
	lags := make([]float64, 0, len(sched))
	traced := false
	for _, in := range sched {
		if cfg.trace && !traced && in.At >= half {
			snaps = append(snaps, rig.snap())
			rig.trace.Store(true)
			traced = true
		}
		at := start + in.At
		if err := rig.sleepUntil(at); err != nil {
			return nil, err
		}
		lags = append(lags, float64(rig.since()-at)/1e6)
		c := rig.consoles[in.Console]
		due[in.Console] = append(due[in.Console], at)
		if err := c.press(in.Code); err != nil {
			return nil, err
		}
	}
	if err := rig.sleepUntil(start + cfg.window); err != nil {
		return nil, err
	}
	snaps = append(snaps, rig.snap())
	rig.trace.Store(false)
	progress("window done: %d inputs offered", len(sched))

	// Give the last inputs their full paint timeout, then score.
	time.Sleep(paintTimeout)
	res := &result{lagP99ms: quantile(lags, 0.99), lagLimit: lagLimitFor(time.Duration(float64(time.Second) / spec.rate))}
	type sample struct {
		at time.Duration
		ms float64
	}
	var samples []sample
	lastPaint := snaps[len(snaps)-1].at // the window's measured end
	for i, c := range rig.consoles {
		for k, at := range due[i] {
			res.attempted++
			p := time.Duration(c.paint[c.warmSent+k].Load())
			if p == 0 || p-at > paintTimeout {
				res.failed++
				samples = append(samples, sample{at, failedMs})
				continue
			}
			samples = append(samples, sample{at, float64(p-at) / 1e6})
			lastPaint = max(lastPaint, p)
		}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].at < samples[j].at })
	var itps, tracedItps []float64
	for _, s := range samples {
		itps = append(itps, s.ms)
		if s.at-start >= half {
			tracedItps = append(tracedItps, s.ms)
		}
	}
	heap := liveHeapMB()
	time.Sleep(drainWait - paintTimeout)
	stale, screen, err := rig.stalePixels()
	if err := res.noteStale(stale, err); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("transport=udp-loopback consoles=%d gen2=%v rate=%.0f/s/console screen=%dx%d setups_s=%.4f warmup_unpainted=%d",
		spec.consoles, spec.gen2, spec.rate, spec.w, spec.h, setups, rig.warmFailed))
	res.scoreUDP(cfg, snaps, itps, tracedItps, lastPaint-start, heap, setups)
	if cfg.trace {
		res.layers["core.repaint_ms"] = repaintMs(screen, spec.gen2)
		enc, err := spec.replay(sched)
		if err != nil {
			return nil, err
		}
		res.layers["core.encode_us_per_input"] = float64(enc) / 1e3
	}
	return res, nil
}

// replay times console 0's op stream through a standalone encoder.
func (spec openLoopSpec) replay(sched []keyInput) (time.Duration, error) {
	inner := spec.newInner(0, spec.w, spec.h)
	var timed []uint16
	for _, in := range sched {
		if in.Console == 0 {
			timed = append(timed, in.Code)
		}
	}
	return replayEncode(newMarkerApp(inner, spec.w, spec.h, new(atomic.Bool)), spec.w, spec.h, spec.gen2, spec.warmText(), timed)
}
