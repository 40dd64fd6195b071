package slim

import (
	"time"

	"slim/internal/server"
	"slim/internal/video"
)

// Ticker is implemented by applications that render on their own clock;
// the server's Tick (or UDPServer.StartTicker) drives them.
type Ticker = server.Ticker

// VideoSource produces RGB frames with a modelled per-frame server cost.
type VideoSource = video.Source

// VideoApp is a session application that plays a video source via CSCS —
// the shape of the paper's ShowMeTV port (§7.1).
type VideoApp = video.App

// NewVideoApp returns a player rendering src into dst at fps.
func NewVideoApp(src VideoSource, dst Rect, format CSCSFormat, fps float64) *VideoApp {
	return video.NewApp(src, dst, format, fps)
}

// Synthetic video sources (§7): stored MPEG-II-style movie, live NTSC
// capture, and a Quake-style game renderer.
func NewMPEG2Source(seed uint64) VideoSource { return video.NewMPEG2(seed) }

// NewNTSCSource returns the §7.2 live-capture stand-in (640x240 fields).
func NewNTSCSource(seed uint64) VideoSource { return video.NewNTSC(seed) }

// NewQuakeSource returns the §7.3 game stand-in at the given resolution.
func NewQuakeSource(w, h int, seed uint64) VideoSource { return video.NewQuake(w, h, seed) }

// StartTicker drives Ticker applications (video players) at the given
// rate until the server is closed. Ticks read the listener's clock, the
// one the serve loop and the flow pacer use, and Close waits for a tick
// in progress to finish.
func (s *UDPServer) StartTicker(fps float64) {
	s.udpListener.startTicker(fps, s.Server.Tick)
}

// StartTicker drives Ticker applications on every shard at the given rate
// until the broker is closed.
func (b *UDPBroker) StartTicker(fps float64) {
	b.udpListener.startTicker(fps, b.Broker.Tick)
}

func (l *udpListener) startTicker(fps float64, tick func(time.Duration) error) {
	if fps <= 0 {
		fps = 30
	}
	interval := time.Duration(float64(time.Second) / fps)
	// Register under mu, which Close holds to close l.closed: Close
	// either waits for this goroutine or it never starts.
	l.mu.Lock()
	defer l.mu.Unlock()
	select {
	case <-l.closed:
		return
	default:
	}
	l.tickers.Add(1)
	go func() {
		defer l.tickers.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-l.closed:
				return
			case <-t.C:
				// Per-session errors must not stop the clock.
				_ = tick(time.Since(l.start))
			}
		}
	}()
}
