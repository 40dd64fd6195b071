package server

import (
	"fmt"

	"slim/internal/flow"
	"slim/internal/obs"
	"slim/internal/obs/flight"
	"slim/internal/obs/netqual"
	"slim/internal/obs/slo"
)

// metrics is the session manager's live instrument set, resolved once per
// server so the input and attach paths pay only atomic operations.
type metrics struct {
	// sessions is the number of live sessions (attached or detached).
	sessions *obs.Gauge
	// attaches counts session→console attachments (first logins and
	// mobility moves alike); reconnects counts the subset that re-attached
	// an existing session (a card re-inserted somewhere).
	attaches   *obs.Counter
	reconnects *obs.Counter
	// authFailures counts rejected card tokens.
	authFailures *obs.Counter
	// inputEvents counts keystrokes and pointer updates received.
	inputEvents *obs.Counter
	// inputToPaint is the paper's canonical interactive-latency metric
	// (§3): input event captured → resulting display commands encoded,
	// shipped, and — on a synchronous transport such as the in-process
	// fabric — decoded and flushed into the console frame buffer. Each
	// session additionally records into its own labeled histogram.
	inputToPaint *obs.Histogram
}

func newMetrics(r *obs.Registry) *metrics {
	return &metrics{
		sessions:     r.Gauge("slim_sessions"),
		attaches:     r.Counter("slim_session_attaches_total"),
		reconnects:   r.Counter("slim_session_reconnects_total"),
		authFailures: r.Counter("slim_auth_failures_total"),
		inputEvents:  r.Counter("slim_input_events_total"),
		inputToPaint: r.Histogram("slim_input_to_paint_seconds"),
	}
}

// sessionHistogramName is the per-session input-to-paint histogram's
// registry key — shared by resolution and release, so terminated sessions
// do not leak labeled series.
func sessionHistogramName(user string) string {
	return fmt.Sprintf("slim_input_to_paint_seconds{session=%q}", user)
}

// sessionTelemetry is a session's observability handle: every per-session
// series and tracker entry, resolved in one place (newTelemetry, called by
// the session constructor) and released in one place (release).
type sessionTelemetry struct {
	// itp is the session's live input-to-paint histogram (§3's canonical
	// interactive-latency metric), labeled with the user name.
	itp *obs.Histogram
	// flog is the session's flight-recorder ring: every protocol event on
	// this session's display path lands here, causally chained.
	flog *flight.SessionLog
	// fm owns the session's labeled flow gauges; nil without flow control.
	fm *flow.Metrics
	// slo is the session's rolling SLO state (breach-rate windows, blame
	// histogram) in the server's tracker.
	slo *slo.SessionSLO
	// nq is the session's passive path estimator (RTT/jitter/loss/goodput)
	// in the server's netqual tracker. Estimators are keyed by the
	// fleet-unique session ID, so a hotdesk migration resolves the same
	// estimator on the destination shard and smoothed state survives.
	nq *netqual.PathSession
}

// newTelemetry resolves a session's handle in the server's registry and
// trackers. The flight ring, SLO state and path estimator are keyed by
// session ID, so a session imported under the ID it was exported with
// picks up the state it left behind.
func (s *Server) newTelemetry(id uint32, user string) sessionTelemetry {
	t := sessionTelemetry{
		itp:  s.obs.Histogram(sessionHistogramName(user)),
		flog: s.flight.Session(id),
		slo:  s.slo.Session(id, user),
		nq:   s.netqual.Session(id, user),
	}
	if s.flowCfg != nil {
		t.fm = flow.NewMetrics(s.obs, user)
	}
	return t
}

// release evicts the handle's per-server series — the labeled histogram
// and the flow gauges — from s's registry. With evictByID it also drops
// the state the shared trackers key by session ID: the flight ring, the
// SLO state and the path estimator. Terminate evicts everything;
// ExportSession keeps the ID-keyed state, because the session lives on
// under the same ID on the importing server.
func (t *sessionTelemetry) release(s *Server, id uint32, user string, evictByID bool) {
	s.obs.Remove(sessionHistogramName(user))
	t.fm.Unregister(s.obs)
	if evictByID {
		s.flight.Drop(id)
		s.slo.Remove(id)
		s.netqual.Remove(id)
	}
}

// InputToPaint exposes the session's live input-to-paint histogram.
func (sess *Session) InputToPaint() *obs.Histogram { return sess.itp }
