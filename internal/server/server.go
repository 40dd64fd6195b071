// Package server implements the SLIM server-side system services of §2.4:
// the authentication manager that verifies desktop users, the session
// manager that redirects a user's display I/O to whichever console they are
// sitting at, and the remote device manager for console-attached
// peripherals. Sessions own a display encoder and an application; consoles
// are interchangeable sinks that can be swapped under a session at any
// time — that is the mobility model.
package server

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"slim/internal/core"
	"slim/internal/flow"
	"slim/internal/obs"
	"slim/internal/obs/flight"
	"slim/internal/obs/netqual"
	"slim/internal/obs/slo"
	"slim/internal/protocol"
	"slim/internal/wirebuf"
)

// Application is the program a session runs: it receives raw input events
// and responds with rendering operations. Real deployments ran X servers
// here; the library ships an echo terminal (Terminal) and the experiment
// harness drives synthetic applications.
type Application interface {
	// HandleKey processes one keystroke.
	HandleKey(ev protocol.KeyEvent) []core.Op
	// HandlePointer processes one mouse update.
	HandlePointer(ev protocol.PointerEvent) []core.Op
}

// Ticker is implemented by applications that render on their own clock —
// video players, animations — in addition to reacting to input. The
// server's Tick drives them.
type Ticker interface {
	// Tick renders any output due at model time now.
	Tick(now time.Duration) []core.Op
}

// Transport delivers server→console datagrams. Implementations include UDP
// (package slim) and in-memory pipes for tests and simulation.
//
// Send must not retain wire after it returns: the server recycles wire
// buffers through a pool the moment Send comes back, so an implementation
// that queues for later delivery must copy.
type Transport interface {
	Send(console string, wire []byte) error
}

// Errors returned by the server's managers.
var (
	ErrBadToken       = errors.New("server: unknown authentication token")
	ErrNoSession      = errors.New("server: console has no attached session")
	ErrUnknownConsole = errors.New("server: unknown console")
)

// AuthManager verifies user identities presented via smart cards (§1.1:
// "users can simply present a smart identification card at any desktop").
type AuthManager struct {
	mu     sync.Mutex
	tokens map[string]string // card token → user name
}

// NewAuthManager returns an empty registry.
func NewAuthManager() *AuthManager {
	return &AuthManager{tokens: make(map[string]string)}
}

// Register binds a card token to a user.
func (a *AuthManager) Register(token, user string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tokens[token] = user
}

// Revoke removes a card token.
func (a *AuthManager) Revoke(token string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.tokens, token)
}

// Authenticate resolves a token to a user.
func (a *AuthManager) Authenticate(token string) (string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	user, ok := a.tokens[token]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrBadToken, token)
	}
	return user, nil
}

// Session is one user's persistent desktop: the authoritative frame buffer
// (inside the encoder), the running application, and the console it is
// currently displayed on (if any).
type Session struct {
	ID      uint32
	User    string
	Encoder *core.Encoder
	App     Application
	Console string // attached console ID, "" if detached

	// sessionTelemetry is the session's observability handle, embedded by
	// value so the input path reaches itp and flog with no pointer hop.
	sessionTelemetry
	// gov paces display traffic to the console's bandwidth grant (§7);
	// nil when the server runs without WithFlowControl.
	gov *flow.Governor
	// demandBps is the bandwidth demand last announced to the console's §7
	// allocator; PumpFlows re-announces when the governor's measured demand
	// drifts from it by more than 1/8.
	demandBps uint64
}

// Governor exposes the session's send governor (nil when flow control is
// disabled) — simulation harnesses drive its virtual-time pump directly.
func (sess *Session) Governor() *flow.Governor { return sess.gov }

// FlightLog exposes the session's flight-recorder ring.
func (sess *Session) FlightLog() *flight.SessionLog { return sess.flog }

// SLO exposes the session's rolling SLO state.
func (sess *Session) SLO() *slo.SessionSLO { return sess.slo }

// NetQual exposes the session's passive path estimator.
func (sess *Session) NetQual() *netqual.PathSession { return sess.nq }

// Server ties the managers together and speaks the SLIM protocol to
// consoles.
type Server struct {
	Auth *AuthManager
	// NewApp builds the application for a fresh session.
	NewApp func(user string, w, h int) Application

	mu        sync.Mutex
	transport Transport
	sessions  map[uint32]*Session
	byUser    map[string]uint32
	consoles  map[string]*consoleState
	nextID    uint32

	// Live observability: the registry metrics publish into (obs.Default
	// unless redirected by WithRegistry), the resolved server instruments,
	// and the shared encoder metric family attached to every session
	// encoder.
	obs        *obs.Registry
	metrics    *metrics
	encMetrics *core.EncoderMetrics
	// flight is the causal flight recorder sessions record protocol
	// events into (flight.Default unless redirected by WithFlightRecorder).
	flight *flight.Recorder
	// slo is the SLO tracker sessions evaluate input-to-paint latency
	// against (slo.Default unless redirected by WithSLO).
	slo *slo.Tracker
	// netqual owns per-session passive path estimators (netqual.Default
	// unless redirected by WithNetQual). Estimation is armed by the
	// tracker's SetEnabled, not per server.
	netqual *netqual.Tracker
	// log receives session lifecycle events (WithLogger); nil = silent.
	log *slog.Logger

	// costs is the console decode cost model flow-control defaults derive
	// from (WithCostModel).
	costs *core.CostModel
	// flowCfg enables the per-session send governor when non-nil
	// (WithFlowControl).
	flowCfg *flow.Config
	// cal is the live cost-model calibrator (WithCalibratedCosts). When
	// its generation advances, PumpFlows rebuilds the fitted model and
	// re-derives every governor's demand/burst from measured costs.
	cal *core.Calibrator
	// calGen is the calibrator generation last applied to the governors.
	calGen uint64
	// codec2 arms the gen-2 tile cache (WithCodec2). The cache engages
	// per attachment, only for consoles that advertised CapCachePaint in
	// their Hello; gen-1 consoles keep receiving the plain encoding.
	codec2 bool
}

type consoleState struct {
	w, h    int
	caps    uint16 // capability bits from the console's Hello
	session uint32 // attached session, 0 = login screen
	// dropped is the console's cumulative drop counter at the last Status;
	// an increase means display state was lost and must be regenerated.
	dropped uint32
	// recoverSeq is the encoder sequence a pending recovery (or attach)
	// repaint ends at; further Status-triggered recoveries are suppressed
	// until the console acknowledges past it or RecoverGrace elapses.
	// Without this epoch, a console acking mid-repaint still trails the
	// encoder, each heartbeat triggers another full repaint, and the
	// recovery path becomes a storm that never converges.
	recoverSeq uint32
	recoverAt  time.Duration // transport time the epoch opened
}

// StatusLagThreshold is how many display sequence numbers a console may
// trail the encoder before a Status heartbeat triggers a recovery repaint.
// A console that rebooted (soft state gone) reports LastSeq far behind or
// zero and is repainted in full.
const StatusLagThreshold = 512

// RecoverGrace bounds a recovery epoch in time: a console that still
// hasn't acknowledged past the repaint after this long (every status it
// sent was lost, or it rebooted before acking anything) gets another
// recovery rather than staying suppressed forever.
const RecoverGrace = 2 * time.Second

// New returns a server sending through the given transport. Options
// configure observability and flow control; the zero-option call keeps
// the historical defaults (obs.Default, flight.Default, no governor).
// Options are the only way to redirect telemetry: New resolves the
// server's metrics and wires path evidence once, after every option ran.
func New(t Transport, newApp func(user string, w, h int) Application, opts ...Option) *Server {
	s := &Server{
		Auth:      NewAuthManager(),
		NewApp:    newApp,
		transport: t,
		sessions:  make(map[uint32]*Session),
		byUser:    make(map[string]uint32),
		consoles:  make(map[string]*consoleState),
		flight:    flight.Default,
		slo:       slo.Default,
		netqual:   netqual.Default,
	}
	for _, o := range opts {
		o(s)
	}
	if s.obs == nil {
		s.obs = obs.Default
	}
	s.metrics = newMetrics(s.obs)
	s.encMetrics = core.NewEncoderMetrics(s.obs)
	if s.flowCfg != nil && s.flowCfg.Costs == nil {
		s.flowCfg.Costs = s.costs
	}
	s.wirePathEvidence()
	return s
}

// FlowEnabled reports whether sessions are created with a send governor.
func (s *Server) FlowEnabled() bool { return s.flowCfg != nil }

// NetQualTracker reports the tracker sessions observe path samples into.
func (s *Server) NetQualTracker() *netqual.Tracker { return s.netqual }

// wirePathEvidence stamps the netqual tracker's measured path state into
// the flight recorder's breach dumps: WIRE verdicts gain a LINK
// sub-verdict (loss-driven vs latency-driven) backed by the RTT/loss the
// estimator saw at breach time. Sessions the tracker never observed — or
// a disarmed tracker — contribute no evidence rather than zeros.
func (s *Server) wirePathEvidence() {
	rec, t := s.flight, s.netqual
	if rec == nil || t == nil {
		return
	}
	rec.SetPathEvidence(func(id uint32, asOf time.Duration) *flight.PathEvidence {
		if !t.Enabled() {
			return nil
		}
		nq := t.Lookup(id)
		if nq == nil {
			return nil
		}
		// The recorder's breach clock and the tracker's observe clock are
		// different epochs in the wall domain; read the windows at the
		// tracker's own now. Sim harnesses share one virtual clock, so the
		// breach time is the right read time there.
		at := asOf
		if t.Domain() == obs.DomainWall {
			at = t.Now()
		}
		return &flight.PathEvidence{
			SRTTNs:     int64(nq.SRTT()),
			RTTVarNs:   int64(nq.RTTVar()),
			MinRTTNs:   int64(nq.MinRTT()),
			JitterNs:   int64(nq.Jitter()),
			Samples:    nq.Samples(),
			LossShort:  nq.LossShortAt(at),
			LossLong:   nq.LossLongAt(at),
			GoodputBps: nq.GoodputAt(at),
		}
	})
}

// outbound is one queued server→console datagram. Sends are queued while
// the server lock is held and flushed after it is released, so a transport
// that delivers synchronously (the in-process fabric) can feed console
// replies straight back into Handle without deadlocking. Display commands
// carry their flight log and identity so flush can record the TX event at
// the actual handoff to the transport; control messages leave flog nil.
type outbound struct {
	console string
	wire    []byte
	flog    *flight.SessionLog
	seq     uint32
	cmd     protocol.MsgType
	// buf is the pooled buffer backing wire; flush releases it after the
	// transport hands the bytes off (Transport.Send must not retain).
	buf *wirebuf.Buf
	// batch lists the member commands when wire is a coalesced batch frame
	// from the flow governor (§5.4); each gets its own TX event, and each
	// member's wire buffer is released after the send.
	batch []flow.Item
}

// HandleDatagram processes one console→server datagram.
func (s *Server) HandleDatagram(console string, wire []byte, now time.Duration) error {
	_, msg, _, err := protocol.Decode(wire)
	if err != nil {
		return err
	}
	return s.Handle(console, msg, now)
}

// Handle processes one already-decoded console message.
//
// Input events are stamped here — the earliest the server can see them —
// and the stamp rides the whole encode→wire→decode→damage-flush pipeline:
// on a synchronous transport (the in-process fabric) the console has
// painted by the time flush returns, so ending the span records true
// input-to-paint; on UDP it records input-to-wire, with console-side
// decode published separately by the console's own instruments.
func (s *Server) Handle(console string, msg protocol.Message, now time.Duration) error {
	s.mu.Lock()
	var span obs.Span
	var rec *flight.Recorder
	var sessID uint32
	var sloSess *slo.SessionSLO
	switch m := msg.(type) {
	case *protocol.KeyEvent, *protocol.PointerEvent:
		s.metrics.inputEvents.Inc()
		span = obs.StartSpan(s.metrics.inputToPaint)
		if sess, err := s.sessionFor(console); err == nil {
			span.Attach(sess.itp)
			rec, sessID = s.flight, sess.ID
			sloSess = sess.slo
			if sess.flog.Armed() {
				var arg int64
				switch ev := m.(type) {
				case *protocol.KeyEvent:
					arg = int64(ev.Code)
				case *protocol.PointerEvent:
					arg = int64(ev.X)<<16 | int64(ev.Y)
				}
				sess.flog.Input(msg.Type(), arg)
			}
		}
	}
	var out []outbound
	herr := s.handleLocked(&out, console, msg, now)
	s.mu.Unlock()
	ferr := s.flush(out)
	span.End()
	// On a synchronous transport the console has painted by now, so the
	// span's elapsed time is true input-to-paint — exactly what the breach
	// dump wants to explain. Sim-domain recorders and trackers are skipped:
	// a virtual-time harness resolves true paint latencies itself and feeds
	// ObserveAt/CheckBreachAt with virtual timestamps.
	if sloSess.Armed() && sloSess.Domain() == obs.DomainWall {
		sloSess.Observe(span.Elapsed())
	}
	if rec != nil && rec.Domain() == obs.DomainWall {
		if br, breached := rec.CheckBreach(sessID, span.Elapsed()); breached {
			sloSess.RecordBlame(br.Verdict.Stage)
		}
	}
	if herr != nil {
		return herr
	}
	return ferr
}

// flush delivers queued datagrams outside the lock, recording the TX event
// for display commands at the moment they reach the transport and
// returning their pooled wire buffers once the transport is done with the
// bytes (the Transport contract forbids retention past Send).
func (s *Server) flush(out []outbound) error {
	for i := range out {
		o := &out[i]
		if o.flog.Armed() {
			if len(o.batch) > 0 {
				for _, it := range o.batch {
					o.flog.Tx(it.Seq, it.Cmd, int64(it.Bytes()))
				}
			} else {
				o.flog.Tx(o.seq, o.cmd, int64(len(o.wire)))
			}
		}
		err := s.transport.Send(o.console, o.wire)
		if o.buf != nil {
			o.buf.Release()
			o.buf = nil
		}
		for j := range o.batch {
			o.batch[j].ReleaseWire()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// handleLocked dispatches one message. Callers hold s.mu; all transmissions
// are queued on out.
func (s *Server) handleLocked(out *[]outbound, console string, msg protocol.Message, now time.Duration) error {
	switch m := msg.(type) {
	case *protocol.Hello:
		s.consoles[console] = &consoleState{w: int(m.Width), h: int(m.Height), caps: m.Caps}
		if m.CardToken != "" {
			if err := s.attachByToken(out, console, m.CardToken, now); err != nil {
				return err
			}
		}
		cs := s.consoles[console]
		s.send(out, console, &protocol.HelloAck{SessionID: cs.session})
		return nil

	case *protocol.SessionConnect:
		if _, ok := s.consoles[console]; !ok {
			return fmt.Errorf("%w: %q", ErrUnknownConsole, console)
		}
		return s.attachByToken(out, console, m.Token, now)

	case *protocol.KeyEvent:
		sess, err := s.sessionFor(console)
		if err != nil {
			return err
		}
		return s.render(out, sess, sess.App.HandleKey(*m), now)

	case *protocol.PointerEvent:
		sess, err := s.sessionFor(console)
		if err != nil {
			return err
		}
		return s.render(out, sess, sess.App.HandlePointer(*m), now)

	case *protocol.Nack:
		sess, err := s.sessionFor(console)
		if err != nil {
			return err
		}
		if sess.flog.Armed() {
			sess.flog.Nack(m.From, m.To)
		}
		sess.nq.OnNack(now, m.From, m.To)
		if sess.gov == nil {
			s.sendDatagrams(out, sess, sess.Encoder.HandleNack(*m), now)
			return nil
		}
		switch sess.gov.OnNack(now, m.From, m.To) {
		case flow.NackSuppressed, flow.NackDeferred:
			// Suppressed: the gap is one the governor itself shed — newer
			// queued state covers every pixel it touched. Deferred: the
			// retransmit budget is spent; PumpFlows regenerates the range
			// once the backoff expires, from the then-current frame buffer.
			return nil
		}
		s.retransmit(out, sess, *m, now)
		return nil

	case *protocol.BandwidthGrant:
		// Consoles arbitrate downstream bandwidth between sessions (§7);
		// the grant addresses a session, not the console it arrived from.
		// A stale grant for a terminated session is silently dropped.
		if sess, ok := s.sessions[m.SessionID]; ok && sess.gov != nil {
			sess.nq.OnGrant(now)
			sess.gov.SetGrant(now, m.Bps)
			s.releaseFlow(out, sess, now)
		}
		return nil

	case *protocol.Status:
		return s.handleStatus(out, console, m, now)

	case *protocol.Pong:
		return nil // liveness; nothing to do

	case *protocol.Device:
		// Remote device manager: peripheral traffic is consumed here.
		return nil

	default:
		return fmt.Errorf("server: unexpected message %v from console %q", msg.Type(), console)
	}
}

// handleStatus inspects a console heartbeat and regenerates display state
// when the console has demonstrably lost it: its decode-drop counter grew
// (protocol overload, §4.3) or its applied sequence trails the encoder by
// more than the in-flight window (console reboot — soft state is
// disposable by design, §2.2). Recovery is always a repaint from the
// authoritative frame buffer; never stop-and-wait. Callers hold s.mu.
func (s *Server) handleStatus(out *[]outbound, console string, st *protocol.Status, now time.Duration) error {
	cs, ok := s.consoles[console]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownConsole, console)
	}
	if cs.session == 0 {
		return nil
	}
	sess := s.sessions[cs.session]
	if sess.flog.Armed() {
		sess.flog.Status(st.LastSeq, st.Dropped)
	}
	sess.nq.OnStatus(now, st.LastSeq, st.Dropped)
	lost := st.Dropped > cs.dropped
	cs.dropped = st.Dropped
	lag := sess.Encoder.LastSeq() > st.LastSeq &&
		sess.Encoder.LastSeq()-st.LastSeq > StatusLagThreshold
	// One recovery epoch at a time: while the console is still working
	// through a recovery repaint (acks trail recoverSeq, grace not yet
	// elapsed), both triggers stay suppressed — the in-flight repaint
	// already carries the full authoritative screen, so repainting again
	// only amplifies the burst.
	if cs.recoverSeq != 0 && int32(cs.recoverSeq-st.LastSeq) > 0 &&
		now-cs.recoverAt < RecoverGrace {
		return nil
	}
	cs.recoverSeq = 0
	if lost || lag {
		if s.log != nil {
			s.log.Warn("display state lost; recovery repaint",
				"console", console, "session", cs.session, "drops", lost, "lag", lag)
		}
		s.sendDatagrams(out, sess, sess.Encoder.RepaintAll(), now)
		cs.recoverSeq = sess.Encoder.LastSeq()
		cs.recoverAt = now
	}
	return nil
}

// attachByToken authenticates a card token and moves the user's session to
// the given console, creating the session on first use. Callers hold s.mu.
func (s *Server) attachByToken(out *[]outbound, console, token string, now time.Duration) error {
	user, err := s.Auth.Authenticate(token)
	if err != nil {
		s.metrics.authFailures.Inc()
		if s.log != nil {
			s.log.Warn("auth failure", "console", console)
		}
		return err
	}
	return s.attachUserLocked(out, console, user, now)
}

// Attach moves (or creates) a user's session onto a console without a
// credential check — the caller has already authenticated the user. This is
// the broker's redirect step: it authenticates tokens fleet-wide, picks a
// shard, and attaches by user. The console must have said Hello here first.
func (s *Server) Attach(console, user string, now time.Duration) error {
	s.mu.Lock()
	var out []outbound
	var err error
	if _, ok := s.consoles[console]; !ok {
		err = fmt.Errorf("%w: %q", ErrUnknownConsole, console)
	} else {
		err = s.attachUserLocked(&out, console, user, now)
	}
	s.mu.Unlock()
	ferr := s.flush(out)
	if err != nil {
		return err
	}
	return ferr
}

// EvictConsole silently forgets a console: any session displayed there is
// detached (no SessionDetach on the wire — the broker is redirecting the
// console to another shard, whose SessionAttach supersedes it) and the
// geometry registration is dropped. No-op for unknown consoles.
func (s *Server) EvictConsole(console string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.consoles[console]
	if !ok {
		return
	}
	if cs.session != 0 {
		if sess, ok := s.sessions[cs.session]; ok && sess.Console == console {
			sess.Console = ""
		}
	}
	delete(s.consoles, console)
}

// attachUserLocked moves an already-authenticated user's session to the
// given console, creating the session on first use. Callers hold s.mu.
func (s *Server) attachUserLocked(out *[]outbound, console, user string, now time.Duration) error {
	cs := s.consoles[console]
	id, ok := s.byUser[user]
	var sess *Session
	if ok {
		sess = s.sessions[id]
		s.metrics.reconnects.Inc()
		// Hotdesk move or reconnect: the console — and likely the network
		// path — changed. Rebase the estimator so stale in-flight samples
		// from the old path never poison the new one; smoothed SRTT/jitter
		// and the loss windows survive the cutover.
		sess.nq.Rebase(now)
	} else {
		s.nextID++
		sess = s.newSessionLocked(s.nextID, user, cs.w, cs.h)
	}
	s.metrics.attaches.Inc()
	// Detach from wherever it was displayed before.
	if sess.Console != console {
		s.detachLocked(out, sess)
	}
	// Evict whatever session the target console was showing.
	if cs.session != 0 && cs.session != sess.ID {
		if other, ok := s.sessions[cs.session]; ok {
			other.Console = ""
		}
	}
	cs.session = sess.ID
	sess.Console = console
	if s.log != nil {
		s.log.Info("session attached",
			"user", user, "session", sess.ID, "console", console, "reconnect", ok)
	}
	s.send(out, console, &protocol.SessionAttach{SessionID: sess.ID})
	if sess.gov != nil {
		// Damage queued for the previous console is worthless here; the
		// full repaint below regenerates everything. The new console also
		// learns this session's bandwidth demand so its allocator can
		// grant a share (§7).
		for _, it := range sess.gov.Reset(now) {
			if sess.flog.Armed() {
				sess.flog.Drop(it.Seq, it.Cmd, int64(it.Bytes()))
			}
			it.ReleaseWire()
		}
		sess.nq.OnProbe(now)
		sess.demandBps = sess.gov.DemandBps()
		s.send(out, console, &protocol.BandwidthRequest{
			SessionID: sess.ID,
			Bps:       sess.demandBps,
		})
	}
	// Negotiate the gen-2 tile cache per attachment: engage it only when
	// the server is armed (WithCodec2) and this console advertised
	// CapCachePaint in its Hello. A gen-1 console gets the plain encoding
	// — same pixels, no CACHE_PAINT on its wire. EnableCodec2 resets the
	// server-side cache and RepaintAll below resets the console's (its
	// setSession does), so both sides restart mirrored from an empty cache.
	if s.codec2 && cs.caps&protocol.CapCachePaint != 0 {
		sess.Encoder.EnableCodec2(0)
	} else {
		sess.Encoder.DisableCodec2()
	}
	// The console held only soft state: repaint the screen "to the exact
	// state at which it was left" (§1.1). The repaint opens a recovery
	// epoch so heartbeats acking mid-burst (legitimately trailing the
	// encoder) don't trigger a redundant second repaint.
	s.sendDatagrams(out, sess, sess.Encoder.RepaintAll(), now)
	cs.recoverSeq = sess.Encoder.LastSeq()
	cs.recoverAt = now
	return nil
}

// Tick drives every session whose application renders on its own clock
// (Ticker). Call it periodically — the UDP transport runs it at the
// configured tick rate.
func (s *Server) Tick(now time.Duration) error {
	s.mu.Lock()
	var out []outbound
	var firstErr error
	for _, sess := range s.sessions {
		tk, ok := sess.App.(Ticker)
		if !ok {
			continue
		}
		if err := s.render(&out, sess, tk.Tick(now), now); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.mu.Unlock()
	if err := s.flush(out); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// newSessionLocked is the one session constructor: it builds the encoder,
// the telemetry handle, the flow governor (seeded with the calibrated cost
// model once the calibrator has converged) and the application, and
// registers the session detached. First login, ImportSession and
// LoadSessions all create sessions here. Callers hold s.mu.
func (s *Server) newSessionLocked(id uint32, user string, w, h int) *Session {
	sess := &Session{
		ID:               id,
		User:             user,
		Encoder:          core.NewEncoder(w, h),
		sessionTelemetry: s.newTelemetry(id, user),
	}
	sess.Encoder.Metrics = s.encMetrics
	sess.Encoder.Flight = sess.flog
	if s.flowCfg != nil {
		sess.gov = flow.NewGovernor(*s.flowCfg, sess.fm)
		if s.cal != nil && s.cal.Generation() > 0 {
			// Sessions born after calibration converged start from the
			// measured model, not the Table 5 constants.
			sess.gov.SetCosts(s.cal.Model())
		}
	}
	if s.NewApp != nil {
		sess.App = s.NewApp(user, w, h)
	}
	s.sessions[id] = sess
	s.byUser[user] = id
	s.metrics.sessions.Set(int64(len(s.sessions)))
	return sess
}

// dropSessionLocked is the one session teardown: whatever the governor
// still queues dies with the session (flight-logged, buffers recycled),
// the session leaves the tables, and its telemetry is released —
// evictByID as for sessionTelemetry.release. Callers hold s.mu and have
// detached the session.
func (s *Server) dropSessionLocked(sess *Session, now time.Duration, evictByID bool) {
	if sess.gov != nil {
		for _, it := range sess.gov.Quiesce(now) {
			if sess.flog.Armed() {
				sess.flog.Drop(it.Seq, it.Cmd, int64(it.Bytes()))
			}
			it.ReleaseWire()
		}
	}
	delete(s.sessions, sess.ID)
	delete(s.byUser, sess.User)
	s.metrics.sessions.Set(int64(len(s.sessions)))
	sess.release(s, sess.ID, sess.User, evictByID)
}

// detachLocked takes a session off its console: the console falls back to
// the login screen and is told so with SessionDetach. No-op for a detached
// session. Callers hold s.mu.
func (s *Server) detachLocked(out *[]outbound, sess *Session) {
	if sess.Console == "" {
		return
	}
	if cs, ok := s.consoles[sess.Console]; ok && cs.session == sess.ID {
		cs.session = 0
	}
	s.send(out, sess.Console, &protocol.SessionDetach{SessionID: sess.ID})
	sess.Console = ""
}

// userSessionLocked resolves a user's session. Callers hold s.mu.
func (s *Server) userSessionLocked(user string) (*Session, error) {
	id, ok := s.byUser[user]
	if !ok {
		return nil, fmt.Errorf("server: no session for user %q", user)
	}
	return s.sessions[id], nil
}

// Detach removes a session from its console (card pulled) without
// destroying it; state persists server side.
func (s *Server) Detach(user string) error {
	s.mu.Lock()
	var out []outbound
	sess, err := s.userSessionLocked(user)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.detachLocked(&out, sess)
	if s.log != nil {
		s.log.Info("session detached", "user", user, "session", sess.ID)
	}
	s.mu.Unlock()
	return s.flush(out)
}

// Terminate destroys a user's session: the console (if any) is detached,
// the session state is discarded, and — unlike Detach — the session's
// observability residue is evicted too: its labeled series leave the
// registry and its flight ring, SLO state and path estimator leave their
// trackers. Without this, a server that outlives many logins accumulates
// one histogram and one 4096-slot ring per user forever.
func (s *Server) Terminate(user string) error {
	s.mu.Lock()
	var out []outbound
	sess, err := s.userSessionLocked(user)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.detachLocked(&out, sess)
	s.dropSessionLocked(sess, 0, true)
	if s.log != nil {
		s.log.Info("session terminated", "user", user, "session", sess.ID)
	}
	s.mu.Unlock()
	return s.flush(out)
}

// sessionFor resolves the session attached to a console. Callers hold s.mu.
func (s *Server) sessionFor(console string) (*Session, error) {
	cs, ok := s.consoles[console]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownConsole, console)
	}
	if cs.session == 0 {
		return nil, ErrNoSession
	}
	return s.sessions[cs.session], nil
}

// render encodes ops for a session and queues them for its console.
func (s *Server) render(out *[]outbound, sess *Session, ops []core.Op, now time.Duration) error {
	for _, op := range ops {
		if sess.flog.Armed() {
			sess.flog.Op(int64(op.RawPixels()))
		}
		dgs, err := sess.Encoder.Encode(op)
		if err != nil {
			return err
		}
		s.sendDatagrams(out, sess, dgs, now)
	}
	return nil
}

func (s *Server) sendDatagrams(out *[]outbound, sess *Session, dgs []core.Datagram, now time.Duration) {
	s.submit(out, sess, dgs, now, false)
}

// retransmit regenerates a nacked range from the authoritative frame
// buffer and charges the wire bytes against the governor's retransmit
// budget, so replay storms cannot starve fresh paints. Callers hold s.mu
// and have a non-nil sess.gov.
func (s *Server) retransmit(out *[]outbound, sess *Session, n protocol.Nack, now time.Duration) {
	dgs := sess.Encoder.HandleNack(n)
	var bytes int
	for _, d := range dgs {
		bytes += len(d.Wire)
	}
	sess.gov.SpendRetry(bytes)
	s.submit(out, sess, dgs, now, true)
}

// submit routes display datagrams to the console: directly when the
// session is ungoverned or has no grant yet, through the governor's
// supersession queue and token bucket otherwise. Callers hold s.mu.
func (s *Server) submit(out *[]outbound, sess *Session, dgs []core.Datagram, now time.Duration, retrans bool) {
	if sess.Console == "" {
		// Detached session keeps rendering into its frame buffer; the wire
		// goes nowhere, so its buffer returns to the pool immediately.
		for i := range dgs {
			dgs[i].ReleaseWire()
		}
		return
	}
	if sess.gov == nil {
		for _, d := range dgs {
			sess.nq.OnSend(now, d.Seq, len(d.Wire), retrans)
			*out = append(*out, outbound{
				console: sess.Console,
				wire:    d.Wire,
				flog:    sess.flog,
				seq:     d.Seq,
				cmd:     d.Msg.Type(),
				buf:     d.Buf,
			})
		}
		return
	}
	for _, d := range dgs {
		it := flow.Item{Seq: d.Seq, Cmd: d.Msg.Type(), Msg: d.Msg, Wire: d.Wire, Buf: d.Buf, Retransmit: retrans}
		res := sess.gov.Submit(now, it)
		if res.Pass {
			sess.nq.OnSend(now, d.Seq, len(d.Wire), retrans)
			*out = append(*out, outbound{
				console: sess.Console,
				wire:    d.Wire,
				flog:    sess.flog,
				seq:     d.Seq,
				cmd:     it.Cmd,
				buf:     d.Buf,
			})
			continue
		}
		if sess.flog.Armed() {
			sess.flog.TxQueue(d.Seq, it.Cmd, int64(it.Bytes()), int64(res.Depth))
			for _, sup := range res.Superseded {
				sess.flog.Supersede(sup.Seq, sup.Cmd, d.Seq, int64(sup.Bytes()))
			}
			for _, ev := range res.Evicted {
				sess.flog.Drop(ev.Seq, ev.Cmd, int64(ev.Bytes()))
			}
		}
		// Shed commands never reach the wire: recycle their buffers now
		// that the flight recorder has accounted for them.
		for i := range res.Superseded {
			res.Superseded[i].ReleaseWire()
		}
		for i := range res.Evicted {
			res.Evicted[i].ReleaseWire()
		}
	}
	s.releaseFlow(out, sess, now)
}

// releaseFlow drains whatever the governor's token bucket permits at now.
// Callers hold s.mu and have a non-nil sess.gov.
func (s *Server) releaseFlow(out *[]outbound, sess *Session, now time.Duration) {
	if sess.Console == "" {
		return
	}
	for _, p := range sess.gov.Release(now) {
		if sess.nq.Armed() {
			for _, it := range p.Items {
				sess.nq.OnSend(now, it.Seq, it.Bytes(), it.Retransmit)
			}
		}
		o := outbound{console: sess.Console, wire: p.Wire, flog: sess.flog}
		if len(p.Items) == 1 {
			o.seq, o.cmd = p.Items[0].Seq, p.Items[0].Cmd
			o.buf = p.Items[0].Buf
		} else {
			// A coalesced batch frame: the frame wire is freshly built by
			// the batcher; the member items still own their per-command
			// buffers, which flush releases after the send.
			o.batch = p.Items
		}
		*out = append(*out, o)
	}
}

// PumpFlows services every governed session at now: deferred retransmits
// whose backoff expired regenerate from the current frame buffer, and
// token buckets release whatever pacing has accumulated. It reports the
// earliest instant more queued traffic becomes sendable, so transports
// schedule the next pump instead of polling — wall-clock transports call
// it from a timer, simulations from the virtual-time event loop.
func (s *Server) PumpFlows(now time.Duration) (next time.Duration, pending bool, err error) {
	s.mu.Lock()
	var out []outbound
	s.refreshCalibrationLocked(&out, now)
	for _, sess := range s.sessions {
		if sess.gov == nil || sess.Console == "" {
			continue
		}
		for _, n := range sess.gov.DueNacks(now) {
			s.retransmit(&out, sess, n, now)
		}
		s.releaseFlow(&out, sess, now)
		s.announceDemandLocked(&out, sess, now)
		if t, ok := sess.gov.NextRelease(now); ok && (!pending || t < next) {
			next, pending = t, true
		}
	}
	s.mu.Unlock()
	return next, pending, s.flush(out)
}

// refreshCalibrationLocked applies a newly-fitted cost model to every
// governed session when the calibrator's generation has advanced since the
// last pump. Sessions whose derived demand changed re-announce it to their
// console so the §7 allocator can re-divide the link. Call with s.mu held.
func (s *Server) refreshCalibrationLocked(out *[]outbound, now time.Duration) {
	if s.cal == nil {
		return
	}
	gen := s.cal.Generation()
	if gen == s.calGen {
		return
	}
	s.calGen = gen
	model := s.cal.Model()
	for _, sess := range s.sessions {
		if sess.gov == nil {
			continue
		}
		oldDemand := sess.gov.Config().InitialBps
		sess.gov.SetCosts(model)
		if d := sess.gov.Config().InitialBps; d != oldDemand && sess.Console != "" {
			sess.nq.OnProbe(now)
			sess.demandBps = sess.gov.DemandBps()
			s.send(out, sess.Console, &protocol.BandwidthRequest{SessionID: sess.ID, Bps: sess.demandBps})
		}
	}
}

// announceDemandLocked re-announces a session's bandwidth demand to its
// console when the governor's measured demand has drifted from the last
// announcement by more than 1/8 in either direction. The governor measures
// bytes actually sent, so a session whose gen-2 cache absorbs most of its
// pixel traffic shrinks its claim and the console's §7 allocator can grant
// the freed budget to hungrier sessions; a cache gone cold grows it back.
// The 1/8 deadband keeps steady-state traffic from emitting a
// BandwidthRequest every pump. Callers hold s.mu.
func (s *Server) announceDemandLocked(out *[]outbound, sess *Session, now time.Duration) {
	if sess.gov == nil || sess.Console == "" {
		return
	}
	d := sess.gov.DemandBps()
	old := sess.demandBps
	if old == 0 {
		if d == 0 {
			return
		}
	} else {
		var diff uint64
		if d > old {
			diff = d - old
		} else {
			diff = old - d
		}
		if diff*8 <= old {
			return
		}
	}
	sess.demandBps = d
	sess.nq.OnProbe(now)
	s.send(out, sess.Console, &protocol.BandwidthRequest{SessionID: sess.ID, Bps: d})
}

func (s *Server) send(out *[]outbound, console string, msg protocol.Message) {
	*out = append(*out, outbound{console: console, wire: protocol.Encode(nil, 0, msg)})
}

// SessionOf reports the session currently owning a console (nil if none).
func (s *Server) SessionOf(console string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.consoles[console]
	if !ok || cs.session == 0 {
		return nil
	}
	return s.sessions[cs.session]
}

// SessionByUser reports a user's session (nil if none).
func (s *Server) SessionByUser(user string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, _ := s.userSessionLocked(user)
	return sess
}
