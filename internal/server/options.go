package server

import (
	"log/slog"

	"slim/internal/core"
	"slim/internal/flow"
	"slim/internal/obs"
	"slim/internal/obs/flight"
	"slim/internal/obs/netqual"
	"slim/internal/obs/slo"
)

// Option configures a Server at construction. Options are the only way to
// redirect a server's telemetry: they run before New resolves the server's
// instruments, so redirected registries and trackers are in place before
// the first session resolves its own.
type Option func(*Server)

// WithRegistry redirects live metrics into r instead of the process-wide
// obs.Default — hermetic tests and virtual-time simulations hand each
// server its own registry.
func WithRegistry(r *obs.Registry) Option {
	return func(s *Server) { s.obs = r }
}

// WithFlightRecorder points the server's causal flight recorder at rec
// instead of flight.Default.
func WithFlightRecorder(rec *flight.Recorder) Option {
	return func(s *Server) { s.flight = rec }
}

// WithSLO points the server's SLO tracker at t instead of slo.Default —
// hermetic tests and virtual-time simulations hand each server its own
// tracker (a sim-domain tracker suppresses the server's wall-clock
// Observe; the harness feeds ObserveAt itself).
func WithSLO(t *slo.Tracker) Option {
	return func(s *Server) { s.slo = t }
}

// WithNetQual points the server's passive path estimation at t instead of
// netqual.Default — hermetic tests and virtual-time simulations hand each
// server its own tracker (sim-domain trackers take explicit clocks from
// the harness). The tracker must still be armed with SetEnabled; the
// option only chooses where estimates live.
func WithNetQual(t *netqual.Tracker) Option {
	return func(s *Server) { s.netqual = t }
}

// WithLogger attaches a structured logger for session lifecycle events:
// attach, detach, terminate, authentication failure, and display-state
// recovery. A nil logger (the default) keeps the hot paths silent — the
// server never logs per-datagram work regardless.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// WithCostModel installs the console decode cost model (Table 5) the
// server uses to derive flow-control defaults — the per-session demand it
// requests from consoles and the pacing burst. It fills the Costs field
// of a WithFlowControl config that left it nil.
func WithCostModel(cm *core.CostModel) Option {
	return func(s *Server) { s.costs = cm }
}

// WithCalibratedCosts feeds a live cost-model calibrator back into flow
// control: whenever cal produces a new fit (its generation advances), the
// next PumpFlows rebuilds the model and re-derives every governor's
// demand, burst, and supersession threshold from *measured* per-command
// costs instead of the static Table 5 constants. Consoles receive a fresh
// BandwidthRequest when a session's derived demand changes. Pair it with
// a console whose Config.Calibrator is the same calibrator.
func WithCalibratedCosts(cal *core.Calibrator) Option {
	return func(s *Server) { s.cal = cal }
}

// WithCodec2 arms the gen-2 encoder: content-typed tiles plus the
// hash-keyed dirty-tile cache. Armed servers negotiate per attachment —
// the cache engages only for consoles whose Hello advertised
// protocol.CapCachePaint, so a mixed fleet of gen-1 and gen-2 consoles
// shares one server. Cache state never migrates: snapshots rebuild
// encoders fresh, and the attach repaint restarts both sides' caches
// from empty, mirrored.
func WithCodec2() Option {
	return func(s *Server) { s.codec2 = true }
}

// WithSessionIDBase starts the server's session-ID counter at base instead
// of zero. A broker gives each shard a disjoint ID space (shard i issues
// IDs above i<<24) so sessions keep their IDs when they migrate between
// shards and control messages addressed by session ID (BandwidthGrant)
// route unambiguously across the fleet.
func WithSessionIDBase(base uint32) Option {
	return func(s *Server) { s.nextID = base }
}

// Resolved is the subset of option-configured settings a broker needs to
// see before fanning the same option list out to its shards — the shared
// registry its fleet rollup publishes into, and the logger for broker-level
// lifecycle events. Everything else (flow config, cost model, SLO tracker,
// flight recorder) is inherited opaquely by each shard.
type Resolved struct {
	Registry *obs.Registry
	Logger   *slog.Logger
	// NetQual is the path-estimation tracker shards share (nil means
	// netqual.Default) — the broker reads it for per-shard fleet rollups.
	NetQual *netqual.Tracker
}

// ResolveOptions applies opts to a blank server and reports the settings a
// broker inherits at its own level. The options are not consumed: callers
// pass the same list on to every shard they construct.
func ResolveOptions(opts ...Option) Resolved {
	var probe Server
	for _, o := range opts {
		o(&probe)
	}
	return Resolved{Registry: probe.obs, Logger: probe.log, NetQual: probe.netqual}
}

// WithFlowControl enables the grant-driven send governor (§7) for every
// session: display traffic is paced to the console's BandwidthGrant,
// stale queued damage is superseded under backpressure, and NACK
// retransmits are budgeted so replay storms cannot starve fresh paints.
// Zero-value fields take the flow package defaults; a nil cfg.Costs picks
// up WithCostModel.
func WithFlowControl(cfg flow.Config) Option {
	return func(s *Server) { s.flowCfg = &cfg }
}
