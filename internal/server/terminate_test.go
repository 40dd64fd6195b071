package server

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"slim/internal/flow"
	"slim/internal/obs"
	"slim/internal/obs/flight"
	"slim/internal/obs/netqual"
	"slim/internal/obs/slo"
	"slim/internal/protocol"
)

// TestTerminateEvictsObservability is the cardinality-leak regression test:
// a terminated session must take its labeled input-to-paint histogram and
// its flight-recorder ring with it. Before Terminate existed, a server
// that outlived many logins accumulated one histogram and one event ring
// per user forever.
func TestTerminateEvictsObservability(t *testing.T) {
	tr := newMemTransport()
	reg := obs.NewRegistry(obs.DomainWall)
	rec := flight.New(obs.DomainWall).Instrument(reg)
	s := newTestServer(tr, WithRegistry(reg), WithFlightRecorder(rec))

	if err := s.Handle("desk-1", hello(64, 32, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	sess := s.SessionByUser("alice")
	if sess == nil {
		t.Fatal("no session for alice")
	}
	if err := s.Handle("desk-1", &protocol.KeyEvent{Code: 'a', Down: true}, 0); err != nil {
		t.Fatal(err)
	}

	name := sessionHistogramName("alice")
	if _, ok := reg.Snapshot().Histograms[name]; !ok {
		t.Fatalf("labeled histogram %q not registered while session live", name)
	}
	if evs := rec.Events(sess.ID, 0); len(evs) == 0 {
		t.Fatal("no flight events recorded while session live")
	}

	if err := s.Terminate("alice"); err != nil {
		t.Fatal(err)
	}

	if _, ok := reg.Snapshot().Histograms[name]; ok {
		t.Errorf("labeled histogram %q survived Terminate", name)
	}
	if ids := rec.Sessions(); len(ids) != 0 {
		t.Errorf("flight rings survived Terminate: %v", ids)
	}
	if got := reg.Snapshot().Gauges["slim_sessions"]; got != 0 {
		t.Errorf("slim_sessions = %d after Terminate, want 0", got)
	}
	if s.SessionByUser("alice") != nil {
		t.Error("session still resolvable after Terminate")
	}
	// The console must have been told the session went away.
	msgs := tr.msgsTo(t, "desk-1")
	var detached bool
	for _, m := range msgs {
		if d, ok := m.(*protocol.SessionDetach); ok && d.SessionID == sess.ID {
			detached = true
		}
	}
	if !detached {
		t.Error("no SessionDetach sent to the console on Terminate")
	}

	if err := s.Terminate("alice"); err == nil {
		t.Error("second Terminate should report no session")
	}

	// A fresh login after Terminate starts a brand-new session.
	if err := s.Handle("desk-1", hello(64, 32, "card-alice"), time.Second); err != nil {
		t.Fatal(err)
	}
	fresh := s.SessionByUser("alice")
	if fresh == nil || fresh.ID == sess.ID {
		t.Fatalf("relogin session = %+v, want a new session ID", fresh)
	}
}

// sessionLabeled reports the metric names in snap carrying the session
// label — the generic enumeration the eviction regression scans, so any
// future per-session series is covered without listing it here.
func sessionLabeled(snap obs.Snapshot, user string) []string {
	label := `session="` + user + `"`
	var names []string
	for name := range snap.Counters {
		if strings.Contains(name, label) {
			names = append(names, name)
		}
	}
	for name := range snap.Gauges {
		if strings.Contains(name, label) {
			names = append(names, name)
		}
	}
	for name := range snap.Histograms {
		if strings.Contains(name, label) {
			names = append(names, name)
		}
	}
	return names
}

// lifecycleTelemetry is one set of shared trackers and the registry they
// publish into. Servers built on it keep a registry of their own, the way
// broker shards share trackers but not registries.
type lifecycleTelemetry struct {
	reg *obs.Registry
	rec *flight.Recorder
	slt *slo.Tracker
	nqt *netqual.Tracker
}

func newLifecycleTelemetry() *lifecycleTelemetry {
	reg := obs.NewRegistry(obs.DomainWall)
	nqt := netqual.New(obs.DomainWall, netqual.DefaultConfig()).Instrument(reg)
	nqt.SetEnabled(true)
	return &lifecycleTelemetry{
		reg: reg,
		rec: flight.New(obs.DomainWall).Instrument(reg),
		slt: slo.New(obs.DomainWall, slo.Config{}).Instrument(reg),
		nqt: nqt,
	}
}

// server builds a governed server with all four telemetry options: its
// own registry plus lt's recorder and trackers.
func (lt *lifecycleTelemetry) server() (*Server, *obs.Registry) {
	reg := obs.NewRegistry(obs.DomainWall)
	s := newTestServer(newMemTransport(), WithRegistry(reg), WithFlightRecorder(lt.rec),
		WithSLO(lt.slt), WithNetQual(lt.nqt), WithFlowControl(flow.Config{}))
	return s, reg
}

// loginAndType badges alice in at console and types one key.
func loginAndType(t *testing.T, s *Server, console string) {
	t.Helper()
	if err := s.Handle(console, hello(64, 32, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Handle(console, &protocol.KeyEvent{Code: 'a', Down: true}, 0); err != nil {
		t.Fatal(err)
	}
}

// TestTerminateEvictsAllSessionSeries is the generic cardinality-leak
// regression: with every per-session subsystem live — labeled
// input-to-paint histogram, flow-governor gauges, SLO state, path
// estimators — Terminate must leave *zero* series carrying the session
// label, enumerated generically so series added later fail this test
// instead of leaking. It runs over each way a session comes to exist —
// first login, SaveSessions→LoadSessions, ExportSession→ImportSession —
// and each must build the same session, governor included.
func TestTerminateEvictsAllSessionSeries(t *testing.T) {
	for _, tc := range []struct {
		name string
		// create leaves alice's session (attached or not) on the returned
		// server, whose registry is returned with it.
		create func(t *testing.T, lt *lifecycleTelemetry) (*Server, *obs.Registry)
	}{
		{"login", func(t *testing.T, lt *lifecycleTelemetry) (*Server, *obs.Registry) {
			return lt.server()
		}},
		{"load", func(t *testing.T, lt *lifecycleTelemetry) (*Server, *obs.Registry) {
			// The saving server is a previous process: its own trackers.
			src, _ := newLifecycleTelemetry().server()
			loginAndType(t, src, "desk-0")
			var buf bytes.Buffer
			if err := src.SaveSessions(&buf); err != nil {
				t.Fatal(err)
			}
			dst, reg := lt.server()
			if err := dst.LoadSessions(&buf); err != nil {
				t.Fatal(err)
			}
			return dst, reg
		}},
		{"export", func(t *testing.T, lt *lifecycleTelemetry) (*Server, *obs.Registry) {
			src, srcReg := lt.server()
			loginAndType(t, src, "desk-0")
			sn, err := src.ExportSession("alice", 0)
			if err != nil {
				t.Fatal(err)
			}
			if leaked := sessionLabeled(srcReg.Snapshot(), "alice"); len(leaked) != 0 {
				t.Errorf("per-session series survived ExportSession on the source: %v", leaked)
			}
			dst, reg := lt.server()
			if err := dst.ImportSession(sn); err != nil {
				t.Fatal(err)
			}
			return dst, reg
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lt := newLifecycleTelemetry()
			s, reg := tc.create(t, lt)
			labeled := func() []string {
				return append(sessionLabeled(reg.Snapshot(), "alice"), sessionLabeled(lt.reg.Snapshot(), "alice")...)
			}
			loginAndType(t, s, "desk-1")
			sess := s.SessionByUser("alice")
			if sess == nil {
				t.Fatal("no session for alice")
			}
			if sess.Governor() == nil {
				t.Fatal("session has no governor under WithFlowControl")
			}

			live := labeled()
			if len(live) < 4 {
				t.Fatalf("expected per-session series from itp, flow, slo, and netqual while live, got %v", live)
			}
			var netqualLive bool
			for _, name := range live {
				if strings.HasPrefix(name, "slim_netqual_") {
					netqualLive = true
				}
			}
			if !netqualLive {
				t.Fatalf("no slim_netqual_* series registered while session live, got %v", live)
			}
			if sess.SLO() == nil {
				t.Fatal("session not SLO-instrumented")
			}
			if sess.NetQual() == nil {
				t.Fatal("session not netqual-instrumented")
			}

			if err := s.Terminate("alice"); err != nil {
				t.Fatal(err)
			}

			if leaked := labeled(); len(leaked) != 0 {
				t.Errorf("per-session series survived Terminate: %v", leaked)
			}
			if ids := lt.slt.SessionIDs(); len(ids) != 0 {
				t.Errorf("slo sessions survived Terminate: %v", ids)
			}
			if ids := lt.nqt.SessionIDs(); len(ids) != 0 {
				t.Errorf("netqual estimators survived Terminate: %v", ids)
			}
			if ids := lt.rec.Sessions(); len(ids) != 0 {
				t.Errorf("flight rings survived Terminate: %v", ids)
			}
		})
	}
}
