package server

import (
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"slim/internal/protocol"
)

// Live session migration. A broker moving a session between servers uses
// the same statelessness argument as persistence (persist.go): everything
// that matters lives server side — the authoritative frame buffer, the
// application state, and the encoder's sequence counter. The console is
// never told it moved. It keeps its session ID, so its gap tracker is not
// reset, which is why the snapshot must carry LastSeq: the importing
// server's encoder resumes numbering exactly where the exporter stopped,
// and the post-attach repaint looks to the console like any other
// recovery repaint.
//
// The migration state machine, driven by the broker:
//
//	quiesce   ExportSession drains the flow governor (grant revoked,
//	          queued damage dropped — a full repaint follows anyway)
//	snapshot  frame buffer pixels + app state + LastSeq leave the source
//	replay    ImportSession rebuilds encoder and application and resumes
//	          the sequence counter
//	redirect  the broker re-attaches the console to the importing shard;
//	          RepaintAll regenerates the screen from the migrated pixels

// SessionSnapshot is one session frozen for transfer between servers. It
// is self-contained and gob-serializable (EncodeTo/DecodeSnapshot), so a
// fleet spanning processes can ship it over any byte stream.
type SessionSnapshot struct {
	ID   uint32
	User string
	W, H int
	// Pixels is the authoritative frame buffer, row major, W*H long.
	Pixels []protocol.Pixel
	// AppState is the application's Persistent snapshot (nil when the app
	// does not implement Persistent; the frame buffer still carries the
	// visible output).
	AppState []byte
	// LastSeq is the encoder's most recently issued sequence number. The
	// importing encoder resumes at LastSeq+1 so the console — which resets
	// its gap tracker only on a session-ID change — never sees the stream
	// restart.
	LastSeq uint32
}

// EncodeTo serializes the snapshot to w (gob).
func (sn *SessionSnapshot) EncodeTo(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(sn); err != nil {
		return fmt.Errorf("server: encode session snapshot: %w", err)
	}
	return nil
}

// DecodeSnapshot reads a snapshot serialized with EncodeTo.
func DecodeSnapshot(r io.Reader) (*SessionSnapshot, error) {
	var sn SessionSnapshot
	if err := gob.NewDecoder(r).Decode(&sn); err != nil {
		return nil, fmt.Errorf("server: decode session snapshot: %w", err)
	}
	return &sn, nil
}

// ExportSession freezes a user's session for migration and removes it from
// this server: the attached console (if any) receives SessionDetach, the
// flow governor is quiesced (grant revoked, queued damage dropped and
// flight-logged — the importing side repaints in full), and the session's
// per-server observability residue (labeled histogram, flow gauges) leaves
// the registry. The shared flight ring, SLO state and path estimator are
// left alone: the session lives on under the same ID, and the importing
// server re-resolves them — Terminate remains the eviction point.
func (s *Server) ExportSession(user string, now time.Duration) (*SessionSnapshot, error) {
	s.mu.Lock()
	var out []outbound
	sess, err := s.userSessionLocked(user)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.detachLocked(&out, sess)
	s.dropSessionLocked(sess, now, false)
	sn := &SessionSnapshot{
		ID:      sess.ID,
		User:    sess.User,
		W:       sess.Encoder.FB.W,
		H:       sess.Encoder.FB.H,
		Pixels:  append([]protocol.Pixel(nil), sess.Encoder.FB.Pix...),
		LastSeq: sess.Encoder.LastSeq(),
	}
	if p, ok := sess.App.(Persistent); ok {
		sn.AppState = p.SaveState()
	}
	if s.log != nil {
		s.log.Info("session exported", "user", user, "session", sess.ID, "last_seq", sn.LastSeq)
	}
	s.mu.Unlock()
	return sn, s.flush(out)
}

// ImportSession replays an exported snapshot into this server: the frame
// buffer is restored pixel for pixel, the application is rebuilt with the
// server's factory and offered its saved state, and the encoder resumes
// the exported sequence numbering. The session arrives detached; the next
// attach (card insertion routed here) repaints the console from the
// migrated frame buffer. The server's own ID counter is untouched — a
// migrated ID belongs to the exporting shard's space, which is why fleets
// give each shard a disjoint WithSessionIDBase.
func (s *Server) ImportSession(sn *SessionSnapshot) error {
	if sn.W <= 0 || sn.H <= 0 || len(sn.Pixels) != sn.W*sn.H {
		return fmt.Errorf("server: corrupt session snapshot for %q", sn.User)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.byUser[sn.User]; exists {
		return fmt.Errorf("server: ImportSession: user %q already has a session here", sn.User)
	}
	if _, exists := s.sessions[sn.ID]; exists {
		return fmt.Errorf("server: ImportSession: session ID %d already in use", sn.ID)
	}
	sess := s.newSessionLocked(sn.ID, sn.User, sn.W, sn.H)
	if err := s.restoreLocked(sess, sn.Pixels, sn.AppState); err != nil {
		return err
	}
	sess.Encoder.ResumeAt(sn.LastSeq)
	if s.log != nil {
		s.log.Info("session imported", "user", sn.User, "session", sn.ID, "last_seq", sn.LastSeq)
	}
	return nil
}

// SessionCount reports the number of live sessions (attached or detached).
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Users lists the users with live sessions, in no particular order — the
// broker's post-migration parity checks enumerate shards with it.
func (s *Server) Users() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	users := make([]string, 0, len(s.byUser))
	for u := range s.byUser {
		users = append(users, u)
	}
	return users
}
