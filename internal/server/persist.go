package server

import (
	"encoding/gob"
	"fmt"
	"io"

	"slim/internal/protocol"
)

// pixelsToUint32 widens the frame buffer's pixel slice to the on-disk
// []uint32 representation (the gob format predates the Pixel slice type).
func pixelsToUint32(pix []protocol.Pixel) []uint32 {
	out := make([]uint32, len(pix))
	for i, p := range pix {
		out[i] = uint32(p)
	}
	return out
}

// Session persistence. The paper's statelessness argument puts all true
// state on the server (§2.2); this file makes that state durable across
// server restarts, so a slimd can be upgraded without losing anyone's
// desktop. What persists is exactly what the architecture says matters:
// the authoritative frame buffer, plus any application state the app
// chooses to save. Consoles notice nothing — on reattach they are simply
// repainted.

// Persistent is optionally implemented by applications that want their
// internal state saved with the session (the built-in Terminal persists
// its cursor; the frame buffer already carries the text pixels).
type Persistent interface {
	// SaveState returns an opaque snapshot of application state.
	SaveState() []byte
	// RestoreState reinstates a snapshot produced by SaveState.
	RestoreState(data []byte) error
}

// sessionImage is the serialized form of one session.
type sessionImage struct {
	ID       uint32
	User     string
	W, H     int
	Pixels   []uint32
	AppState []byte
}

// serverImage is the serialized form of the session table.
type serverImage struct {
	NextID   uint32
	Sessions []sessionImage
}

// SaveSessions serializes every session (detached from consoles — console
// bindings are transient by design) to w.
func (s *Server) SaveSessions(w io.Writer) error {
	s.mu.Lock()
	img := serverImage{NextID: s.nextID}
	for _, sess := range s.sessions {
		si := sessionImage{
			ID:     sess.ID,
			User:   sess.User,
			W:      sess.Encoder.FB.W,
			H:      sess.Encoder.FB.H,
			Pixels: pixelsToUint32(sess.Encoder.FB.Pix),
		}
		if p, ok := sess.App.(Persistent); ok {
			si.AppState = p.SaveState()
		}
		img.Sessions = append(img.Sessions, si)
	}
	s.mu.Unlock()
	if err := gob.NewEncoder(w).Encode(img); err != nil {
		return fmt.Errorf("server: save sessions: %w", err)
	}
	return nil
}

// LoadSessions restores sessions saved with SaveSessions into an empty
// server. Applications are rebuilt with the server's factory and offered
// their saved state; every session starts detached and repaints whichever
// console its user next badges into.
func (s *Server) LoadSessions(r io.Reader) error {
	var img serverImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return fmt.Errorf("server: load sessions: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sessions) != 0 {
		return fmt.Errorf("server: LoadSessions into a non-empty server")
	}
	s.nextID = img.NextID
	for _, si := range img.Sessions {
		if si.W <= 0 || si.H <= 0 || len(si.Pixels) != si.W*si.H {
			return fmt.Errorf("server: corrupt session image for %q", si.User)
		}
		pix := make([]protocol.Pixel, len(si.Pixels))
		for i, p := range si.Pixels {
			pix[i] = protocol.Pixel(p)
		}
		sess := s.newSessionLocked(si.ID, si.User, si.W, si.H)
		if err := s.restoreLocked(sess, pix, si.AppState); err != nil {
			return err
		}
	}
	return nil
}

// restoreLocked loads saved pixels and application state into a session
// newSessionLocked just built — the shared tail of ImportSession and
// LoadSessions. On failure the session is torn down again the way an
// export tears it down, leaving ID-keyed tracker state for wherever the
// session lives on. Callers hold s.mu.
func (s *Server) restoreLocked(sess *Session, pix []protocol.Pixel, appState []byte) error {
	err := sess.Encoder.FB.Set(sess.Encoder.FB.Bounds(), pix)
	if err == nil && appState != nil {
		if p, ok := sess.App.(Persistent); ok {
			err = p.RestoreState(appState)
		}
	}
	if err != nil {
		s.dropSessionLocked(sess, 0, false)
		return fmt.Errorf("server: restore %q: %w", sess.User, err)
	}
	return nil
}
