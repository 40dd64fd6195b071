package server

import (
	"encoding/gob"
	"fmt"
	"io"

	"slim/internal/core"
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
		sess := &Session{
			ID:      si.ID,
			User:    si.User,
			Encoder: core.NewEncoder(si.W, si.H),
		}
		pix := make([]protocol.Pixel, len(si.Pixels))
		for i, p := range si.Pixels {
			pix[i] = protocol.Pixel(p)
		}
		if err := sess.Encoder.FB.Set(sess.Encoder.FB.Bounds(), pix); err != nil {
			return fmt.Errorf("server: restore %q frame buffer: %w", si.User, err)
		}
		s.instrumentSession(sess)
		if s.NewApp != nil {
			sess.App = s.NewApp(si.User, si.W, si.H)
			if p, ok := sess.App.(Persistent); ok && si.AppState != nil {
				if err := p.RestoreState(si.AppState); err != nil {
					return fmt.Errorf("server: restore %q app state: %w", si.User, err)
				}
			}
		}
		s.sessions[sess.ID] = sess
		s.byUser[sess.User] = sess.ID
	}
	s.metrics.sessions.Set(int64(len(s.sessions)))
	return nil
}
