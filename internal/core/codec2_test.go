package core

import (
	"testing"

	"slim/internal/fb"
	"slim/internal/protocol"
)

// photoPix mints a deterministic continuous-tone pixel block — content the
// classifier reads as photo, so it exercises the SET miss path and caches
// with a unique key per salt.
func photoPix(w, h int, salt uint32) []protocol.Pixel {
	pix := make([]protocol.Pixel, w*h)
	for i := range pix {
		s := (uint32(i) + salt*7919 + 1) * 2654435761
		s ^= s >> 13
		s *= 2246822519
		pix[i] = protocol.Pixel(s & 0xffffff)
	}
	return pix
}

func countCachePaints(dgs []Datagram) int {
	n := 0
	for i := range dgs {
		if _, ok := dgs[i].Msg.(*protocol.CachePaint); ok {
			n++
		}
		dgs[i].ReleaseWire()
	}
	return n
}

// TestCodec2HitsOnRepeatedContent pins the cache's content addressing end
// to end on the encoder: the first paint of a tile misses (SET), painting
// the same content again — even at a different position — hits and emits
// one 28-byte CACHE_PAINT instead.
func TestCodec2HitsOnRepeatedContent(t *testing.T) {
	e := NewEncoder(64, 64)
	e.EnableCodec2(0)
	pix := photoPix(TileSize, TileSize, 1)

	dgs, err := e.Encode(ImageOp{Rect: protocol.Rect{W: TileSize, H: TileSize}, Pixels: pix})
	if err != nil {
		t.Fatal(err)
	}
	if n := countCachePaints(dgs); n != 0 {
		t.Fatalf("first paint emitted %d CACHE_PAINTs", n)
	}
	st := e.Codec2Stats()
	if st.Misses != 1 || st.Hits != 0 || st.Tiles[ClassPhoto] != 1 {
		t.Fatalf("after first paint: %+v", st)
	}

	// Same content, different tile-aligned position: position independence.
	dgs, err = e.Encode(ImageOp{Rect: protocol.Rect{X: 32, W: TileSize, H: TileSize}, Pixels: pix})
	if err != nil {
		t.Fatal(err)
	}
	if len(dgs) != 1 {
		t.Fatalf("repeat paint emitted %d datagrams, want 1", len(dgs))
	}
	cp, ok := dgs[0].Msg.(*protocol.CachePaint)
	if !ok {
		t.Fatalf("repeat paint emitted %v, want CACHE_PAINT", dgs[0].Msg.Type())
	}
	if want := e.FB.HashRect(cp.Rect); cp.Key != want {
		t.Fatalf("claimed key %#x, frame buffer content hashes to %#x", cp.Key, want)
	}
	dgs[0].ReleaseWire()
	st = e.Codec2Stats()
	if st.Hits != 1 {
		t.Fatalf("after repeat paint: %+v", st)
	}
	if st.SavedBytes <= 0 {
		t.Fatal("hit recorded no saved bytes")
	}

	// A gen-1 encoder over the same ops never emits CACHE_PAINT.
	g1 := NewEncoder(64, 64)
	for _, x := range []int{0, 32} {
		dgs, err := g1.Encode(ImageOp{Rect: protocol.Rect{X: x, W: TileSize, H: TileSize}, Pixels: pix})
		if err != nil {
			t.Fatal(err)
		}
		if n := countCachePaints(dgs); n != 0 {
			t.Fatal("gen-1 encoder emitted CACHE_PAINT")
		}
	}
}

// TestRepaintAllResetsCodec2: a full repaint is the recovery/attach moment
// when console cache state stops being trustworthy, so it must start a new
// generation — any CACHE_PAINT it emits may claim only entries the repaint
// stream itself seeded earlier (in-stream dedup a fresh, empty console can
// satisfy by applying in order), never entries from before the reset.
func TestRepaintAllResetsCodec2(t *testing.T) {
	e := NewEncoder(64, 64)
	e.EnableCodec2(0)
	pix := photoPix(TileSize, TileSize, 2)
	if _, err := e.Encode(ImageOp{Rect: protocol.Rect{W: TileSize, H: TileSize}, Pixels: pix}); err != nil {
		t.Fatal(err)
	}
	resets := e.Codec2Stats().Resets
	dgs := e.RepaintAll()
	if got := e.Codec2Stats().Resets; got != resets+1 {
		t.Fatalf("RepaintAll bumped Resets %d -> %d, want +1", resets, got)
	}
	// Replay the stream against a fresh mirror, exactly as a just-reset
	// console would: every claim must already be present at claim time.
	mirror := NewTileCache(DefaultTileCacheEntries, true)
	screen := fb.New(64, 64)
	for i := range dgs {
		if cp, ok := dgs[i].Msg.(*protocol.CachePaint); ok {
			cached, hit := mirror.Lookup(cp.Key, cp.Rect.W, cp.Rect.H)
			if !hit {
				t.Fatalf("datagram %d claims key %#x a fresh console cannot hold", i, cp.Key)
			}
			if err := screen.Set(cp.Rect, cached); err != nil {
				t.Fatal(err)
			}
		} else if err := screen.Apply(dgs[i].Msg); err != nil {
			t.Fatal(err)
		}
		mirror.NoteApply(screen, dgs[i].Msg)
		dgs[i].ReleaseWire()
	}
	if !screen.Equal(e.FB) {
		t.Fatal("repaint replay diverged from the authoritative frame buffer")
	}
	// The repaint itself re-seeded the cache: repainting the same screen
	// region again (not via RepaintAll) now hits.
	again := e.Repaint(protocol.Rect{W: TileSize, H: TileSize})
	if n := countCachePaints(again); n != 1 {
		t.Fatalf("post-repaint re-encode claimed %d hits, want 1", n)
	}
}

// TestCodec2CacheHitZeroAllocSteadyState asserts the ISSUE's budget for the
// warm cache-hit encode path: hash the tile, probe the cache, touch the
// entry, emit the framed CACHE_PAINT — zero allocations per hit once the
// replay ring and buffer pool are warm. Like TestEmitZeroAllocSteadyState,
// the white-box test reuses the message value; the path under test is
// everything else.
func TestCodec2CacheHitZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	e := NewEncoder(64, 64)
	e.EnableCodec2(0)
	tile := protocol.Rect{W: TileSize, H: TileSize}
	if _, err := e.Encode(ImageOp{Rect: tile, Pixels: photoPix(TileSize, TileSize, 3)}); err != nil {
		t.Fatal(err)
	}
	msg := &protocol.CachePaint{Rect: tile}
	hit := func() {
		key := e.FB.HashRect(tile)
		if !e.codec2.cache.Contains(key) {
			t.Fatal("warm tile missed")
		}
		msg.Key = key
		d := e.emit(msg) // noteEmit touches the entry
		d.ReleaseWire()
	}
	for i := 0; i < 5000; i++ { // warm ring + pool
		hit()
	}
	allocs := testing.AllocsPerRun(2000, hit)
	if allocs > 0.01 {
		t.Errorf("warm cache-hit encode path allocates %.3f objects/op, want 0", allocs)
	}
}

// --- BenchmarkHotpath_Codec2*: the gen-2 tile paths ---

// BenchmarkHotpath_Codec2HitTile measures one warm cache hit end to end:
// content hash, cache probe, LRU touch, CACHE_PAINT emit and wire framing.
func BenchmarkHotpath_Codec2HitTile(b *testing.B) {
	e := NewEncoder(64, 64)
	e.EnableCodec2(0)
	tile := protocol.Rect{W: TileSize, H: TileSize}
	if _, err := e.Encode(ImageOp{Rect: tile, Pixels: photoPix(TileSize, TileSize, 4)}); err != nil {
		b.Fatal(err)
	}
	msg := &protocol.CachePaint{Rect: tile}
	for i := 0; i < 5000; i++ {
		msg.Key = e.FB.HashRect(tile)
		d := e.emit(msg)
		d.ReleaseWire()
	}
	b.SetBytes(int64(tile.Pixels() * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.Key = e.FB.HashRect(tile)
		d := e.emit(msg)
		d.ReleaseWire()
	}
}

// BenchmarkHotpath_Codec2MissTile measures the miss path: hash, failed
// probe, classification, literal encode, and the mirrored cache insert.
func BenchmarkHotpath_Codec2MissTile(b *testing.B) {
	e := NewEncoder(64, 64)
	e.EnableCodec2(0)
	tile := protocol.Rect{W: TileSize, H: TileSize}
	pix := photoPix(TileSize, TileSize, 5)
	b.SetBytes(int64(tile.Pixels() * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Perturb one pixel so every iteration is a genuine miss.
		pix[0] = protocol.Pixel(uint32(i)&0xffffff | 1)
		dgs, err := e.Encode(ImageOp{Rect: tile, Pixels: pix})
		if err != nil {
			b.Fatal(err)
		}
		for j := range dgs {
			dgs[j].ReleaseWire()
		}
	}
}

// BenchmarkHotpath_Codec2ReexposeFrame measures the steady-state win: a
// 256x192 region whose content alternates between two already-cached
// screens — every tile a hit — against the same frame through gen-1.
func BenchmarkHotpath_Codec2ReexposeFrame(b *testing.B) {
	const w, h = 256, 192
	run := func(b *testing.B, gen2 bool) {
		e := NewEncoder(w, h)
		if gen2 {
			e.EnableCodec2(0)
		}
		frames := [2][]protocol.Pixel{photoPix(w, h, 6), photoPix(w, h, 7)}
		r := protocol.Rect{W: w, H: h}
		for i := 0; i < 2; i++ { // seed both screens into the cache
			if _, err := e.Encode(ImageOp{Rect: r, Pixels: frames[i]}); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(w * h * 4))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dgs, err := e.Encode(ImageOp{Rect: r, Pixels: frames[i%2]})
			if err != nil {
				b.Fatal(err)
			}
			for j := range dgs {
				dgs[j].ReleaseWire()
			}
		}
	}
	b.Run("gen2", func(b *testing.B) { run(b, true) })
	b.Run("gen1", func(b *testing.B) { run(b, false) })
}

// scrollRig is a 1024×768 gen-2 terminal screen full of text, with the
// console's half of the pipeline modelled in-package: a retaining tile
// cache beside a console frame buffer, applying each emitted command the
// way console.Handle does. newline runs one terminal newline — COPY the
// body up one 16-pixel text row, FILL the freed bottom row — with reused
// messages, so what it measures is the frame-buffer and cache work on
// both ends.
type scrollRig struct {
	e      *Encoder
	conFB  *fb.Framebuffer
	cache  *TileCache
	scroll *protocol.Copy
	clear  *protocol.Fill
}

func newScrollRig(tb testing.TB) *scrollRig {
	const w, h, glyphW, glyphH = 1024, 768, 8, 16
	r := &scrollRig{
		e:     NewEncoder(w, h),
		conFB: fb.New(w, h),
		cache: NewTileCache(DefaultTileCacheEntries, true),
		scroll: &protocol.Copy{
			Rect: protocol.Rect{Y: glyphH, W: w, H: h - glyphH},
		},
		clear: &protocol.Fill{Rect: protocol.Rect{Y: h - glyphH, W: w, H: glyphH}, Color: 0x101020},
	}
	r.e.EnableCodec2(0)
	var glyphs [16][glyphH]byte
	for i := range glyphs {
		for j := range glyphs[i] {
			glyphs[i][j] = byte((i*131 + j*29) * 2654435761 >> 11)
		}
	}
	for y := 0; y < h; y += glyphH {
		for x := 0; x < w; x += glyphW {
			op := TextOp{
				Rect: protocol.Rect{X: x, Y: y, W: glyphW, H: glyphH},
				Fg:   0xe0e0e0, Bg: 0x101020,
				Bits: glyphs[(x/glyphW*7+y/glyphH*3)%len(glyphs)][:],
			}
			dgs, err := r.e.Encode(op)
			if err != nil {
				tb.Fatal(err)
			}
			for i := range dgs {
				r.apply(tb, dgs[i].Msg)
				dgs[i].ReleaseWire()
			}
		}
	}
	return r
}

// apply is the console half: render msg (a CACHE_PAINT blits its cached
// tile) and run the mirrored insert rule.
func (r *scrollRig) apply(tb testing.TB, msg protocol.Message) {
	if cp, ok := msg.(*protocol.CachePaint); ok {
		pix, hit := r.cache.Lookup(cp.Key, cp.Rect.W, cp.Rect.H)
		if !hit {
			tb.Fatalf("console cache misses claimed key %#x", cp.Key)
		}
		if err := r.conFB.Set(cp.Rect, pix); err != nil {
			tb.Fatal(err)
		}
		return
	}
	if err := r.conFB.Apply(msg); err != nil {
		tb.Fatal(err)
	}
	r.cache.NoteApply(r.conFB, msg)
}

func (r *scrollRig) newline(tb testing.TB) {
	r.e.FB.Copy(r.scroll.Rect, r.scroll.DstX, r.scroll.DstY)
	d := r.e.emit(r.scroll)
	r.apply(tb, d.Msg)
	d.ReleaseWire()
	r.e.FB.Fill(r.clear.Rect, r.clear.Color)
	d = r.e.emit(r.clear)
	r.apply(tb, d.Msg)
	d.ReleaseWire()
}

// TestCodec2ScrollZeroAlloc holds the gen-2 scroll path — COPY plus the
// mirrored re-insert of every destination tile on both ends — to zero
// allocations per newline once the replay ring and buffer pool are warm,
// and checks the two ends still agree afterwards.
func TestCodec2ScrollZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	r := newScrollRig(t)
	for i := 0; i < 200; i++ {
		r.newline(t)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.newline(t) }); allocs > 0.01 {
		t.Errorf("gen-2 scroll path allocates %.3f objects/newline, want 0", allocs)
	}
	if !r.conFB.Equal(r.e.FB) {
		t.Fatal("console frame buffer diverged from the server's")
	}
	if r.cache.Len() != r.e.codec2.cache.Len() {
		t.Fatalf("cache sizes diverged: console %d, server %d", r.cache.Len(), r.e.codec2.cache.Len())
	}
}

// BenchmarkHotpath_Codec2Scroll measures one terminal newline on a
// 1024×768 gen-2 session, server encode plus console apply: the
// frame-buffer COPY on each end and the mirrored tile-cache re-insert of
// the 64×47 destination tiles on each end.
func BenchmarkHotpath_Codec2Scroll(b *testing.B) {
	r := newScrollRig(b)
	r.newline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.newline(b)
	}
}
