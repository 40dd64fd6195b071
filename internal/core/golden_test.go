package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	"slim/internal/console"
	"slim/internal/core"
	"slim/internal/protocol"
	"slim/internal/server"
)

// The gen-2 stream a seeded terminal session produces, pinned byte for
// byte. Tile hashes feed CACHE_PAINT keys, the mirrored insert rule and
// LRU order, so any change to how the frame buffer computes them that is
// not bit-identical to a fresh hash shows up here as a different digest.
const (
	goldenTermStreamSHA256 = "7f7d3dc34bab12188db100972f895f9651d0a13a1dc78315b27d0d1cf68b5430"
	goldenTermKeysSHA256   = "fd57fe6e310b48b53a8bcf2b3c4175af8408150290b092791b3d3b09ed39a396"
)

// TestGoldenTerminalStream types a seeded character stream into a
// 1024×768 gen-2 terminal — well over 50 one-row scrolls, plus reattach
// repaints of the unchanged screen — and feeds every datagram to a real
// gen-2 console. It pins the SHA-256 of the datagram stream and of the
// server cache's final key order, and requires the console to end
// pixel-identical with a cache in the same LRU order, without a NACK.
func TestGoldenTerminalStream(t *testing.T) {
	const w, h = 1024, 768
	enc := core.NewEncoder(w, h)
	enc.EnableCodec2(0)
	con, err := console.New(console.Config{Width: w, Height: h, TileCacheEntries: core.DefaultTileCacheEntries})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := con.Handle(0, &protocol.HelloAck{SessionID: 1}, 0); err != nil {
		t.Fatal(err)
	}
	term := server.NewTerminal(w, h)

	stream := sha256.New()
	deliver := func(dgs []core.Datagram) {
		t.Helper()
		for i := range dgs {
			stream.Write(dgs[i].Wire)
			replies, err := con.HandleDatagram(dgs[i].Wire, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(replies) != 0 {
				t.Fatalf("seq %d: console replied %d datagrams (NACK)", dgs[i].Seq, len(replies))
			}
			dgs[i].ReleaseWire()
		}
	}
	encode := func(ops []core.Op) {
		t.Helper()
		for _, op := range ops {
			dgs, err := enc.Encode(op)
			if err != nil {
				t.Fatal(err)
			}
			deliver(dgs)
		}
	}

	encode(term.Clear())
	rng := rand.New(rand.NewSource(13))
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 .,;:-"
	rows := h / server.TermGlyphH
	newlines := 0
	for newlines < rows+60 {
		if rng.Intn(12) == 0 {
			encode(term.Type('\n'))
			newlines++
			if newlines%40 == 0 {
				// Reattach: both caches start a new generation and the
				// unchanged screen is repainted.
				if _, err := con.Handle(0, &protocol.SessionAttach{SessionID: 1}, 0); err != nil {
					t.Fatal(err)
				}
				deliver(enc.RepaintAll())
			}
			continue
		}
		encode(term.Type(alphabet[rng.Intn(len(alphabet))]))
	}

	if !con.Framebuffer().Equal(enc.FB) {
		t.Fatal("console frame buffer differs from the server's")
	}
	serverKeys := core.CacheKeys(core.Codec2Cache(enc))
	if consoleKeys := core.CacheKeys(con.TileCache()); !slices.Equal(serverKeys, consoleKeys) {
		t.Fatalf("cache key orders diverge: server %d keys, console %d", len(serverKeys), len(consoleKeys))
	}
	keys := sha256.New()
	for _, k := range serverKeys {
		keys.Write(binary.BigEndian.AppendUint64(nil, k))
	}
	if got := hex.EncodeToString(stream.Sum(nil)); got != goldenTermStreamSHA256 {
		t.Errorf("datagram stream SHA-256 = %s, want %s", got, goldenTermStreamSHA256)
	}
	if got := hex.EncodeToString(keys.Sum(nil)); got != goldenTermKeysSHA256 {
		t.Errorf("cache key order SHA-256 = %s, want %s", got, goldenTermKeysSHA256)
	}
}
