package fb

import (
	"math/rand"
	"testing"

	"slim/internal/protocol"
)

// requireMemoExact checks the hash memo's invariant on every whole grid
// cell: a memoized key equals a fresh hash of the cell's pixels, and
// HashRect returns that fresh hash. It leaves every cell memoized.
func requireMemoExact(t *testing.T, f *Framebuffer) {
	t.Helper()
	for y := 0; y+hashCell <= f.H; y += hashCell {
		for x := 0; x+hashCell <= f.W; x += hashCell {
			cell := protocol.Rect{X: x, Y: y, W: hashCell, H: hashCell}
			want := HashPixels(f.ReadRect(cell), hashCell, hashCell)
			if f.hashes != nil {
				if k := f.hashes[y/hashCell*(f.W/hashCell)+x/hashCell]; k != 0 && k != want {
					t.Fatalf("cell %v: memoized key %#x, fresh hash %#x", cell, k, want)
				}
			}
			if got := f.HashRect(cell); got != want {
				t.Fatalf("cell %v: HashRect %#x, fresh hash %#x", cell, got, want)
			}
		}
	}
}

// memoized reports whether the cell at pixel (x, y) has a known key.
func memoized(f *Framebuffer, x, y int) bool {
	return f.hashes[y/hashCell*(f.W/hashCell)+x/hashCell] != 0
}

// TestHashMemo runs each write kernel against a fully memoized frame
// buffer and checks the memo stays exact. carried names a destination
// cell whose key an aligned copy must have moved rather than dropped.
func TestHashMemo(t *testing.T) {
	cscs := func(f *Framebuffer, r protocol.Rect) {
		pix := make([]protocol.Pixel, r.Pixels())
		for i := range pix {
			pix[i] = protocol.Pixel(i * 0x010203 & 0xffffff)
		}
		data, err := EncodeCSCS(pix, r.W, r.H, protocol.CSCS16)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.ApplyCSCS(&protocol.CSCS{Src: r, Dst: r, Format: protocol.CSCS16, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	copyBy := func(src protocol.Rect, dx, dy int) func(*Framebuffer) {
		return func(f *Framebuffer) { f.Copy(src, src.X+dx, src.Y+dy) }
	}
	type point struct{ x, y int }
	cases := []struct {
		name    string
		w, h    int
		op      func(*Framebuffer)
		carried []point
	}{
		{name: "copy up", w: 64, h: 64,
			op: copyBy(protocol.Rect{Y: 16, W: 64, H: 48}, 0, -16), carried: []point{{0, 0}, {48, 32}}},
		{name: "copy down", w: 64, h: 64,
			op: copyBy(protocol.Rect{W: 64, H: 48}, 0, 16), carried: []point{{0, 16}, {48, 48}}},
		{name: "copy left", w: 64, h: 64,
			op: copyBy(protocol.Rect{X: 16, W: 48, H: 64}, -16, 0), carried: []point{{0, 0}, {32, 48}}},
		{name: "copy right", w: 64, h: 64,
			op: copyBy(protocol.Rect{W: 48, H: 64}, 16, 0), carried: []point{{16, 0}, {48, 48}}},
		{name: "copy diagonal", w: 64, h: 64,
			op: copyBy(protocol.Rect{X: 16, Y: 16, W: 48, H: 48}, -16, -16), carried: []point{{0, 0}, {32, 32}}},
		{name: "copy by two cells", w: 64, h: 64,
			op: copyBy(protocol.Rect{W: 64, H: 32}, 0, 32), carried: []point{{0, 32}, {48, 48}}},
		{name: "unaligned shift", w: 64, h: 64,
			op: copyBy(protocol.Rect{Y: 16, W: 64, H: 48}, 3, -16)},
		{name: "unaligned source", w: 64, h: 64,
			op: copyBy(protocol.Rect{X: 5, Y: 7, W: 40, H: 40}, 16, 16)},
		{name: "destination clipped at edge", w: 64, h: 64,
			op: copyBy(protocol.Rect{W: 48, H: 48}, 32, 32), carried: []point{{32, 32}, {48, 48}}},
		{name: "source clipped at edge", w: 64, h: 64,
			op: copyBy(protocol.Rect{X: 32, Y: -16, W: 64, H: 64}, -32, 16), carried: []point{{0, 0}, {16, 32}}},
		{name: "partial edge cells scroll", w: 1000, h: 750,
			op: copyBy(protocol.Rect{Y: 16, W: 1000, H: 734}, 0, -16), carried: []point{{0, 0}, {976, 704}}},
		{name: "partial edge cells fill", w: 1000, h: 750,
			op: func(f *Framebuffer) { f.Fill(protocol.Rect{X: 990, Y: 700, W: 20, H: 60}, 0x123456) }},
		{name: "partial edge cells copy into edge", w: 1000, h: 750,
			op: copyBy(protocol.Rect{X: 960, Y: 704, W: 40, H: 46}, -8, -8)},
		{name: "SetAt", w: 64, h: 64,
			op: func(f *Framebuffer) { f.SetAt(17, 33, 0xabcdef) }},
		{name: "Set spanning cells", w: 64, h: 64,
			op: func(f *Framebuffer) { f.Set(protocol.Rect{X: 10, Y: 10, W: 2, H: 2}, []protocol.Pixel{1, 2, 3, 4}) }},
		{name: "Bitmap glyph", w: 64, h: 64,
			op: func(f *Framebuffer) { f.Bitmap(protocol.Rect{X: 8, Y: 16, W: 8, H: 16}, 1, 2, make([]byte, 16)) }},
		{name: "CSCS apply", w: 64, h: 64,
			op: func(f *Framebuffer) { cscs(f, protocol.Rect{X: 14, Y: 20, W: 20, H: 12}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := randomFB(rand.New(rand.NewSource(int64(len(tc.name)))), tc.w, tc.h)
			requireMemoExact(t, f)
			tc.op(f)
			for _, p := range tc.carried {
				if !memoized(f, p.x, p.y) {
					t.Errorf("aligned copy dropped the key of the cell at (%d,%d)", p.x, p.y)
				}
			}
			requireMemoExact(t, f)
		})
	}
}

// TestHashMemoLazy pins the memo's cost model: a frame buffer nobody
// hashes never allocates it, and hashes of rectangles that are not whole
// grid cells neither allocate nor use it.
func TestHashMemoLazy(t *testing.T) {
	f := New(64, 64)
	f.Fill(protocol.Rect{W: 64, H: 64}, 7)
	f.Copy(protocol.Rect{Y: 16, W: 64, H: 48}, 0, 0)
	f.HashRect(protocol.Rect{X: 8, W: 16, H: 16})
	f.HashRect(protocol.Rect{W: 8, H: 16})
	if f.hashes != nil {
		t.Fatal("memo allocated without a cell-aligned hash")
	}
	f.HashRect(protocol.Rect{X: 16, Y: 16, W: 16, H: 16})
	if len(f.hashes) != 16 {
		t.Fatalf("memo has %d cells, want 16", len(f.hashes))
	}
}
