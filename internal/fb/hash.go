package fb

import "slim/internal/protocol"

// Content hashing for the gen-2 codec's dirty-tile cache. Keys are 64-bit
// xxhash-style digests over a rectangle's pixels with the rectangle's
// dimensions folded in, so two tiles match only when they have identical
// geometry AND identical content. The cache built on these keys is
// content addressed: an entry's key is by construction the hash of the
// pixels it stores, which makes stale entries self-invalidating (a key
// that no longer matches current content is simply never claimed).
//
// The mixer is the xxhash64 round function (multiply, rotate, multiply)
// with the standard avalanche finalizer. It is not cryptographic — a
// malicious application could engineer collisions — but the threat model
// here is the paper's: the server is trusted, and a collision costs one
// mispainted tile until the next repaint, not a protocol violation.

const (
	hashPrime1 = 0x9E3779B185EBCA87
	hashPrime2 = 0xC2B2AE3D27D4EB4F
	hashPrime3 = 0x165667B19E3779F9
)

func hashRotl(x uint64, r uint) uint64 { return x<<r | x>>(64-r) }

// hashRow folds one row of pixels into h.
func hashRow(h uint64, row []protocol.Pixel) uint64 {
	for _, p := range row {
		h ^= uint64(p) * hashPrime2
		h = hashRotl(h, 31) * hashPrime1
	}
	return h
}

// hashFinish applies the xxhash avalanche so single-pixel differences
// diffuse across all 64 bits.
func hashFinish(h uint64) uint64 {
	h ^= h >> 33
	h *= hashPrime2
	h ^= h >> 29
	h *= hashPrime3
	h ^= h >> 32
	return h
}

// hashSeed starts a digest for a w×h rectangle.
func hashSeed(w, h int) uint64 {
	return hashPrime3 ^ uint64(w)<<32 ^ uint64(h)
}

// hashCell is the edge of the memoized hash grid. It equals the gen-2
// codec's tile size, so the tiles of any grid-anchored rectangle (a full
// repaint, a terminal scroll) are exactly memo cells.
const hashCell = 16

// HashRect returns the 64-bit content hash of the clipped rectangle's
// pixels. It reads the frame buffer row by row and allocates nothing, so
// the gen-2 encoder can hash every dirty tile on the hot path. An empty
// (fully clipped) rectangle hashes to 0, which callers treat as "not
// cacheable".
//
// A rectangle that is exactly one whole hashCell grid cell is memoized:
// the first such call allocates the memo (8 bytes per cell), each cell's
// key is computed at most once per content, and a cell whose key is
// known costs a load. The kernels keep the memo exact — every write
// forgets the cells it touches (noteDamage, SetAt) and a cell-aligned
// Copy carries keys along with the pixels — so a memoized key is always
// bit-identical to a fresh hash.
func (f *Framebuffer) HashRect(r protocol.Rect) uint64 {
	r = f.clip(r)
	if r.Empty() {
		return 0
	}
	if r.W != hashCell || r.H != hashCell || r.X%hashCell != 0 || r.Y%hashCell != 0 {
		return f.hashPixels(r)
	}
	if f.hashes == nil {
		f.hashes = make([]uint64, (f.W/hashCell)*(f.H/hashCell))
	}
	i := r.Y/hashCell*(f.W/hashCell) + r.X/hashCell
	if f.hashes[i] == 0 {
		f.hashes[i] = f.hashPixels(r)
	}
	return f.hashes[i]
}

// hashPixels hashes the clipped, non-empty rectangle r in place.
func (f *Framebuffer) hashPixels(r protocol.Rect) uint64 {
	h := hashSeed(r.W, r.H)
	for y := r.Y; y < r.Y+r.H; y++ {
		h = hashRow(h, f.row(y, r.X, r.W))
	}
	return hashFinish(h)
}

// cellSpan returns the whole grid cells [x0, x1) × [y0, y1) that the
// clipped rectangle r touches; the span is empty when r lies entirely in
// the partial edge cells of a frame buffer whose size is not a multiple
// of hashCell.
func (f *Framebuffer) cellSpan(r protocol.Rect) (x0, y0, x1, y1 int) {
	return r.X / hashCell, r.Y / hashCell,
		min((r.X+r.W+hashCell-1)/hashCell, f.W/hashCell),
		min((r.Y+r.H+hashCell-1)/hashCell, f.H/hashCell)
}

// forgetHashes drops the memoized keys of every cell the clipped
// rectangle r touches.
func (f *Framebuffer) forgetHashes(r protocol.Rect) {
	if f.hashes == nil || r.Empty() {
		return
	}
	x0, y0, x1, y1 := f.cellSpan(r)
	cols := f.W / hashCell
	for cy := y0; cy < y1; cy++ {
		clear(f.hashes[cy*cols+x0 : cy*cols+x1])
	}
}

// moveHashes updates the memo after Copy moved the clipped src rectangle
// onto the equally sized clipped dst. When the shift is a whole number of
// cells, each cell dst covers entirely takes its source cell's key —
// which lies inside src, so it is a whole cell too — and every other cell
// dst touches is forgotten. Cells are visited in the pixel copy's order
// (backward when dst follows src in memory), so no source key is read
// after being overwritten.
func (f *Framebuffer) moveHashes(src, dst protocol.Rect, backward bool) {
	if f.hashes == nil {
		return
	}
	dx, dy := dst.X-src.X, dst.Y-src.Y
	if dx%hashCell != 0 || dy%hashCell != 0 {
		f.forgetHashes(dst)
		return
	}
	cols := f.W / hashCell
	shift := dy/hashCell*cols + dx/hashCell
	x0, y0, x1, y1 := f.cellSpan(dst)
	// Cells [fx0, fx1) × [fy0, fy1) lie entirely inside dst.
	fx0, fy0 := (dst.X+hashCell-1)/hashCell, (dst.Y+hashCell-1)/hashCell
	fx1, fy1 := (dst.X+dst.W)/hashCell, (dst.Y+dst.H)/hashCell
	move := func(cx, cy int) {
		i := cy*cols + cx
		if cx >= fx0 && cx < fx1 && cy >= fy0 && cy < fy1 {
			f.hashes[i] = f.hashes[i-shift]
		} else {
			f.hashes[i] = 0
		}
	}
	if backward {
		for cy := y1 - 1; cy >= y0; cy-- {
			for cx := x1 - 1; cx >= x0; cx-- {
				move(cx, cy)
			}
		}
	} else {
		for cy := y0; cy < y1; cy++ {
			for cx := x0; cx < x1; cx++ {
				move(cx, cy)
			}
		}
	}
}

// HashPixels hashes a row-major w×h pixel slice exactly as HashRect
// hashes the same content in place. The console uses it to validate
// cached tiles against their keys in tests and fuzzing; len(pix) must be
// w*h.
func HashPixels(pix []protocol.Pixel, w, h int) uint64 {
	if w <= 0 || h <= 0 || len(pix) != w*h {
		return 0
	}
	d := hashSeed(w, h)
	for y := 0; y < h; y++ {
		d = hashRow(d, pix[y*w:(y+1)*w])
	}
	return hashFinish(d)
}

// TileStats summarizes a clipped rectangle for the gen-2 content
// classifier in one pass: the number of distinct colors observed, capped
// at colorCap (a return of colorCap+1 means "more than the cap"), and the
// number of distinct row hashes. Text and UI chrome are palette limited
// with heavily repeated rows (blank interline gaps, dither patterns);
// continuous-tone content shows many colors and nearly all-distinct rows.
func (f *Framebuffer) TileStats(r protocol.Rect, colorCap int) (colors, uniqueRows int) {
	r = f.clip(r)
	if r.Empty() {
		return 0, 0
	}
	var palette [16]protocol.Pixel
	if colorCap > len(palette) {
		colorCap = len(palette)
	}
	var rowHashes [64]uint64
	for y := r.Y; y < r.Y+r.H; y++ {
		row := f.row(y, r.X, r.W)
		if colors <= colorCap {
			for _, p := range row {
				found := false
				for i := 0; i < colors; i++ {
					if palette[i] == p {
						found = true
						break
					}
				}
				if !found {
					if colors >= colorCap {
						colors = colorCap + 1
						break
					}
					palette[colors] = p
					colors++
				}
			}
		}
		rh := hashFinish(hashRow(hashSeed(r.W, 1), row))
		seen := false
		for i := 0; i < uniqueRows; i++ {
			if rowHashes[i] == rh {
				seen = true
				break
			}
		}
		if !seen && uniqueRows < len(rowHashes) {
			rowHashes[uniqueRows] = rh
			uniqueRows++
		}
	}
	return colors, uniqueRows
}
