// Package wirebuf is a reference-counted, size-classed arena for wire
// buffers. The encoder marshals every display datagram into a Buf; the
// buffer then travels through the flow governor's queue and the transport,
// and is retained by the replay ring, before returning to a sync.Pool for
// the next datagram. Refcounting is what makes pooling safe in a pipeline
// where a datagram can be simultaneously queued for (re)transmission and
// parked in the replay ring: the bytes go back to the pool only when every
// holder has released, so reuse can never alias a live retransmit.
//
// Ownership contract:
//
//   - Get returns a Buf with one reference, owned by the caller.
//   - Every party that stores the Buf past its caller's return takes its
//     own reference with Retain and pairs it with Release.
//   - A transport's Send must not retain the wire slice after returning;
//     the sender releases its reference as soon as Send comes back.
//
// Release of the last reference recycles the buffer; releasing below zero
// panics (a use-after-release waiting to happen).
package wirebuf

import (
	"sync"
	"sync/atomic"
)

// classSizes are the arena's size classes. Display datagrams cluster just
// under the MTU (~1400B), so the 2 KiB class carries most of the traffic;
// the larger classes absorb jumbo-MTU configurations and CSCS strips.
var classSizes = [...]int{256, 2 << 10, 8 << 10, 32 << 10, 128 << 10}

// pools[i] recycles Bufs whose capacity is classSizes[i]. sync.Pool is
// per-P sharded, so sessions encoding on different goroutines do not
// contend.
var pools [len(classSizes)]sync.Pool

// Buf is one pooled wire buffer.
type Buf struct {
	b    []byte
	refs atomic.Int32
	// class is the index of the pool this buffer recycles into,
	// -1 for oversized buffers that just fall to the GC.
	class int
}

// Get returns a zero-length buffer with capacity at least size and one
// reference owned by the caller.
func Get(size int) *Buf {
	for i, cs := range classSizes {
		if size <= cs {
			if b, ok := pools[i].Get().(*Buf); ok {
				b.refs.Store(1)
				b.b = b.b[:0]
				return b
			}
			b := &Buf{b: make([]byte, 0, cs), class: i}
			b.refs.Store(1)
			return b
		}
	}
	b := &Buf{b: make([]byte, 0, size), class: -1}
	b.refs.Store(1)
	return b
}

// Bytes reports the buffer's current contents.
func (b *Buf) Bytes() []byte { return b.b }

// SetBytes replaces the buffer's contents with p. Callers use it after an
// append-style marshal that may have grown (and therefore replaced) the
// backing array; the buffer is then re-classed by its new capacity, since a
// pooled buffer must be able to serve any request routed to its class.
func (b *Buf) SetBytes(p []byte) {
	if cap(p) != cap(b.b) {
		b.class = -1
		for i := len(classSizes) - 1; i >= 0; i-- {
			if cap(p) >= classSizes[i] {
				b.class = i
				break
			}
		}
	}
	b.b = p
}

// Retain adds a reference.
func (b *Buf) Retain() { b.refs.Add(1) }

// Release drops a reference, recycling the buffer when the last one goes.
func (b *Buf) Release() {
	switch n := b.refs.Add(-1); {
	case n == 0:
		if b.class >= 0 {
			pools[b.class].Put(b)
		}
	case n < 0:
		panic("wirebuf: release of a free buffer")
	}
}

// Refs reports the current reference count (for tests).
func (b *Buf) Refs() int { return int(b.refs.Load()) }
