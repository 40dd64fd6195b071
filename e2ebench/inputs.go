package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// Every workload's inputs are a pure function of the --seed flag: the
// open-loop schedules, the typed characters and the drive content all come
// from generators seeded here, and nothing the system under test does
// feeds back into them. TestSameSeedSameInputs pins that property.

// keyInput is one scheduled input: a key press plus its release at the
// console with index Console, due At after the window starts.
type keyInput struct {
	At      time.Duration
	Console int
	Code    uint16
}

// newlineEvery is the typing workloads' line length: every 80th character
// is a newline, so the terminal wraps and scrolls the way a typist's does.
const newlineEvery = 80

// textStream yields seeded lower-case prose with a newline every
// newlineEvery characters.
type textStream struct {
	rng *rand.Rand
	n   int
}

func newTextStream(seed, stream uint64) *textStream {
	return &textStream{rng: rand.New(rand.NewPCG(seed, stream))}
}

func (t *textStream) next() uint16 {
	const letters = "abcdefghijklmnopqrstuvwxyz     "
	t.n++
	if t.n%newlineEvery == 0 {
		return '\n'
	}
	return uint16(letters[t.rng.IntN(len(letters))])
}

func (t *textStream) take(n int) []uint16 {
	out := make([]uint16, n)
	for i := range out {
		out[i] = t.next()
	}
	return out
}

// openLoopSchedule merges one arrival process per console over [0,
// span): rate×span inputs at independent uniform times, which is a
// Poisson process conditioned on its count, so the offered load is exact
// while arrivals keep their bursts. Independent users make an open loop:
// an input is due at its time whatever the system is doing. Key codes are
// seeded text when typing, 0 otherwise (drive apps ignore the code).
func openLoopSchedule(seed uint64, consoles int, rate float64, span time.Duration, typing bool) []keyInput {
	var all []keyInput
	n := int(math.Round(rate * span.Seconds()))
	for c := 0; c < consoles; c++ {
		rng := rand.New(rand.NewPCG(seed, uint64(c)+1))
		per := make([]keyInput, n)
		for i := range per {
			per[i] = keyInput{At: time.Duration(rng.Float64() * float64(span)), Console: c}
		}
		sort.Slice(per, func(i, j int) bool { return per[i].At < per[j].At })
		if typing {
			text := &textStream{rng: rng}
			for i := range per {
				per[i].Code = text.next()
			}
		}
		all = mergeByTime(all, per)
	}
	return all
}

// mergeByTime merges two schedules sorted by At; ties keep a before b.
func mergeByTime(a, b []keyInput) []keyInput {
	out := make([]keyInput, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if b[0].At < a[0].At {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

// deskStream identifies the desks' keystroke streams: desk d types
// stream deskStream+d.
const deskStream = 0xde5c

// driveSeed derives the content seed of console c's drive; hotdesk's
// single session uses c = 0.
func driveSeed(seed uint64, c int) uint64 { return seed*16 + uint64(c) }
