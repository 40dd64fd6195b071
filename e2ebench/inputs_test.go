package main

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"slim/internal/core"
)

// inputDigest hashes everything a workload's inputs are made of for a
// seed: the open-loop schedules with their key codes, the desk keystroke
// streams, and the first drive steps' pixels. (Set-up inputs do not
// depend on the seed.)
func inputDigest(t *testing.T, workload string, seed uint64) uint64 {
	t.Helper()
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putSchedule := func(s []keyInput) {
		for _, in := range s {
			put(uint64(in.At))
			put(uint64(in.Console))
			put(uint64(in.Code))
		}
	}
	putDrive := func(c int) {
		app := newDriveApp(driveSeed(seed, c))
		enc := core.NewEncoder(hotdeskW, hotdeskH)
		enc.SkipWire = true
		for i := 0; i < 4; i++ {
			for _, op := range app.HandleKey(keyEvent(' ', true)) {
				if _, err := enc.Encode(op); err != nil {
					t.Fatal(err)
				}
			}
		}
		put(enc.FB.HashRect(enc.FB.Bounds()))
	}
	const span = 2 * time.Second
	switch workload {
	case "type":
		putSchedule(openLoopSchedule(seed, 2, 200, span, true))
	case "scroll":
		putSchedule(openLoopSchedule(seed, 2, 20, span, false))
		putDrive(0)
		putDrive(1)
	case "hotdesk":
		putDrive(0)
	case "desks":
		for d := 0; d < deskCount; d++ {
			for _, c := range newTextStream(seed, deskStream+uint64(d)).take(100) {
				put(uint64(c))
			}
		}
	default:
		t.Fatalf("no digest for workload %q", workload)
	}
	return h.Sum64()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloadOrder {
		a, b := inputDigest(t, w, 7), inputDigest(t, w, 7)
		if a != b {
			t.Errorf("%s: seed 7 gave two input streams (%x, %x)", w, a, b)
		}
		if c := inputDigest(t, w, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same input stream", w)
		}
	}
}

func TestOpenLoopScheduleShape(t *testing.T) {
	s := openLoopSchedule(3, 2, 200, 10*time.Second, true)
	per := make([]int, 2)
	newlines := 0
	for i, in := range s {
		if i > 0 && in.At < s[i-1].At {
			t.Fatalf("schedule not sorted at %d", i)
		}
		per[in.Console]++
		if in.Code == '\n' {
			newlines++
		}
	}
	for c, n := range per {
		if n != 2000 {
			t.Errorf("console %d: %d inputs in 10 s at 200/s, want 2000", c, n)
		}
	}
	if want := len(s) / newlineEvery; newlines < want-2 || newlines > want+2 {
		t.Errorf("%d newlines in %d keystrokes, want about %d", newlines, len(s), want)
	}
}
