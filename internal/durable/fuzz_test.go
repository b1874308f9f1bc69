package durable

import (
	"bytes"
	"testing"
)

// FuzzScan feeds arbitrary bytes through the frame scanner, the path
// that parses a log image after a crash. Invariants: no panic, the
// valid prefix never exceeds the input, sequence numbers are
// contiguous, and rescanning the valid prefix reproduces it. It also
// builds a log from the input with the codec and checks that every
// frame scans back to its payload.
func FuzzScan(f *testing.F) {
	valid := append(frameOf(1, "a"), frameOf(2, "b")...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte{}, valid...)
	flipped[len(frameOf(1, "a"))] ^= 0xff
	f.Add(flipped)
	f.Add(append(frameOf(2, "b"), frameOf(1, "a")...))
	f.Add(append(frameOf(1, "a"), frameOf(1, "a")...))
	f.Add([]byte("00000000 1:\n"))
	f.Add([]byte("not a log\n\x00\xff"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, n := Scan(data, decodeTest)
		if n < 0 || n > len(data) {
			t.Fatalf("prefix %d out of range [0, %d]", n, len(data))
		}
		end := 0
		for i, e := range entries {
			if e.Seq <= 0 || (i > 0 && e.Seq != entries[i-1].Seq+1) {
				t.Fatalf("entry %d has seq %d after %d", i, e.Seq, entries[max(i-1, 0)].Seq)
			}
			if !bytes.Equal(e.Frame, data[end:end+len(e.Frame)]) {
				t.Fatalf("entry %d frame does not alias the input at %d", i, end)
			}
			end += len(e.Frame)
		}
		if end != n {
			t.Fatalf("frames cover %d bytes, prefix is %d", end, n)
		}
		again, againN := Scan(data[:n], decodeTest)
		if againN != n || len(again) != len(entries) {
			t.Fatalf("rescan: %d entries/%d bytes, want %d/%d", len(again), againN, len(entries), n)
		}
		for i := range again {
			if again[i].Seq != entries[i].Seq || again[i].Rec != entries[i].Rec {
				t.Fatalf("rescan entry %d differs: %+v vs %+v", i, again[i], entries[i])
			}
		}

		// Every frame the codec builds scans back to its payload.
		var log []byte
		var bodies []string
		for i, body := range bytes.Split(data, []byte("\n")) {
			log = append(log, frameOf(int64(i+1), string(body))...)
			bodies = append(bodies, string(body))
		}
		built, builtN := Scan(log, decodeTest)
		if builtN != len(log) || len(built) != len(bodies) {
			t.Fatalf("built log: %d of %d frames, %d of %d bytes", len(built), len(bodies), builtN, len(log))
		}
		for i, e := range built {
			if e.Rec.body != bodies[i] {
				t.Fatalf("frame %d scanned back %q, want %q", i, e.Rec.body, bodies[i])
			}
		}
	})
}
