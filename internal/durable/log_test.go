package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/go-ccts/ccts/internal/faultio"
)

// testRec is the payload vocabulary of these tests: "<seq>:<body>".
type testRec struct {
	seq  int64
	body string
}

func decodeTest(payload []byte) (testRec, int64, bool) {
	i := bytes.IndexByte(payload, ':')
	if i < 0 {
		return testRec{}, 0, false
	}
	seq, err := strconv.ParseInt(string(payload[:i]), 10, 64)
	if err != nil {
		return testRec{}, 0, false
	}
	return testRec{seq: seq, body: string(payload[i+1:])}, seq, true
}

func frameOf(seq int64, body string) []byte {
	return AppendFrame(nil, []byte(fmt.Sprintf("%d:%s", seq, body)))
}

func openTestLog(t *testing.T, path string, watermark int64) (*Log, []testRec) {
	t.Helper()
	l, entries, err := OpenLog(path, watermark, decodeTest)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	recs := make([]testRec, len(entries))
	for i, e := range entries {
		recs[i] = e.Rec
	}
	return l, recs
}

func mustAppend(t *testing.T, l *Log, seq int64, body string) {
	t.Helper()
	if err := l.Append(frameOf(seq, body), nil); err != nil {
		t.Fatalf("append %d: %v", seq, err)
	}
}

func wantRecs(t *testing.T, got []testRec, want ...string) {
	t.Helper()
	var bodies []string
	for _, r := range got {
		bodies = append(bodies, r.body)
	}
	if fmt.Sprint(bodies) != fmt.Sprint(want) {
		t.Fatalf("replayed %v, want %v", bodies, want)
	}
}

// A failed append, including a short write that lands part of the
// frame, leaves no trace: the next acknowledged append is readable
// after reopening.
func TestAppendFailureRollsBack(t *testing.T) {
	for _, limit := range []int64{0, 1, 40} {
		t.Run(fmt.Sprint(limit), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			l, _ := openTestLog(t, path, 0)
			mustAppend(t, l, 1, "A")
			err := l.Append(frameOf(2, "B-"+string(bytes.Repeat([]byte("x"), 64))), func(w io.Writer) io.Writer {
				return &faultio.Writer{W: w, Limit: limit}
			})
			if !errors.Is(err, faultio.ErrInjected) {
				t.Fatalf("failing append: %v, want the injected fault", err)
			}
			mustAppend(t, l, 2, "C")
			l.Close()

			_, recs := openTestLog(t, path, 0)
			wantRecs(t, recs, "A", "C")
		})
	}
}

// Tearing a 3-frame log at every byte offset replays exactly the
// complete frames, and the next append lands on a frame boundary.
func TestTornLogEveryOffset(t *testing.T) {
	var image []byte
	var bounds []int
	for i, body := range []string{"first", "second", "third"} {
		image = append(image, frameOf(int64(i+1), body)...)
		bounds = append(bounds, len(image))
	}
	for cut := 0; cut <= len(image); cut++ {
		complete := 0
		for complete < len(bounds) && bounds[complete] <= cut {
			complete++
		}
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, image[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs := openTestLog(t, path, 0)
		if len(recs) != complete {
			t.Fatalf("cut %d: replayed %d frames, want %d", cut, len(recs), complete)
		}
		mustAppend(t, l, int64(complete+1), "next")
		l.Close()
		_, recs = openTestLog(t, path, 0)
		if len(recs) != complete+1 || recs[complete].body != "next" {
			t.Fatalf("cut %d: after append replayed %+v, want %d frames ending in next", cut, recs, complete+1)
		}
	}
}

// The recovery rule: frames at or below the watermark are absorbed, and
// a log that does not continue the watermark is discarded.
func TestOpenLogWatermark(t *testing.T) {
	cases := []struct {
		name      string
		seqs      []int64
		watermark int64
		replay    int // frames replayed
		kept      bool
	}{
		{"empty", nil, 3, 0, true},
		{"above", []int64{1, 2, 3}, 0, 3, true},
		{"absorbed prefix", []int64{1, 2, 3, 4}, 2, 2, true},
		{"all absorbed", []int64{1, 2}, 2, 0, true},
		{"gap", []int64{5, 6}, 2, 0, false},
		{"ends below", []int64{1, 2}, 5, 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var image []byte
			for _, seq := range c.seqs {
				image = append(image, frameOf(seq, "x")...)
			}
			path := filepath.Join(t.TempDir(), "log")
			if err := os.WriteFile(path, image, 0o644); err != nil {
				t.Fatal(err)
			}
			l, recs := openTestLog(t, path, c.watermark)
			if len(recs) != c.replay {
				t.Fatalf("replayed %d frames, want %d", len(recs), c.replay)
			}
			if len(recs) > 0 && recs[0].seq != c.watermark+1 {
				t.Fatalf("first replayed seq %d, want %d", recs[0].seq, c.watermark+1)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if kept := fi.Size() == int64(len(image)); kept != c.kept || (!c.kept && fi.Size() != 0) {
				t.Fatalf("log size %d of %d, want kept=%v", fi.Size(), len(image), c.kept)
			}
			// Whatever the rule kept, the next frame continues it.
			next := c.watermark + int64(c.replay) + 1
			mustAppend(t, l, next, "next")
			l.Close()
			_, recs = openTestLog(t, path, c.watermark)
			if n := len(recs); n != c.replay+1 || recs[n-1].seq != next {
				t.Fatalf("after append replayed %+v, want %d frames ending at seq %d", recs, c.replay+1, next)
			}
		})
	}
}

// A log whose rollback failed refuses appends until Reset.
func TestBrokenLogRefusesUntilReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := openTestLog(t, path, 0)
	mustAppend(t, l, 1, "A")

	// A read-only handle fails both the write and the rollback truncate.
	rw := l.f
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.f = ro
	if err := l.Append(frameOf(2, "B"), nil); err == nil || errors.Is(err, ErrBroken) {
		t.Fatalf("append on a read-only handle: %v, want the write error", err)
	}
	ro.Close()
	l.f = rw
	if err := l.Append(frameOf(2, "B"), nil); !errors.Is(err, ErrBroken) {
		t.Fatalf("append after failed rollback: %v, want ErrBroken", err)
	}

	if err := l.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	mustAppend(t, l, 2, "C")
	l.Close()
	_, recs := openTestLog(t, path, 1)
	wantRecs(t, recs, "C")
}

func TestParseFrameRoundTrip(t *testing.T) {
	for _, payload := range []string{"x", `{"seq":1}`, "with space and : colon"} {
		frame := AppendFrame(nil, []byte(payload))
		if frame[len(frame)-1] != '\n' {
			t.Fatalf("frame %q lacks its newline", frame)
		}
		got, ok := ParseFrame(frame[:len(frame)-1])
		if !ok || string(got) != payload {
			t.Fatalf("ParseFrame(%q) = %q, %v", frame, got, ok)
		}
		corrupt := append([]byte{}, frame[:len(frame)-1]...)
		corrupt[len(corrupt)-1] ^= 0x01
		if _, ok := ParseFrame(corrupt); ok {
			t.Fatalf("ParseFrame accepted a corrupt payload %q", corrupt)
		}
	}
	if _, ok := ParseFrame([]byte("0000000 x")); ok {
		t.Fatal("ParseFrame accepted a short checksum")
	}
}
