// Package durable is the storage kernel under the schema repository,
// the batch-job store, the shard map and the schema writers: the frame
// codec and log, the atomic file write, the content-addressed blob
// store and the temp-file sweep. It knows no record vocabulary; callers
// own their records, checkpoint documents, compaction policy and locks.
// Every write takes one fault seam, a func(io.Writer) io.Writer that
// interposes on the bytes on their way to the file (nil writes
// directly); tests put a faultio.Writer there.
package durable

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
)

// AppendFrame appends the frame of payload to dst: "%08x payload\n",
// the IEEE CRC-32 of payload in fixed-width hex, a space, the payload
// and a newline. payload must not contain a newline.
func AppendFrame(dst, payload []byte) []byte {
	if bytes.IndexByte(payload, '\n') >= 0 {
		panic("durable: frame payload contains a newline")
	}
	dst = fmt.Appendf(dst, "%08x ", crc32.ChecksumIEEE(payload))
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// ParseFrame returns the payload of one frame given without its
// newline; ok is false when the frame is malformed or fails its CRC.
func ParseFrame(line []byte) (payload []byte, ok bool) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, false
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil || crc32.ChecksumIEEE(line[9:]) != uint32(want) {
		return nil, false
	}
	return line[9:], true
}

// Entry is one frame of a scanned log: the caller's decoded record, its
// sequence number, and the frame bytes (newline included, aliasing the
// scanned image).
type Entry[T any] struct {
	Rec   T
	Seq   int64
	Frame []byte
}

// Scan decodes the longest valid prefix of a log image and returns its
// entries and its length. The prefix ends before the first frame that
// is unterminated, fails its CRC or is rejected by decode, or whose
// sequence number is not positive or not one above the previous one.
func Scan[T any](data []byte, decode func(payload []byte) (rec T, seq int64, ok bool)) (entries []Entry[T], n int) {
	for n < len(data) {
		nl := bytes.IndexByte(data[n:], '\n')
		if nl < 0 {
			break
		}
		payload, ok := ParseFrame(data[n : n+nl])
		if !ok {
			break
		}
		rec, seq, ok := decode(payload)
		if !ok || seq <= 0 || (len(entries) > 0 && seq != entries[len(entries)-1].Seq+1) {
			break
		}
		entries = append(entries, Entry[T]{Rec: rec, Seq: seq, Frame: data[n : n+nl+1]})
		n += nl + 1
	}
	return entries, n
}

// ErrBroken reports a log whose rollback of a failed append failed too;
// it refuses appends until Reset or reopen.
var ErrBroken = errors.New("durable: log unusable after a failed rollback; reset or reopen it")

// Log is an append-only file of frames. It is not safe for concurrent
// use.
type Log struct {
	f      *os.File
	size   int64
	broken bool
}

// OpenLog opens (creating) the log at path and recovers it against
// watermark, the highest sequence number a checkpoint has absorbed, by
// the one recovery rule: frames at or below the watermark are skipped,
// and the log is discarded when its frames do not continue the
// watermark (the first frame above it is not watermark+1, or the last
// frame is below it). It truncates what the rule does not keep and
// returns the frames to replay on top of the checkpoint, numbered
// watermark+1, watermark+2 and so on.
func OpenLog[T any](path string, watermark int64, decode func(payload []byte) (rec T, seq int64, ok bool)) (*Log, []Entry[T], error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	entries, n := Scan(data, decode)
	if len(entries) > 0 {
		first, last := entries[0].Seq, entries[len(entries)-1].Seq
		if first > watermark+1 || last < watermark {
			entries, n = nil, 0 // the next append would open a gap
		} else {
			entries = entries[watermark+1-first:]
		}
	}
	if n < len(data) {
		err = f.Truncate(int64(n))
	}
	if err == nil {
		_, err = f.Seek(int64(n), io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Log{f: f, size: int64(n)}, entries, nil
}

// Append writes frame through wrap and fsyncs the log. A failed append
// is truncated away; if that fails too the log is broken (ErrBroken).
// The write or sync error is returned either way.
func (l *Log) Append(frame []byte, wrap func(io.Writer) io.Writer) error {
	if l.broken {
		return ErrBroken
	}
	var w io.Writer = l.f
	if wrap != nil {
		w = wrap(w)
	}
	_, err := w.Write(frame)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		if l.f.Truncate(l.size) != nil {
			l.broken = true
		} else if _, serr := l.f.Seek(l.size, io.SeekStart); serr != nil {
			l.broken = true
		}
		return fmt.Errorf("appending to %s: %w", l.f.Name(), err)
	}
	l.size += int64(len(frame))
	return nil
}

// Reset empties the log once a checkpoint has absorbed every frame in
// it, which also mends a broken log. A failed truncate changes nothing.
func (l *Log) Reset() error {
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	l.size = 0
	_, err := l.f.Seek(0, io.SeekStart)
	l.broken = err != nil
	return err
}

// Close closes the log file.
func (l *Log) Close() error { return l.f.Close() }
