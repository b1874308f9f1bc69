package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"github.com/go-ccts/ccts/internal/schemacache"
)

// An archive is one response body that lists files: every schema file
// in generation order and then diagnostics.json for /v1/generate, job
// items and repository versions; each item's archive and then job.json
// for a multi-item job result. It is framed here, around the cached
// slices, either as a zip of stored entries or as multipart/mixed
// parts. The bytes are exactly those that archive/zip (CreateHeader
// with zip.Store and no timestamp) and mime/multipart (the fixed
// boundary) write for the same files, which frame_test.go checks
// against both packages. The framing only leaves out their per-request
// CRC-32 pass, their buffering and their allocations, so hit, miss, job
// and repository bodies keep their bytes. (archive/zip's CreateRaw takes
// the stored CRC-32s too, but allocates about eight times per entry: a
// zip hit made 84 allocations through it, against 22 here.)
type archive struct {
	files []schemacache.File
	last  schemacache.File
	// partType is the multipart Content-Type of files; last is always
	// an application/json part. Empty frames a zip.
	partType string
}

// valueArchive frames a generated value: its files, then its
// diagnostics. partType is empty for a zip.
func valueArchive(val *schemacache.Value, partType string) archive {
	return archive{files: val.Files, last: val.Diagnostics, partType: partType}
}

// diagnosticsName names a value's diagnostics file.
const diagnosticsName = "diagnostics.json"

// multipartBoundary is fixed so multipart responses, like zip ones, are
// byte-deterministic for a given cached value.
const multipartBoundary = "ccserved-schema-set"

// multipartEnd closes the last part.
const multipartEnd = "\r\n--" + multipartBoundary + "--\r\n"

// Zip records (APPNOTE.TXT 4.3): the fixed length of each, before its
// name, and the header field values archive/zip writes for a stored
// entry.
const (
	zipLocalLen      = 30
	zipDescriptorLen = 16
	zipCentralLen    = 46
	zipEndLen        = 22
	zip64EndLen      = 56
	zip64LocatorLen  = 20

	zipVersion20 = 20 // stored entries with data descriptors
	zipVersion45 = 45 // zip64 records
	// zipFlagDescriptor: CRC-32 and sizes follow the data.
	zipFlagDescriptor = 0x8
	// zipFlagUTF8: the name needs UTF-8.
	zipFlagUTF8 = 0x800
)

var errArchiveTooLarge = errors.New("archive needs zip64 sizes (over 4 GiB) or has a name over 65,535 bytes")

// entries is the number of entries: the files and last.
func (a *archive) entries() int { return len(a.files) + 1 }

// entry returns the i-th entry.
func (a *archive) entry(i int) *schemacache.File {
	if i < len(a.files) {
		return &a.files[i]
	}
	return &a.last
}

// frameWriter is a writer that lends its spare buffer, so that headers
// are appended in place and written without an allocation of their
// own: *bufio.Writer and *bytes.Buffer.
type frameWriter interface {
	io.Writer
	AvailableBuffer() []byte
}

// size returns the number of bytes writeTo writes, or the error it
// returns before writing any.
func (a *archive) size() (int64, error) {
	if a.partType != "" {
		var scratch [256]byte
		n := int64(len(multipartEnd))
		for i := range a.entries() {
			n += int64(len(a.appendPart(scratch[:0], i))) + int64(len(a.entry(i).Data))
		}
		return n, nil
	}
	cdStart, cdSize, err := a.zipLayout()
	n := cdStart + cdSize + zipEndLen
	if a.zip64() {
		n += zip64EndLen + zip64LocatorLen
	}
	return n, err
}

// writeTo frames the archive to w.
func (a *archive) writeTo(w frameWriter) error {
	if a.partType != "" {
		return a.writeMultipart(w)
	}
	return a.writeZip(w)
}

// zipLayout returns the offset and length of the central directory.
// Of zip64 only the end records for 65,535 entries or more are
// written; an archive whose sizes or offsets would need zip64 is
// refused, and so is a name over 65,535 bytes.
func (a *archive) zipLayout() (cdStart, cdSize int64, err error) {
	for i := range a.entries() {
		f := a.entry(i)
		if len(f.Name) > 1<<16-1 {
			return 0, 0, errArchiveTooLarge
		}
		cdStart += zipLocalLen + int64(len(f.Name)) + int64(len(f.Data)) + zipDescriptorLen
		cdSize += zipCentralLen + int64(len(f.Name))
	}
	if cdStart+cdSize >= 1<<32-1 {
		return 0, 0, errArchiveTooLarge
	}
	return cdStart, cdSize, nil
}

func (a *archive) zip64() bool { return a.entries() >= 1<<16-1 }

// writeZip writes each entry as a local header, its data and a data
// descriptor, then the central directory. No entry name may end in "/",
// which archive/zip writes as a directory.
func (a *archive) writeZip(w frameWriter) error {
	cdStart, cdSize, err := a.zipLayout()
	if err != nil {
		return err
	}
	for i := range a.entries() {
		f := a.entry(i)
		glue := w.AvailableBuffer()
		if i > 0 {
			glue = appendDescriptor(glue, a.entry(i-1))
		}
		glue = appendLocal(glue, f)
		if _, err := w.Write(glue); err != nil {
			return err
		}
		if _, err := w.Write(f.Data); err != nil {
			return err
		}
	}
	glue := appendDescriptor(w.AvailableBuffer(), &a.last)
	var off int64
	for i := range a.entries() {
		f := a.entry(i)
		glue = appendCentral(glue, f, off)
		off += zipLocalLen + int64(len(f.Name)) + int64(len(f.Data)) + zipDescriptorLen
		if len(glue) >= 4<<10 {
			if _, err := w.Write(glue); err != nil {
				return err
			}
			glue = w.AvailableBuffer()
		}
	}
	records, size, offset := uint64(a.entries()), uint32(cdSize), uint32(cdStart)
	if a.zip64() {
		glue = le32(glue, 0x06064b50) // zip64 end of central directory
		glue = le64(glue, zip64EndLen-12)
		glue = le16(glue, zipVersion45) // version made by
		glue = le16(glue, zipVersion45) // version needed
		glue = le32(glue, 0)            // disk numbers
		glue = le32(glue, 0)
		glue = le64(glue, records)
		glue = le64(glue, records)
		glue = le64(glue, uint64(cdSize))
		glue = le64(glue, uint64(cdStart))
		glue = le32(glue, 0x07064b50) // zip64 end locator
		glue = le32(glue, 0)
		glue = le64(glue, uint64(cdStart+cdSize))
		glue = le32(glue, 1) // total disks
		// The end record then points at the zip64 one.
		records, size, offset = 1<<16-1, 1<<32-1, 1<<32-1
	}
	glue = le32(glue, 0x06054b50) // end of central directory
	glue = le32(glue, 0)          // disk numbers
	glue = le16(glue, uint16(records))
	glue = le16(glue, uint16(records))
	glue = le32(glue, size)
	glue = le32(glue, offset)
	glue = le16(glue, 0) // comment length
	_, err = w.Write(glue)
	return err
}

func appendLocal(b []byte, f *schemacache.File) []byte {
	b = le32(b, 0x04034b50)
	b = le16(b, zipVersion20)
	b = le16(b, zipFlags(f.Name))
	b = le16(b, 0) // method: stored
	b = le32(b, 0) // time and date
	b = le32(b, 0) // CRC-32 and sizes follow in the descriptor
	b = le32(b, 0)
	b = le32(b, 0)
	b = le16(b, uint16(len(f.Name)))
	b = le16(b, 0) // extra field length
	return append(b, f.Name...)
}

func appendDescriptor(b []byte, f *schemacache.File) []byte {
	b = le32(b, 0x08074b50)
	b = le32(b, f.CRC32)
	b = le32(b, uint32(len(f.Data)))
	return le32(b, uint32(len(f.Data)))
}

func appendCentral(b []byte, f *schemacache.File, off int64) []byte {
	b = le32(b, 0x02014b50)
	b = le16(b, zipVersion20) // version made by
	b = le16(b, zipVersion20) // version needed
	b = le16(b, zipFlags(f.Name))
	b = le16(b, 0) // method: stored
	b = le32(b, 0) // time and date
	b = le32(b, f.CRC32)
	b = le32(b, uint32(len(f.Data)))
	b = le32(b, uint32(len(f.Data)))
	b = le16(b, uint16(len(f.Name)))
	b = le16(b, 0) // extra field length
	b = le16(b, 0) // comment length
	b = le16(b, 0) // disk number
	b = le16(b, 0) // internal attributes
	b = le32(b, 0) // external attributes
	b = le32(b, uint32(off))
	return append(b, f.Name...)
}

// zipFlags are the general-purpose flags archive/zip sets for a stored
// entry named name: always the data descriptor, and UTF-8 when name is
// valid UTF-8 outside the range most legacy code pages share with ASCII
// (its detectUTF8).
func zipFlags(name string) uint16 {
	require := false
	for i := 0; i < len(name); {
		r, size := utf8.DecodeRuneInString(name[i:])
		i += size
		if r < 0x20 || r > 0x7d || r == 0x5c {
			if r == utf8.RuneError && size == 1 {
				return zipFlagDescriptor
			}
			require = true
		}
	}
	if require {
		return zipFlagDescriptor | zipFlagUTF8
	}
	return zipFlagDescriptor
}

func le16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func le32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func le64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// writeMultipart writes each entry as a part with its headers, then the
// closing boundary.
func (a *archive) writeMultipart(w frameWriter) error {
	for i := range a.entries() {
		if _, err := w.Write(a.appendPart(w.AvailableBuffer(), i)); err != nil {
			return err
		}
		if _, err := w.Write(a.entry(i).Data); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, multipartEnd)
	return err
}

// appendPart appends the boundary and headers that open part i.
func (a *archive) appendPart(b []byte, i int) []byte {
	ct := a.partType
	if i == a.entries()-1 {
		ct = "application/json"
	}
	if i > 0 {
		b = append(b, "\r\n"...)
	}
	b = append(b, "--"+multipartBoundary+"\r\nContent-Disposition: attachment; filename="...)
	b = strconv.AppendQuote(b, a.entry(i).Name)
	b = append(b, "\r\nContent-Type: "...)
	b = append(b, ct...)
	return append(b, "\r\n\r\n"...)
}

// bodyWriters buffer a framed body so that it reaches the connection
// in 64 KiB writes: a schema set is one write, and the headers between
// its files cost no write of their own.
var bodyWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

// writeArchive answers a as the response body, with its length in the
// Content-Length header; disposition is the Content-Disposition header,
// if any.
func (s *Server) writeArchive(w http.ResponseWriter, contentType, disposition string, a archive) {
	n, err := a.size()
	if err != nil {
		s.writeError(w, &apiError{Status: http.StatusInternalServerError, Code: "archive", Message: err.Error()})
		return
	}
	h := w.Header()
	h.Set("Content-Type", contentType)
	if disposition != "" {
		h.Set("Content-Disposition", disposition)
	}
	h.Set("Content-Length", strconv.FormatInt(n, 10))
	bw := bodyWriters.Get().(*bufio.Writer)
	bw.Reset(w)
	if a.writeTo(bw) == nil {
		bw.Flush()
	}
	bw.Reset(nil)
	bodyWriters.Put(bw)
}
