package server

import (
	"archive/zip"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"net/url"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/backends"
	"github.com/go-ccts/ccts/internal/schemacache"
)

// oracleArchive renders a with archive/zip or mime/multipart, the way
// the server wrote every archive before the framing writer.
func oracleArchive(t testing.TB, a archive) []byte {
	t.Helper()
	var buf bytes.Buffer
	if a.partType == "" {
		zw := zip.NewWriter(&buf)
		for i := range a.entries() {
			f := a.entry(i)
			fw, err := zw.CreateHeader(&zip.FileHeader{Name: f.Name, Method: zip.Store})
			if err != nil {
				t.Fatal(err)
			}
			fw.Write(f.Data)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	mw := multipart.NewWriter(&buf)
	mw.SetBoundary(multipartBoundary)
	for i := range a.entries() {
		f, ct := a.entry(i), a.partType
		if i == a.entries()-1 {
			ct = "application/json"
		}
		h := textproto.MIMEHeader{}
		h.Set("Content-Type", ct)
		h.Set("Content-Disposition", fmt.Sprintf(`attachment; filename=%q`, f.Name))
		pw, err := mw.CreatePart(h)
		if err != nil {
			t.Fatal(err)
		}
		pw.Write(f.Data)
	}
	mw.Close()
	return buf.Bytes()
}

// framed renders a with the framing writer and checks that size
// announced the length it wrote.
func framed(t testing.TB, a archive) []byte {
	t.Helper()
	n, err := a.size()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.writeTo(&buf); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != n {
		t.Fatalf("size() = %d, wrote %d bytes", n, buf.Len())
	}
	return buf.Bytes()
}

// checkZipReadBack reads a framed zip back and checks every entry's
// name, stored CRC-32 and bytes.
func checkZipReadBack(t *testing.T, body []byte, a archive) {
	t.Helper()
	zr, err := zip.NewReader(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		t.Fatal(err)
	}
	if len(zr.File) != a.entries() {
		t.Fatalf("read back %d entries, want %d", len(zr.File), a.entries())
	}
	for i, zf := range zr.File {
		want := a.entry(i)
		if zf.Name != want.Name || zf.CRC32 != crc32.ChecksumIEEE(want.Data) {
			t.Fatalf("entry %d: %q crc %08x, want %q crc %08x", i, zf.Name, zf.CRC32, want.Name, crc32.ChecksumIEEE(want.Data))
		}
		rc, err := zf.Open()
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(rc) // verifies the CRC-32 at EOF
		rc.Close()
		if err != nil || !bytes.Equal(data, want.Data) {
			t.Fatalf("entry %q: %d bytes, err %v; want %d bytes", zf.Name, len(data), err, len(want.Data))
		}
	}
}

// frameNames covers the name classes the zip UTF-8 flag and the
// multipart filename quoting treat differently.
var frameNames = []string{
	"EB005-HoardingPermit_0.4.xsd", "with space.xsd", `quo"te.xsd`, `back\slash.xsd`,
	"tilde~.json", "Übersicht-Größe.xsd", "名前.xsd", "tab\tname", "\xff\xfeinvalid", "",
}

// seededArchive draws up to six files with names from frameNames and
// data that is empty, small, or over 64 KiB.
func seededArchive(rng *rand.Rand, partType string) archive {
	file := func() schemacache.File {
		var data []byte
		switch rng.Intn(4) {
		case 0:
		case 1:
			data = make([]byte, 64<<10+rng.Intn(4096))
		default:
			data = make([]byte, 1+rng.Intn(300))
		}
		rng.Read(data)
		return schemacache.NewFile(frameNames[rng.Intn(len(frameNames))], data)
	}
	a := archive{partType: partType}
	for n := rng.Intn(7); n > 0; n-- {
		a.files = append(a.files, file())
	}
	a.last = file()
	return a
}

// TestFrameMatchesStdlib: the framing writer's bytes are those of
// archive/zip and mime/multipart, on seeded file sets and the edge
// cases (no files, empty files, empty data, large files, every name
// class), and a framed zip reads back with its stored CRC-32s.
func TestFrameMatchesStdlib(t *testing.T) {
	cases := []archive{
		{last: schemacache.NewFile(diagnosticsName, nil)},
		{last: schemacache.NewFile(diagnosticsName, []byte(`{"findings":[]}`))},
		{files: []schemacache.File{schemacache.NewFile("empty.xsd", nil), schemacache.NewFile("", []byte{})}, last: schemacache.NewFile("job.json", nil)},
	}
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		cases = append(cases, seededArchive(rng, ""))
	}
	for _, name := range frameNames {
		cases = append(cases, archive{files: []schemacache.File{schemacache.NewFile(name, []byte(name))}, last: schemacache.NewFile(diagnosticsName, nil)})
	}
	for i, a := range cases {
		for _, pt := range []string{"", "application/xml", "text/plain; charset=utf-8"} {
			a.partType = pt
			got, want := framed(t, a), oracleArchive(t, a)
			if !bytes.Equal(got, want) {
				t.Fatalf("case %d (partType %q, %d files): framed %d bytes differ from the stdlib's %d", i, pt, len(a.files), len(got), len(want))
			}
			if pt == "" {
				checkZipReadBack(t, got, a)
			}
		}
	}
}

// TestFrameZip64EntryCount: at 65,535 entries archive/zip switches to
// the zip64 end records, and so does the framing writer.
func TestFrameZip64EntryCount(t *testing.T) {
	if testing.Short() {
		t.Skip("renders two archives of 65,535 entries")
	}
	for _, n := range []int{1<<16 - 2, 1<<16 - 1} {
		a := archive{last: schemacache.NewFile("job.json", []byte("{}"))}
		for i := range n - 1 {
			a.files = append(a.files, schemacache.NewFile(fmt.Sprintf("%05d.zip", i), nil))
		}
		if got, want := framed(t, a), oracleArchive(t, a); !bytes.Equal(got, want) {
			t.Fatalf("%d entries: framed %d bytes differ from archive/zip's %d", n, len(got), len(want))
		}
	}
}

// TestFrameRefusesLongName: a name archive/zip cannot store is refused
// before a byte is written.
func TestFrameRefusesLongName(t *testing.T) {
	a := archive{last: schemacache.NewFile(strings.Repeat("n", 1<<16), nil)}
	if _, err := a.size(); err != errArchiveTooLarge {
		t.Fatalf("size() err = %v, want errArchiveTooLarge", err)
	}
	var buf bytes.Buffer
	if err := a.writeTo(&buf); err != errArchiveTooLarge || buf.Len() != 0 {
		t.Fatalf("writeTo err = %v after %d bytes, want errArchiveTooLarge before any", err, buf.Len())
	}
}

// TestGenerateBodiesMatchStdlibForEveryTarget: for every target and
// format, the miss and the hit answer exactly the archive/zip or
// mime/multipart rendering of the cached value, with its length in
// Content-Length.
func TestGenerateBodiesMatchStdlibForEveryTarget(t *testing.T) {
	body := sampleXMI(t)
	for _, target := range backends.Targets() {
		for _, format := range []string{"zip", "multipart"} {
			s := New(Config{})
			query := docQuery + "&target=" + target + "&format=" + format
			miss := postGenerate(t, s.Handler(), body, query)
			hit := postGenerate(t, s.Handler(), body, query)
			if miss.Code != http.StatusOK || hit.Code != http.StatusOK {
				t.Fatalf("%s/%s: status %d then %d: %s", target, format, miss.Code, hit.Code, miss.Body.String())
			}
			if got := miss.Header().Get("X-Ccserved-Cache") + "," + hit.Header().Get("X-Ccserved-Cache"); got != "miss,hit" {
				t.Fatalf("%s/%s: cache outcomes %s, want miss,hit", target, format, got)
			}
			q, _ := url.ParseQuery(query)
			params, aerr := parseGenParams(q)
			if aerr != nil {
				t.Fatal(aerr.Message)
			}
			val, ok := s.cache.Get(schemacache.Key(body, params.fingerprint()))
			if !ok {
				t.Fatalf("%s/%s: value not cached", target, format)
			}
			partType := ""
			if format == "multipart" {
				partType = val.ContentType
				if partType == "" {
					partType = "application/xml"
				}
			}
			want := oracleArchive(t, valueArchive(val, partType))
			for _, rec := range []*httptest.ResponseRecorder{miss, hit} {
				if !bytes.Equal(rec.Body.Bytes(), want) {
					t.Errorf("%s/%s %s: body differs from the stdlib rendering", target, format, rec.Header().Get("X-Ccserved-Cache"))
				}
				if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(want)) {
					t.Errorf("%s/%s: Content-Length %q, want %d", target, format, cl, len(want))
				}
			}
		}
	}
}

// hitResponse is a ResponseWriter that keeps nothing but the status,
// the headers and the body's length and CRC-32, so that an allocation
// count sees the handler alone.
type hitResponse struct {
	header http.Header
	code   int
	n      int
	crc    uint32
}

func (w *hitResponse) Header() http.Header { return w.header }
func (w *hitResponse) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *hitResponse) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += len(p)
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	return len(p), nil
}

// hitAllocBudget bounds the allocations of one in-process cache hit:
// routing, query parsing, the body buffer, the request context, the
// fingerprint and content key, and the response headers; the framing
// adds none per file. A hit made 21-22 when the budget was set. With
// io.ReadAll, archive/zip and mime/multipart it made over 130.
const hitAllocBudget = 26

// TestCacheHitAllocs: a zip hit and a multipart hit each allocate at
// most hitAllocBudget times, and answer the bytes of the miss.
func TestCacheHitAllocs(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	body := sampleXMI(t)
	for _, format := range []string{"zip", "multipart"} {
		query := docQuery + "&annotate=true&format=" + format
		miss := postGenerate(t, h, body, query)
		if miss.Code != http.StatusOK {
			t.Fatalf("%s miss: %d %s", format, miss.Code, miss.Body.String())
		}
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/v1/generate?"+query, rd)
		w := &hitResponse{header: http.Header{}}
		allocs := testing.AllocsPerRun(200, func() {
			rd.Reset(body)
			clear(w.header)
			w.code, w.n, w.crc = 0, 0, 0
			h.ServeHTTP(w, req)
		})
		if w.code != http.StatusOK || w.header.Get("X-Ccserved-Cache") != "hit" {
			t.Fatalf("%s hit: status %d, cache %q", format, w.code, w.header.Get("X-Ccserved-Cache"))
		}
		if w.n != miss.Body.Len() || w.crc != crc32.ChecksumIEEE(miss.Body.Bytes()) {
			t.Fatalf("%s hit: %d bytes differ from the miss's %d", format, w.n, miss.Body.Len())
		}
		t.Logf("%s hit: %.0f allocations", format, allocs)
		if allocs > hitAllocBudget {
			t.Errorf("%s hit allocates %.0f times, budget %d", format, allocs, hitAllocBudget)
		}
	}
}
