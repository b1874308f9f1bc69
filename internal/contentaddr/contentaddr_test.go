package contentaddr

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"
)

func TestCanonicalizeLineEndings(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"lf passthrough", "<a>\n<b/>\n</a>", "<a>\n<b/>\n</a>"},
		{"crlf to lf", "<a>\r\n<b/>\r\n</a>", "<a>\n<b/>\n</a>"},
		{"bare cr to lf", "<a>\r<b/>\r</a>", "<a>\n<b/>\n</a>"},
		{"trailing whitespace trimmed", "<a/>\n\t \n", "<a/>"},
		{"interior whitespace kept", "<a>  x\t</a>", "<a>  x\t</a>"},
	}
	for _, tc := range cases {
		if got := string(Canonicalize([]byte(tc.in))); got != tc.want {
			t.Errorf("%s: Canonicalize(%q) = %q, want %q", tc.name, tc.in, got, tc.want)
		}
	}
}

// canonicalizeReference is the two-pass definition Canonicalize must
// keep matching.
func canonicalizeReference(xmi []byte) []byte {
	out := bytes.ReplaceAll(xmi, []byte("\r\n"), []byte("\n"))
	out = bytes.ReplaceAll(out, []byte{'\r'}, []byte{'\n'})
	return bytes.TrimRight(out, " \t\n")
}

func TestCanonicalizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := []string{"\r", "\r\n", "\n", " ", "\t", "<a/>", "x"}
	for i := 0; i < 5000; i++ {
		var b []byte
		for n := rng.Intn(12); n > 0; n-- {
			b = append(b, pieces[rng.Intn(len(pieces))]...)
		}
		if got, want := Canonicalize(b), canonicalizeReference(b); !bytes.Equal(got, want) {
			t.Fatalf("Canonicalize(%q) = %q, want %q", b, got, want)
		}
	}
}

func TestCanonicalizeCanonicalBodyAllocatesNothing(t *testing.T) {
	body := []byte(strings.Repeat("<a>\n  <b/>\n</a>\n", 1000))
	if allocs := testing.AllocsPerRun(100, func() { Canonicalize(body) }); allocs != 0 {
		t.Errorf("Canonicalize of a canonical body allocates %v times per call, want 0", allocs)
	}
}

func TestKeyDistinguishesFingerprint(t *testing.T) {
	doc := []byte("<xmi/>")
	if Key(doc, "lib=A") == Key(doc, "lib=B") {
		t.Error("distinct fingerprints must yield distinct keys")
	}
	if Key(doc, "lib=A") != Key(doc, "lib=A") {
		t.Error("Key must be deterministic")
	}
}

func TestKeyLengthPrefixPreventsConcatenationCollision(t *testing.T) {
	// Without the length prefix (doc="ab", fp="c") and (doc="a", fp="bc")
	// would hash the same bytes.
	if Key([]byte("ab"), "c") == Key([]byte("a"), "bc") {
		t.Error("length prefix must separate document from fingerprint")
	}
}

func TestKeyNormalizesLineEndings(t *testing.T) {
	if Key([]byte("<a>\r\n</a>"), "f") != Key([]byte("<a>\n</a>"), "f") {
		t.Error("CRLF and LF documents must share a key")
	}
}

func TestBlobSum(t *testing.T) {
	data := []byte("hello blob")
	want := sha256.Sum256(data)
	if got := BlobSum(data); got != hex.EncodeToString(want[:]) {
		t.Errorf("BlobSum = %s, want sha256 hex", got)
	}
	if len(BlobSum(nil)) != 64 {
		t.Error("BlobSum of empty input must still be a 64-char hex digest")
	}
	if strings.ToLower(BlobSum(data)) != BlobSum(data) {
		t.Error("BlobSum must be lower-case hex")
	}
}
