// Package contentaddr is the single definition of content addressing
// shared by the serving subsystem's schema cache and the persistent
// schema repository. Both key their storage by SHA-256 over a
// canonicalized XMI document plus an options fingerprint; keeping the
// canonicalization and the hash construction in one place guarantees
// the two layers can never drift apart — a repository version and a
// cache entry computed from the same request always agree on the
// address.
package contentaddr

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
)

// Canonicalize normalizes an XMI document for content addressing:
// CRLF/CR line endings become LF and trailing whitespace-only lines are
// trimmed, so the same model saved by tools with different line-ending
// conventions resolves to the same address. The element structure is
// not reformatted — two semantically equal but differently indented
// documents are distinct inputs, which is the safe direction for
// content addressing (false misses cost a regeneration; false hits
// would serve the wrong schemas).
//
// A document without '\r' is returned as a subslice of xmi, without a
// copy; callers must not modify the result.
func Canonicalize(xmi []byte) []byte {
	if bytes.IndexByte(xmi, '\r') < 0 {
		return bytes.TrimRight(xmi, " \t\n")
	}
	out := make([]byte, 0, len(xmi))
	for {
		i := bytes.IndexByte(xmi, '\r')
		if i < 0 {
			break
		}
		out = append(append(out, xmi[:i]...), '\n')
		xmi = xmi[i+1:]
		if len(xmi) > 0 && xmi[0] == '\n' {
			xmi = xmi[1:]
		}
	}
	out = append(out, xmi...)
	return bytes.TrimRight(out, " \t\n")
}

// Key derives the content address of a request: SHA-256 over the
// canonicalized XMI bytes and the caller's options fingerprint
// (library, root, style, annotation flags — everything that changes
// the output). The document is length-prefixed into the hash so
// distinct (document, fingerprint) pairs can never collide by
// concatenation.
func Key(xmi []byte, fingerprint string) string {
	h := sha256.New()
	canon := Canonicalize(xmi)
	var lenbuf [8]byte
	putUint64(lenbuf[:], uint64(len(canon)))
	h.Write(lenbuf[:])
	h.Write(canon)
	h.Write([]byte(fingerprint))
	return hex.EncodeToString(h.Sum(nil))
}

// BlobSum is the content address of a raw blob: plain SHA-256 of its
// bytes, hex-encoded. The repository's blob store files schemas,
// diagnostics and canonicalized inputs under this address so unchanged
// artifacts are shared across versions.
func BlobSum(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func putUint64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}
